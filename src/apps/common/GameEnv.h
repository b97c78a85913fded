//===- apps/common/GameEnv.h - Interactive-program interface ---*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common surface of the five interactive benchmark programs
/// (Flappybird, Mario, Arkanoid, TORCS, Breakout). Each is a small,
/// deterministic reimplementation of the paper's benchmark family exposing:
///
///  * the game-loop contract (reset / step / terminal / progress),
///  * its *program variables* (the internal state Algorithm 2 mines and the
///    All models consume),
///  * a pixel renderer (the input of the Raw / DeepMind-style baselines),
///  * a scripted near-optimal player standing in for the paper's
///    10-human-player reference,
///  * Checkpointable state so au_checkpoint / au_restore can roll the game
///    back without restarting, exactly as the Mario example in Section 2,
///  * a profiling hook that records dynamic dependence information and
///    value traces into a Tracer (the Valgrind substitute).
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_COMMON_GAMEENV_H
#define AU_APPS_COMMON_GAMEENV_H

#include "analysis/Tracer.h"
#include "core/Checkpoint.h"
#include "support/Image.h"
#include "support/Rng.h"

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace au {
namespace apps {

/// A named program variable exposed to the runtime.
using Feature = std::pair<std::string, float>;

/// Base class for the interactive benchmark programs.
class GameEnv : public Checkpointable {
public:
  ~GameEnv() override;

  /// Short program name ("mario", "torcs", ...).
  virtual const char *name() const = 0;

  /// Starts a fresh episode; \p Seed fixes the level layout.
  virtual void reset(uint64_t Seed) = 0;

  /// Number of discrete actions.
  virtual int numActions() const = 0;

  /// Advances one game-loop iteration; returns the reward.
  virtual float step(int Action) = 0;

  /// True once the episode reached an ending state.
  virtual bool terminal() const = 0;

  /// True when the episode ended in success (flag reached, course
  /// finished, all bricks cleared...).
  virtual bool success() const = 0;

  /// Episode progress in [0, 1] (the per-game score of Table 3).
  virtual double progress() const = 0;

  /// A near-optimal scripted action — the "human players" reference.
  virtual int heuristicAction(Rng &R) const = 0;

  /// Current values of the program variables (names are stable across
  /// steps and match what profile() records).
  virtual std::vector<Feature> features() const = 0;

  /// Renders the current frame as a Side x Side grayscale image.
  virtual Image renderFrame(int Side) const = 0;

  /// Plays a short scripted run, recording the dynamic dependence graph,
  /// use functions and value traces of the program variables into \p T.
  virtual void profile(analysis::Tracer &T, int Steps) = 0;

  /// Target-variable names for Algorithm 2 (the action-selection
  /// variables the user annotates).
  virtual std::vector<std::string> targetVariables() const = 0;
};

/// Creates one fresh environment instance (the parallel harness paths call
/// it once per actor or evaluation lane).
using GameEnvFactory = std::function<std::unique_ptr<GameEnv>()>;

/// Looks up \p Name in \p Fs; asserts when missing.
float featureValue(const std::vector<Feature> &Fs, const std::string &Name);

/// Extracts the subset of \p Fs named by \p Names, in that order.
std::vector<float> selectFeatures(const std::vector<Feature> &Fs,
                                  const std::vector<std::string> &Names);

} // namespace apps
} // namespace au

#endif // AU_APPS_COMMON_GAMEENV_H
