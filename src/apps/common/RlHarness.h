//===- apps/common/RlHarness.h - Autonomization harness for RL -*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an interactive benchmark program through the Autonomizer
/// primitives, reproducing the paper's RL training and deployment regime:
///
///   reset -> au_checkpoint once ->
///   loop { au_extract*(state) ; au_serialize ; au_NN(reward, term) ;
///          au_write_back(action) ; act ; if (term) au_restore }
///
/// Two variants mirror the paper's comparison: All feeds the program
/// variables selected by Algorithm 2 into a DNN; Raw feeds rendered frames
/// into the DeepMind-style CNN. The harness measures training time, trace
/// and model sizes (Table 2), periodic evaluation scores (Table 3, Fig. 17)
/// and checkpoint/restore latency.
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_COMMON_RLHARNESS_H
#define AU_APPS_COMMON_RLHARNESS_H

#include "analysis/FeatureExtraction.h"
#include "apps/common/GameEnv.h"
#include "core/Engine.h"
#include "core/Session.h"
#include "nn/QLearner.h"

#include <string>
#include <vector>

namespace au {
namespace apps {

/// Which feature source the model consumes.
enum class RlVariant {
  All, ///< Program variables selected by Algorithm 2 (DNN).
  Raw  ///< Rendered pixel frames (DeepMind-style CNN).
};

/// One point of a learning curve.
struct CurvePoint {
  long Steps = 0;
  double Progress = 0.0;
  double SuccessRate = 0.0;
};

/// Training options.
struct RlTrainOptions {
  RlVariant Variant = RlVariant::All;
  /// Feature-variable names for the All variant (from Algorithm 2).
  std::vector<std::string> FeatureNames;
  /// Frame side length for the Raw variant.
  int FrameSide = 20;
  /// Total environment steps of training budget.
  long TrainSteps = 20000;
  /// Episode step cap (truncated episodes count as failures).
  int MaxEpisodeSteps = 400;
  /// Level seed (layout); per-episode jitter varies within it.
  uint64_t Seed = 7;
  /// Hidden layer widths.
  std::vector<int> Hidden = {32, 32};
  /// Q-learning hyperparameters.
  nn::QConfig QCfg;
  /// Evaluate greedily every this many steps (0 = never) for the curve.
  long EvalEvery = 0;
  int EvalEpisodes = 10;
};

/// Training outcome and cost accounting.
struct RlTrainResult {
  std::string ModelName;
  double TrainSeconds = 0.0;
  long StepsRun = 0;
  long Episodes = 0;
  size_t TraceBytes = 0;  ///< Floats extracted during training (Table 2).
  size_t ModelBytes = 0;  ///< Serialized model size (Table 2).
  size_t NumParams = 0;
  double CheckpointSeconds = 0.0; ///< Mean au_checkpoint latency.
  double RestoreSeconds = 0.0;    ///< Mean au_restore latency.
  std::vector<CurvePoint> Curve;  ///< Periodic greedy evaluations.
};

/// Evaluation outcome.
struct RlEvalResult {
  double MeanProgress = 0.0;
  double SuccessRate = 0.0;
  double MeanStepSeconds = 0.0; ///< Per-iteration wall time (Table 3 Exec).
};

/// The model name the harness registers for (env, variant).
std::string rlModelName(const GameEnv &Env, RlVariant V);

/// The au_config the harness issues for (env, options). trainRl adopts a
/// model already in theta under this name, so a caller may configure it
/// first with a different learner seed.
ModelConfig rlModelConfig(const GameEnv &Env, const RlTrainOptions &Opt);

/// Runs the full feature-selection pipeline for \p Env: a scripted profile
/// run, Algorithm 2 over its targets, then restriction to the variables the
/// program exposes at runtime (the paper extracts arbitrary program
/// variables via instrumentation; our environments surface a fixed set).
/// \p Stats, when non-null, receives the pruning diagnostics.
std::vector<std::string>
selectRlFeatures(GameEnv &Env, double Epsilon1 = 1e-6,
                 double Epsilon2 = 1e-4, int ProfileSteps = 200,
                 analysis::RlExtractionStats *Stats = nullptr);

/// Trains an agent on \p Env through the primitives of \p S (the native
/// Engine/Session API; DESIGN.md §10). The session must be in TR mode.
RlTrainResult trainRl(GameEnv &Env, Session &S, const RlTrainOptions &Opt);

/// Parallel-rollout training (DESIGN.md §8): \p NumActors environments from
/// \p Factory run in lockstep ticks. Each actor is its own Session over
/// \p Eng; per tick, every actor extracts its features into its own
/// session, the K au_NN calls fuse into one batched model step
/// (Engine::nnRlSessions), every live actor writes back and steps,
/// transitions land in per-actor replay shards, and the training schedule
/// advances once per tick. The
/// actors' primitive counters fold into \p Main's stats, whose traceBytes()
/// delta becomes the result's TraceBytes. Results are bitwise identical at
/// any AU_NN_THREADS setting.
///
/// Two deliberate departures from trainRl's schedule (documented in
/// DESIGN.md §8): episodes restart with fresh jittered seeds instead of
/// checkpoint/restore rollback, and callers typically set
/// Opt.QCfg.TrainInterval = NumActors so one minibatch runs per tick — the
/// standard vectorized-DQN schedule (same 1-trainStep-per-interval cadence
/// as the serial TrainInterval=1 loop, K env steps per tick).
RlTrainResult trainRlParallel(const GameEnvFactory &Factory, Engine &Eng,
                              Session &Main, const RlTrainOptions &Opt,
                              int NumActors);

/// Greedy evaluation over \p Episodes jittered episodes. Leaves the
/// session's mode as it found it. Works on the in-memory trained model.
RlEvalResult evalRl(GameEnv &Env, Session &S, const RlTrainOptions &Opt,
                    int Episodes);

/// Greedy evaluation with the episodes run concurrently: each episode is
/// one Session lane over \p Eng, action selection for all live lanes fuses
/// into one batched inference per tick (Engine::nnRlSessions with learning
/// off). Uses the same per-episode seeds as evalRl; with one episode the
/// two produce identical scores (a single-row batch is the serial TS path).
/// Lane stats fold into \p Main; \p Main's mode is never touched.
RlEvalResult evalRlBatched(const GameEnvFactory &Factory, Engine &Eng,
                           Session &Main, const RlTrainOptions &Opt,
                           int Episodes);

/// The scripted near-optimal player ("human players" reference).
RlEvalResult evalHeuristic(GameEnv &Env, const RlTrainOptions &Opt,
                           int Episodes);

/// Uniform-random play (the monkey-testing reference of Section 2).
RlEvalResult evalRandom(GameEnv &Env, const RlTrainOptions &Opt,
                        int Episodes);

/// Plain un-autonomized execution time per game-loop iteration, for the
/// overhead ratio of Table 3.
double baselineStepSeconds(GameEnv &Env, const RlTrainOptions &Opt,
                           int Episodes);

} // namespace apps
} // namespace au

#endif // AU_APPS_COMMON_RLHARNESS_H
