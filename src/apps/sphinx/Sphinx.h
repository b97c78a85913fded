//===- apps/sphinx/Sphinx.h - Speech-recognition benchmark -----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the CMU Sphinx speech-recognition benchmark: an isolated-
/// word recognizer that matches an utterance's acoustic feature sequence
/// against word templates with beam-pruned dynamic time warping. Its two
/// annotated parameters — the pruning beam width and the spectral noise
/// floor — trade accuracy against cost, and their ideal values depend on
/// the utterance's speaking rate and noise level, matching the paper's
/// two Sphinx target variables.
///
/// The score per utterance rewards a correct recognition and mildly
/// penalizes the DTW cells expanded, so a wastefully wide beam is not free.
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_SPHINX_SPHINX_H
#define AU_APPS_SPHINX_SPHINX_H

#include "analysis/FeatureExtraction.h"
#include "apps/common/SlExperiment.h"

#include <array>
#include <cstdint>
#include <vector>

namespace au {
namespace apps {

/// The two annotated parameters. The defaults are the conservative
/// shipped configuration — a wide beam that never loses the correct path
/// and no endpoint trimming — safe on any corpus but wasteful and noisy,
/// which is exactly why per-input prediction helps.
struct SphinxParams {
  double Beam = 6.0;       ///< DTW pruning beam width.
  double NoiseFloor = 0.0; ///< Endpoint-detection noise floor.
};

/// One acoustic frame (a tiny stand-in for an MFCC vector).
using SphinxFrame = std::array<float, 2>;

/// Vocabulary size.
inline constexpr int SphinxVocab = 8;

/// One synthetic utterance with its true word.
struct SphinxUtterance {
  std::vector<SphinxFrame> Frames;
  int TrueWord = 0;
  double Rate = 1.0;  ///< Speaking-rate warp used to produce it.
  double Noise = 0.0; ///< Additive noise level used to produce it.
};

/// The deterministic template for a vocabulary word.
std::vector<SphinxFrame> sphinxTemplate(int Word);

/// Generates one deterministic utterance.
SphinxUtterance makeSphinxUtterance(uint64_t Seed);

/// Recognition outcome.
struct SphinxResult {
  int Word = -1;
  long CellsExpanded = 0;
};

/// Runs the beam-pruned DTW recognizer.
SphinxResult sphinxRecognize(const SphinxUtterance &U, const SphinxParams &P);

/// Utterance score in [0, 1]: 0 when wrong, otherwise 1 minus a small
/// cost term for the expanded DTW cells. Higher is better.
double sphinxScore(const SphinxUtterance &U, const SphinxParams &P);

/// Grid-search autotuning oracle.
SphinxParams autotuneSphinx(const SphinxUtterance &U);

/// Records the dependence structure of one run (Table 1 / Alg. 1).
void sphinxProfile(analysis::Tracer &T, std::vector<std::string> &Inputs,
                   std::vector<std::string> &Targets);

/// The annotated Sphinx program (SlExperiment.h).
struct SphinxProgram {
  using Input = SphinxUtterance;
  using Params = SphinxParams;
  using Output = SphinxResult;

  static Input trainInput(uint64_t Seed, int I) {
    return makeSphinxUtterance(Seed + 300 + I);
  }
  static Input testInput(uint64_t Seed, int I) {
    return makeSphinxUtterance(Seed + 60000 + I);
  }
  static Params autotune(const Input &U) { return autotuneSphinx(U); }
  static ModelConfig model(uint64_t Seed);
  static Params annotate(Session &S, const Input &U, analysis::SlPick Pick,
                         Params P);
  static Output run(const Input &U, const Params &P) {
    return sphinxRecognize(U, P);
  }
  /// The sphinxScore of a recognition outcome.
  static double score(const Input &U, const Output &R);
};

/// The Raw / Med / Min comparison experiment.
using SphinxExperiment = SlExperiment<SphinxProgram>;

} // namespace apps
} // namespace au

#endif // AU_APPS_SPHINX_SPHINX_H
