//===- apps/rothwell/Rothwell.h - Rothwell edge detector -------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the Rothwell et al. topology-driven edge detector, the
/// paper's second supervised benchmark. Unlike Canny's global hysteresis it
/// thresholds *dynamically*: each pixel is kept when its gradient magnitude
/// exceeds Alpha times the local mean magnitude, and the surviving chains
/// are filtered by a minimum component length — giving three annotated
/// parameters (Sigma, Alpha, MinLen), matching Table 1's three target
/// variables.
///
/// Scenes and scoring are shared with the Canny benchmark (both papers'
/// programs consume the same edge datasets).
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_ROTHWELL_ROTHWELL_H
#define AU_APPS_ROTHWELL_ROTHWELL_H

#include "analysis/FeatureExtraction.h"
#include "apps/canny/Canny.h"
#include "apps/common/SlExperiment.h"

namespace au {
namespace apps {

/// The three annotated parameters.
struct RothwellParams {
  double Sigma = 1.2;  ///< Gaussian smoothing width.
  double Alpha = 1.8;  ///< Dynamic threshold factor over the local mean.
  double MinLen = 6.0; ///< Minimum surviving chain length (pixels).
};

/// Intermediates surfaced for feature extraction.
struct RothwellTrace {
  Image Smoothed;
  Image Magnitude;
  Image LocalMean;           ///< Window-averaged magnitude.
  std::vector<float> Ratios; ///< 16-bin histogram of mag / localMean.
};

inline constexpr int RothwellHistBins = 16;

/// Runs the detector; returns a binary edge map.
Image rothwellDetect(const Image &In, const RothwellParams &P,
                     RothwellTrace *Trace = nullptr);

/// Grid-search autotuning oracle.
RothwellParams autotuneRothwell(const CannyScene &Scene);

/// Records the dependence structure of one run (for Table 1 / Alg. 1).
void rothwellProfile(analysis::Tracer &T, std::vector<std::string> &Inputs,
                     std::vector<std::string> &Targets);

/// The annotated Rothwell program (SlExperiment.h) over Canny's scenes and
/// scoring.
struct RothwellProgram {
  using Input = CannyScene;
  using Params = RothwellParams;
  using Output = Image;

  static Input trainInput(uint64_t Seed, int I) {
    return makeCannyScene(Seed + 5000 + I);
  }
  static Input testInput(uint64_t Seed, int I) {
    return makeCannyScene(Seed + 20000 + I);
  }
  static Params autotune(const Input &Scene) {
    return autotuneRothwell(Scene);
  }
  static ModelConfig model(uint64_t Seed);
  static Params annotate(Session &S, const Input &Scene,
                         analysis::SlPick Pick, Params P);
  static Output run(const Input &Scene, const Params &P) {
    return rothwellDetect(Scene.Input, P);
  }
  static double score(const Input &Scene, const Output &Edges) {
    return cannyScore(Edges, Scene.Truth);
  }
};

/// The Raw / Med / Min comparison experiment (same shape as Canny's).
using RothwellExperiment = SlExperiment<RothwellProgram>;

} // namespace apps
} // namespace au

#endif // AU_APPS_ROTHWELL_ROTHWELL_H
