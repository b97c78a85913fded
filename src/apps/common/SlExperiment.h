//===- apps/common/SlExperiment.h - Supervised comparison driver -*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Raw / Med / Min comparison experiment of Section 6.3, shared by the
/// supervised benchmarks: each feature version of Algorithm 1 runs the
/// annotated program in its own Session over its own Engine, records the
/// autotuned parameters of the training inputs as labels (TR), trains
/// offline, and is then deployed on held-out inputs (TS) against the
/// default-parameter baseline.
///
/// \p Program supplies the benchmark and nothing else:
///
/// \code
///   using Input, Params, Output;
///   static Input trainInput(uint64_t Seed, int I);  // training inputs
///   static Input testInput(uint64_t Seed, int I);   // held-out inputs
///   static Params autotune(const Input &);          // labeling oracle
///   static ModelConfig model(uint64_t Seed);        // the au_config
///   // The annotated region: au_extract of the Pick's features, au_NN and
///   // one au_write_back per parameter. TR records \p P as the labels; TS
///   // overwrites it with the predictions. Returns the parameters to run.
///   static Params annotate(Session &, const Input &, analysis::SlPick,
///                          Params P);
///   static Output run(const Input &, const Params &); // the program
///   static double score(const Input &, const Output &);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef AU_APPS_COMMON_SLEXPERIMENT_H
#define AU_APPS_COMMON_SLEXPERIMENT_H

#include "analysis/FeatureExtraction.h"
#include "core/Engine.h"
#include "core/Session.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace au {
namespace apps {

template <typename Program> class SlExperiment {
public:
  using Input = typename Program::Input;
  using Params = typename Program::Params;

  SlExperiment(int NumTrain, int NumTest, uint64_t Seed)
      : Cfg(Program::model(Seed)) {
    for (int I = 0; I < NumTrain; ++I) {
      TrainSet.push_back(Program::trainInput(Seed, I));
      TrainOracle.push_back(Program::autotune(TrainSet.back()));
    }
    for (int I = 0; I < NumTest; ++I)
      TestSet.push_back(Program::testInput(Seed, I));
  }

  /// Trains version \p Pick through the primitives (TR mode) for \p Epochs
  /// epochs, then switches it to deployment. Returns training wall time.
  double train(analysis::SlPick Pick, int Epochs) {
    Variant &V = variant(Pick);
    assert(V.S.mode() == Mode::TR && "training twice on the same version");
    Timer T;
    for (size_t I = 0; I != TrainSet.size(); ++I)
      runAnnotated(V.S, TrainSet[I], Pick, TrainOracle[I]);
    V.S.trainSupervised(Cfg.Name, Epochs, 16);
    double Secs = T.seconds();
    V.TraceBytes = V.S.stats().traceBytes();
    V.ModelBytes = V.S.getModel(Cfg.Name)->modelSizeBytes();
    V.S.switchMode(Mode::TS);
    return Secs;
  }

  /// Mean score of the trained \p Pick version on the held-out inputs.
  double testScore(analysis::SlPick Pick) {
    Variant &V = variant(Pick);
    assert(V.S.mode() == Mode::TS && "test before train");
    std::vector<double> Scores;
    for (const Input &In : TestSet)
      Scores.push_back(
          Program::score(In, runAnnotated(V.S, In, Pick, Params())));
    return mean(Scores);
  }

  /// Mean score with the default parameters (the baseline row).
  double baselineScore() {
    std::vector<double> Scores;
    for (const Input &In : TestSet)
      Scores.push_back(Program::score(In, Program::run(In, Params())));
    return mean(Scores);
  }

  /// Mean program execution seconds per input, with (autonomized) and
  /// without (plain) the primitives.
  double autonomizedExecSeconds(analysis::SlPick Pick) {
    Session &S = variant(Pick).S;
    Timer T;
    for (const Input &In : TestSet)
      runAnnotated(S, In, Pick, Params());
    return T.seconds() / static_cast<double>(TestSet.size());
  }
  double baselineExecSeconds() {
    Timer T;
    for (const Input &In : TestSet)
      Program::run(In, Params());
    return T.seconds() / static_cast<double>(TestSet.size());
  }

  /// Table 2 accounting for the last train() of \p Pick.
  size_t traceBytes(analysis::SlPick Pick) const {
    return Variants[static_cast<size_t>(Pick)].TraceBytes;
  }
  size_t modelBytes(analysis::SlPick Pick) const {
    return Variants[static_cast<size_t>(Pick)].ModelBytes;
  }

private:
  /// One feature version: its own model plane and execution.
  struct Variant {
    Engine Eng;
    Session S{Eng, Mode::TR};
    size_t TraceBytes = 0;
    size_t ModelBytes = 0;
  };

  /// One run of the annotated program on \p In in session \p S.
  typename Program::Output runAnnotated(Session &S, const Input &In,
                                        analysis::SlPick Pick,
                                        const Params &P) {
    S.config(Cfg);
    return Program::run(In, Program::annotate(S, In, Pick, P));
  }

  Variant &variant(analysis::SlPick Pick) {
    return Variants[static_cast<size_t>(Pick)];
  }

  ModelConfig Cfg;
  std::vector<Input> TrainSet;
  std::vector<Params> TrainOracle;
  std::vector<Input> TestSet;
  std::array<Variant, 3> Variants;
};

} // namespace apps
} // namespace au

#endif // AU_APPS_COMMON_SLEXPERIMENT_H
