//===- tests/SemanticsTest.cpp - Tests for the executable semantics ------===//
//
// Each test exercises one rule of Fig. 8 plus cross-rule properties
// (mode sensitivity, checkpoint isolation of theta, stuckness).
//
//===----------------------------------------------------------------------===//

#include "semantics/Interp.h"

#include <gtest/gtest.h>

using namespace au;
using namespace au::semantics;

namespace {
ConfigStmt config(std::string Name) {
  ConfigStmt C;
  C.ModelName = std::move(Name);
  C.Layers = {4, 3};
  return C;
}

Machine trMachine() {
  Machine M;
  M.Omega = Mode::TR;
  return M;
}
} // namespace

//===----------------------------------------------------------------------===//
// Rule ASSIGN
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, AssignUpdatesSigma) {
  Machine M = trMachine();
  EXPECT_TRUE(step(M, AssignStmt{"x", {1.0f, 2.0f}}));
  ASSERT_EQ(M.Sigma["x"].size(), 2u);
  EXPECT_FLOAT_EQ(M.Sigma["x"][1], 2.0f);
}

//===----------------------------------------------------------------------===//
// Rules CONFIG-TRAIN / CONFIG-TEST
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, ConfigTrainBuildsFreshModel) {
  Machine M = trMachine();
  EXPECT_TRUE(step(M, config("m")));
  ASSERT_TRUE(M.Theta.count("m"));
  EXPECT_FALSE(M.Theta["m"].empty());
}

TEST(SemanticsTest, ConfigIsNoopWhenModelExists) {
  Machine M = trMachine();
  step(M, config("m"));
  std::vector<float> Before = M.Theta["m"];
  ConfigStmt Other = config("m");
  Other.Layers = {9, 9, 9}; // Different config must not rebuild.
  EXPECT_TRUE(step(M, Other));
  EXPECT_EQ(M.Theta["m"], Before);
}

TEST(SemanticsTest, ConfigTestLoadsSavedModel) {
  Machine M;
  M.Omega = Mode::TS;
  M.SavedModels["m"] = {2.0f, 0.5f, 0.25f};
  EXPECT_TRUE(step(M, config("m")));
  EXPECT_EQ(M.Theta["m"], M.SavedModels["m"]);
}

TEST(SemanticsTest, ConfigTestStuckWithoutSavedModel) {
  Machine M;
  M.Omega = Mode::TS;
  EXPECT_FALSE(step(M, config("m")));
  EXPECT_TRUE(M.Theta.empty());
}

//===----------------------------------------------------------------------===//
// Rule EXTRACT
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, ExtractAppendsPrefixOfVariable) {
  Machine M = trMachine();
  step(M, AssignStmt{"size", {2.0f}});
  step(M, AssignStmt{"x", {7.0f, 8.0f, 9.0f}});
  EXPECT_TRUE(step(M, ExtractStmt{"ext", "size", "x"}));
  ASSERT_EQ(M.Pi.get("ext").size(), 2u);
  EXPECT_FLOAT_EQ(M.Pi.get("ext")[0], 7.0f);
  // Extract again: the rule concatenates.
  EXPECT_TRUE(step(M, ExtractStmt{"ext", "size", "x"}));
  EXPECT_EQ(M.Pi.get("ext").size(), 4u);
}

TEST(SemanticsTest, ExtractStuckOnMissingSizeOrVariable) {
  Machine M = trMachine();
  EXPECT_FALSE(step(M, ExtractStmt{"ext", "size", "x"}));
  step(M, AssignStmt{"size", {3.0f}});
  step(M, AssignStmt{"x", {1.0f}}); // Shorter than size.
  EXPECT_FALSE(step(M, ExtractStmt{"ext", "size", "x"}));
}

//===----------------------------------------------------------------------===//
// Rules TRAIN / TEST (au_NN)
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, NnTrainUpdatesThetaAndPi) {
  Machine M = trMachine();
  step(M, config("m"));
  step(M, AssignStmt{"size", {2.0f}});
  step(M, AssignStmt{"x", {0.5f, 0.25f}});
  step(M, ExtractStmt{"ext", "size", "x"});

  std::vector<float> ThetaBefore = M.Theta["m"];
  EXPECT_TRUE(step(M, NNStmt{"m", "ext", "wb"}));
  // pi[wbName] now holds the model output; pi[extName] is reset to bottom.
  EXPECT_FALSE(M.Pi.get("wb").empty());
  EXPECT_TRUE(M.Pi.get("ext").empty());
  // First TRAIN: gradient of empty previous output is zero, so theta is
  // unchanged; run again with outputs present and theta must move.
  EXPECT_EQ(M.Theta["m"], ThetaBefore);
  step(M, ExtractStmt{"ext", "size", "x"});
  EXPECT_TRUE(step(M, NNStmt{"m", "ext", "wb"}));
  EXPECT_NE(M.Theta["m"], ThetaBefore);
}

TEST(SemanticsTest, NnTestLeavesThetaUntouched) {
  Machine M;
  M.Omega = Mode::TS;
  M.SavedModels["m"] = buildModel(config("m"));
  step(M, config("m"));
  step(M, AssignStmt{"size", {1.0f}});
  step(M, AssignStmt{"x", {0.7f}});
  step(M, ExtractStmt{"ext", "size", "x"});
  std::vector<float> Before = M.Theta["m"];
  EXPECT_TRUE(step(M, NNStmt{"m", "ext", "wb"}));
  step(M, ExtractStmt{"ext", "size", "x"});
  EXPECT_TRUE(step(M, NNStmt{"m", "ext", "wb"}));
  EXPECT_EQ(M.Theta["m"], Before);
  EXPECT_FALSE(M.Pi.get("wb").empty());
}

TEST(SemanticsTest, NnStuckOnUnconfiguredModel) {
  Machine M = trMachine();
  EXPECT_FALSE(step(M, NNStmt{"ghost", "ext", "wb"}));
}

TEST(SemanticsTest, NnOutputArityMatchesLastLayer) {
  Machine M = trMachine();
  step(M, config("m")); // Layers {4, 3} -> 3 outputs.
  step(M, AssignStmt{"size", {1.0f}});
  step(M, AssignStmt{"x", {1.0f}});
  step(M, ExtractStmt{"ext", "size", "x"});
  step(M, NNStmt{"m", "ext", "wb"});
  EXPECT_EQ(M.Pi.get("wb").size(), 3u);
}

//===----------------------------------------------------------------------===//
// Rule WRITE-BACK
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, WriteBackCopiesPiIntoSigma) {
  Machine M = trMachine();
  M.Pi.set("wb", {3.0f, 4.0f});
  step(M, AssignStmt{"size", {2.0f}});
  EXPECT_TRUE(step(M, WriteBackStmt{"wb", "size", "y"}));
  ASSERT_EQ(M.Sigma["y"].size(), 2u);
  EXPECT_FLOAT_EQ(M.Sigma["y"][0], 3.0f);
  EXPECT_FLOAT_EQ(M.Sigma["y"][1], 4.0f);
}

TEST(SemanticsTest, WriteBackStuckWhenPiTooShort) {
  Machine M = trMachine();
  M.Pi.set("wb", {3.0f});
  step(M, AssignStmt{"size", {2.0f}});
  EXPECT_FALSE(step(M, WriteBackStmt{"wb", "size", "y"}));
}

//===----------------------------------------------------------------------===//
// Rule SERIALIZE
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, SerializeConcatenates) {
  Machine M = trMachine();
  M.Pi.set("a", {1.0f});
  M.Pi.set("b", {2.0f, 3.0f});
  EXPECT_TRUE(step(M, SerializeStmt{"a", "b"}));
  ASSERT_EQ(M.Pi.get("ab").size(), 3u);
  EXPECT_FLOAT_EQ(M.Pi.get("ab")[2], 3.0f);
}

//===----------------------------------------------------------------------===//
// Rules CHECKPOINT / RESTORE
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, CheckpointRestoreRollsBackSigmaAndPi) {
  Machine M = trMachine();
  step(M, AssignStmt{"x", {1.0f}});
  M.Pi.set("t", {5.0f});
  EXPECT_TRUE(step(M, CheckpointStmt{}));
  step(M, AssignStmt{"x", {9.0f}});
  M.Pi.set("t", {6.0f, 7.0f});
  EXPECT_TRUE(step(M, RestoreStmt{}));
  EXPECT_FLOAT_EQ(M.Sigma["x"][0], 1.0f);
  EXPECT_EQ(M.Pi.get("t").size(), 1u);
}

TEST(SemanticsTest, RestorePreservesTheta) {
  // The paper's key property: the model keeps learning across rollbacks.
  Machine M = trMachine();
  step(M, config("m"));
  step(M, AssignStmt{"size", {1.0f}});
  step(M, AssignStmt{"x", {0.3f}});
  step(M, CheckpointStmt{});
  // Two TRAIN steps move theta.
  step(M, ExtractStmt{"ext", "size", "x"});
  step(M, NNStmt{"m", "ext", "wb"});
  step(M, ExtractStmt{"ext", "size", "x"});
  step(M, NNStmt{"m", "ext", "wb"});
  std::vector<float> Trained = M.Theta["m"];
  EXPECT_TRUE(step(M, RestoreStmt{}));
  EXPECT_EQ(M.Theta["m"], Trained);
  EXPECT_TRUE(M.Pi.get("wb").empty()); // pi rolled back.
}

TEST(SemanticsTest, RestoreStuckWithoutCheckpoint) {
  Machine M = trMachine();
  EXPECT_FALSE(step(M, RestoreStmt{}));
}

TEST(SemanticsTest, RestoreIsRepeatable) {
  Machine M = trMachine();
  step(M, AssignStmt{"x", {1.0f}});
  step(M, CheckpointStmt{});
  for (int I = 0; I < 3; ++I) {
    step(M, AssignStmt{"x", {static_cast<float>(I + 10)}});
    EXPECT_TRUE(step(M, RestoreStmt{}));
    EXPECT_FLOAT_EQ(M.Sigma["x"][0], 1.0f);
  }
}

//===----------------------------------------------------------------------===//
// Whole programs and properties
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, RunExecutesUntilStuck) {
  Machine M = trMachine();
  Program P = {
      AssignStmt{"size", {1.0f}},
      AssignStmt{"x", {2.0f}},
      config("m"),
      ExtractStmt{"ext", "size", "x"},
      NNStmt{"m", "ext", "wb"},
      RestoreStmt{}, // Stuck: no checkpoint.
      AssignStmt{"never", {0.0f}},
  };
  EXPECT_EQ(run(M, P), 5u);
  EXPECT_FALSE(M.Sigma.count("never"));
}

TEST(SemanticsTest, SkipAlwaysSteps) {
  Machine M = trMachine();
  EXPECT_TRUE(step(M, SkipStmt{}));
}

TEST(SemanticsTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    Machine M = trMachine();
    Program P = {
        AssignStmt{"size", {2.0f}}, AssignStmt{"x", {0.1f, 0.9f}},
        config("m"),                ExtractStmt{"ext", "size", "x"},
        NNStmt{"m", "ext", "wb"},   ExtractStmt{"ext", "size", "x"},
        NNStmt{"m", "ext", "wb"},
    };
    run(M, P);
    return M.Pi.get("wb");
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST(SemanticsTest, TrainAndTestAgreeOnStorePlumbing) {
  // Regardless of mode, au_NN must fill pi[wb] and reset pi[ext]. Only
  // theta's evolution differs.
  auto Plumb = [](Mode Omega) {
    Machine M;
    M.Omega = Omega;
    M.SavedModels["m"] = buildModel(config("m"));
    Program P = {
        AssignStmt{"size", {1.0f}},
        AssignStmt{"x", {0.4f}},
        config("m"),
        ExtractStmt{"ext", "size", "x"},
        NNStmt{"m", "ext", "wb"},
    };
    run(M, P);
    return std::make_pair(M.Pi.get("wb").size(), M.Pi.get("ext").size());
  };
  EXPECT_EQ(Plumb(Mode::TR), Plumb(Mode::TS));
}

TEST(SemanticsTest, BuildModelDeterministicPerConfig) {
  EXPECT_EQ(buildModel(config("m")), buildModel(config("m")));
  EXPECT_NE(buildModel(config("m")), buildModel(config("other")));
}

TEST(SemanticsTest, RunModelRespectsArityTag) {
  std::vector<float> Params = {2.0f, 0.1f, 0.2f, 0.3f};
  std::vector<float> Out = runModel(Params, {1.0f, 1.0f});
  EXPECT_EQ(Out.size(), 2u);
  for (float V : Out) {
    EXPECT_GE(V, -1.0f);
    EXPECT_LE(V, 1.0f);
  }
}
