//===- tests/RobustnessTest.cpp - Failure-injection and edge cases -------===//
//
// Robustness coverage: corrupt/truncated model files, degenerate
// detector/phylogeny/DTW inputs, extreme parameter values, and physics
// edge cases of the game environments.
//
//===----------------------------------------------------------------------===//

#include "OneLane.h"
#include "apps/arkanoid/Arkanoid.h"
#include "apps/breakout/Breakout.h"
#include "apps/canny/Canny.h"
#include "apps/phylip/Phylip.h"
#include "apps/sphinx/Sphinx.h"
#include "apps/torcs/Torcs.h"
#include "core/Model.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <vector>

using namespace au;
using namespace au::apps;

//===----------------------------------------------------------------------===//
// Model persistence failure injection
//===----------------------------------------------------------------------===//

namespace {
ModelConfig cfg(std::string Name, Algorithm A = Algorithm::AdamOpt) {
  ModelConfig C;
  C.Name = std::move(Name);
  C.Algo = A;
  C.HiddenLayers = {6};
  C.Seed = 11;
  return C;
}

/// Trains \p M as a 1 -> 6 -> 1 SL model of the identity.
void trainIdentity(SlModel &M) {
  Rng R(12);
  for (int I = 0; I < 30; ++I) {
    float X = static_cast<float>(R.uniform(0, 1));
    M.addSample({X}, {X}, {{"Y", 1}});
  }
  M.train(5, 8);
}

/// Writes a trained 1 -> 6 -> 1 SL model to \p File in the test temp
/// directory and returns its path. Each test names its own file, so tests
/// running in parallel never rewrite each other's model.
std::string writeTrainedModel(const std::string &File) {
  SlModel M(cfg("m"));
  trainIdentity(M);
  std::string Path = ::testing::TempDir() + File;
  EXPECT_TRUE(M.save(Path));
  return Path;
}

/// Cuts the file at \p Path down to its first \p Bytes bytes.
void truncateFile(const std::string &Path, size_t Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_TRUE(F);
  std::vector<char> Buf(Bytes);
  size_t N = std::fread(Buf.data(), 1, Bytes, F);
  std::fclose(F);
  ASSERT_EQ(N, Bytes);
  F = std::fopen(Path.c_str(), "wb");
  ASSERT_TRUE(F);
  std::fwrite(Buf.data(), 1, N, F);
  std::fclose(F);
}

/// Overwrites the 4 bytes at \p Offset of the file at \p Path with \p V.
void patchI32(const std::string &Path, long Offset, int32_t V) {
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_TRUE(F);
  ASSERT_EQ(std::fseek(F, Offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&V, sizeof(V), 1, F), 1u);
  std::fclose(F);
}

/// Byte offsets of the header fields of the model writeTrainedModel saves
/// (u32 magic, kind, type; i32 frame side, channels, input size; u32 hidden
/// count; i32 width; i32 output size; u32 output count; the output spec
/// "Y": u32 name length, one byte of name, i32 size).
constexpr long TypeOffset = 8, InSizeOffset = 20, HiddenWidthOffset = 28,
               OutSpecSizeOffset = 45;

/// Patches one header field of a freshly saved model and expects the load
/// to fail, and to fail fast: the size checks run before any allocation.
void expectPatchedModelRejected(const std::string &File, long Offset,
                                int32_t V) {
  std::string Path = writeTrainedModel(File);
  patchI32(Path, Offset, V);
  SlModel M(cfg("m"));
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(M.load(Path));
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(2));
  std::remove(Path.c_str());
}
} // namespace

TEST(PersistenceRobustness, TruncatedFileRejected) {
  std::string Path = writeTrainedModel("au_robust_truncated.aumodel");
  // Truncate to a prefix that still contains a valid magic.
  truncateFile(Path, 64);

  SlModel M(cfg("m"));
  EXPECT_FALSE(M.load(Path));
  std::remove(Path.c_str());
}

// A file whose header parses but whose parameters are cut short (80 bytes
// of a 1 -> 6 -> 1 model) must fail to load and leave the trained model
// serving exactly as before.
TEST(PersistenceRobustness, FailedLoadLeavesSlModelUnchanged) {
  SlModel M(cfg("m"));
  trainIdentity(M);
  std::string Path = ::testing::TempDir() + "au_robust_sl_keep.aumodel";
  ASSERT_TRUE(M.save(Path));
  truncateFile(Path, 80);
  std::vector<float> Before = M.predict({0.3f});
  EXPECT_FALSE(M.load(Path));
  EXPECT_EQ(M.predict({0.3f}), Before);
  std::remove(Path.c_str());
}

TEST(PersistenceRobustness, FailedLoadLeavesRlModelUnchanged) {
  RlModel M(cfg("q", Algorithm::QLearn));
  nn::QConfig Q;
  Q.WarmupSteps = 8;
  Q.BatchSize = 4;
  M.setQConfig(Q);
  Rng R(5);
  for (int I = 0; I < 40; ++I)
    onelane::step(M, {static_cast<float>(R.uniform(0, 1))},
                  static_cast<float>(R.uniform(-1, 1)), I % 10 == 9,
                  {"action", 2}, /*Learning=*/true);
  std::string Path = ::testing::TempDir() + "au_robust_rl_keep.aumodel";
  ASSERT_TRUE(M.save(Path));
  truncateFile(Path, 80);
  std::vector<float> Before = M.qValues({0.3f});
  EXPECT_FALSE(M.load(Path));
  EXPECT_EQ(M.qValues({0.3f}), Before);
  std::remove(Path.c_str());
}

TEST(PersistenceRobustness, WrongKindRejected) {
  std::string Path = writeTrainedModel("au_robust_kind.aumodel");
  // Supervised on disk.
  RlModel M(cfg("m", Algorithm::QLearn));
  EXPECT_FALSE(M.load(Path));
  std::remove(Path.c_str());
}

TEST(PersistenceRobustness, NegativeInputSizeRejected) {
  expectPatchedModelRejected("au_robust_in.aumodel", InSizeOffset, -1);
}

TEST(PersistenceRobustness, NegativeHiddenWidthRejected) {
  expectPatchedModelRejected("au_robust_neg_width.aumodel", HiddenWidthOffset,
                             -3);
}

TEST(PersistenceRobustness, HugeHiddenWidthRejected) {
  // 2e9 hidden units: ~6e9 parameters, over the cap long before allocating.
  expectPatchedModelRejected("au_robust_huge_width.aumodel",
                             HiddenWidthOffset, 2000000000);
}

TEST(PersistenceRobustness, OutputSpecWiderThanNetworkRejected) {
  // Declares 5 output values for the 1-output network.
  expectPatchedModelRejected("au_robust_out.aumodel", OutSpecSizeOffset, 5);
}

TEST(PersistenceRobustness, CnnGeometryMismatchRejected) {
  // Retags the DNN as a CNN: its frame side 0 cannot cover the 1 input.
  expectPatchedModelRejected("au_robust_cnn.aumodel", TypeOffset, 1);
}

TEST(PersistenceRobustness, NormalizationLengthMismatchRejected) {
  // The file ends with four normalization vectors of one float each (u32
  // length + f32); the last one, the output scale, then claims 0 values.
  std::string Path = writeTrainedModel("au_robust_norm.aumodel");
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_TRUE(F);
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  patchI32(Path, Size - 8, 0);
  SlModel M(cfg("m"));
  EXPECT_FALSE(M.load(Path));
  std::remove(Path.c_str());
}

TEST(PersistenceRobustness, EmptyFileRejected) {
  std::string Path = "/tmp/au_robust_empty.aumodel";
  std::fclose(std::fopen(Path.c_str(), "wb"));
  SlModel M(cfg("m"));
  EXPECT_FALSE(M.load(Path));
  std::remove(Path.c_str());
}

TEST(PersistenceRobustness, MissingFileRejected) {
  SlModel M(cfg("m"));
  EXPECT_FALSE(M.load("/tmp/definitely_absent.aumodel"));
}

TEST(PersistenceRobustness, UnbuiltModelRefusesToSave) {
  SlModel M(cfg("m"));
  EXPECT_FALSE(M.save("/tmp/au_unbuilt.aumodel"));
}

//===----------------------------------------------------------------------===//
// Detector edge cases
//===----------------------------------------------------------------------===//

TEST(CannyRobustness, ExtremeParametersStaySane) {
  CannyScene S = makeCannyScene(77);
  // Degenerate thresholds must not crash or mark everything.
  Image AllLoose = cannyDetect(S.Input, {0.6, 0.01, 0.01});
  Image AllStrict = cannyDetect(S.Input, {3.0, 0.99, 0.999});
  int Loose = 0, Strict = 0;
  for (float P : AllLoose.data())
    Loose += P > 0.5f;
  for (float P : AllStrict.data())
    Strict += P > 0.5f;
  EXPECT_GE(Loose, Strict);
  EXPECT_LT(Loose, static_cast<int>(AllLoose.size())); // Not everything.
}

TEST(CannyRobustness, TinyImageHandled) {
  Image Tiny(9, 9, 0.5f);
  Tiny.at(4, 4) = 1.0f;
  Image Edges = cannyDetect(Tiny, CannyParams());
  EXPECT_EQ(Edges.width(), 9);
}

//===----------------------------------------------------------------------===//
// Phylogeny edge cases
//===----------------------------------------------------------------------===//

TEST(PhylipRobustness, SaturatedDistancesStillBuildATree) {
  PhylipDataset D = makePhylipDataset(88);
  // Alpha at the extreme low end inflates distances toward saturation.
  std::vector<int> Tree =
      neighborJoin(phylipDistances(D, {0.25, 1.0, 0.9}), 12);
  // Must still be a well-formed tree over 12 leaves.
  int Roots = 0;
  for (int Node = 0; Node < static_cast<int>(Tree.size()); ++Node)
    Roots += Tree[Node] < 0;
  EXPECT_EQ(Roots, 1);
  EXPECT_LE(robinsonFoulds(Tree, D.TrueParent, 12), 1.0);
}

TEST(PhylipRobustness, AllGapColumnsExcludedGracefully) {
  PhylipDataset D = makePhylipDataset(89);
  // Force every column over the gap threshold: distances fall back to the
  // saturated value but nothing crashes.
  PhylipParams P;
  P.GapThresh = -1.0; // Every column excluded.
  std::vector<double> Dist = phylipDistances(D, P);
  for (int A = 0; A < 12; ++A)
    for (int B = 0; B < 12; ++B)
      if (A != B) {
        EXPECT_GT(Dist[A * 12 + B], 0.0);
      }
}

//===----------------------------------------------------------------------===//
// DTW edge cases
//===----------------------------------------------------------------------===//

TEST(SphinxRobustness, ZeroBeamStillReturnsAWord) {
  SphinxUtterance U = makeSphinxUtterance(91);
  SphinxResult R = sphinxRecognize(U, {1e-6, 0.0});
  EXPECT_GE(R.Word, 0);
  EXPECT_LT(R.Word, SphinxVocab);
}

TEST(SphinxRobustness, HugeFloorTrimsToMinimumLength) {
  SphinxUtterance U = makeSphinxUtterance(92);
  // A floor far above any signal trims to the 4-frame minimum, not to
  // nothing.
  SphinxResult R = sphinxRecognize(U, {6.0, 100.0});
  EXPECT_GE(R.Word, 0);
}

//===----------------------------------------------------------------------===//
// Game-physics edge cases
//===----------------------------------------------------------------------===//

TEST(ArkanoidPhysics, BallReflectsOffSideWalls) {
  ArkanoidEnv E;
  E.reset(0xE00);
  // Drive until the ball has touched both side regions at least once; the
  // x coordinate must always stay inside the world.
  Rng R(13);
  for (int I = 0; I < 500 && !E.terminal(); ++I) {
    E.step(E.heuristicAction(R));
    float Bx = featureValue(E.features(), "ballX");
    EXPECT_GE(Bx, 0.0f);
    EXPECT_LE(Bx, 1.0f);
  }
}

TEST(BreakoutPhysics, SpeedScaleIsMonotoneAndBounded) {
  BreakoutEnv E;
  E.reset(0xF00);
  Rng R(14);
  float Prev = featureValue(E.features(), "speedScale");
  for (int I = 0; I < 1500 && !E.terminal(); ++I) {
    E.step(E.heuristicAction(R));
    float Cur = featureValue(E.features(), "speedScale");
    EXPECT_GE(Cur, Prev);
    EXPECT_LE(Cur, 1.6f);
    Prev = Cur;
  }
}

TEST(TorcsPhysics, HeadingIsClamped) {
  TorcsEnv E;
  E.reset(0x1100);
  for (int I = 0; I < 40 && !E.terminal(); ++I) {
    E.step(0); // Hard left.
    EXPECT_LE(std::abs(featureValue(E.features(), "angle")), 0.9f);
  }
}

TEST(TorcsPhysics, ProgressIsMonotone) {
  TorcsEnv E;
  E.reset(0x1200);
  Rng R(15);
  double Prev = 0.0;
  for (int I = 0; I < 200 && !E.terminal(); ++I) {
    E.step(E.heuristicAction(R));
    EXPECT_GE(E.progress(), Prev);
    Prev = E.progress();
  }
}
