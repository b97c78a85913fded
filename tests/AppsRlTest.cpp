//===- tests/AppsRlTest.cpp - Tests for the RL benchmark programs --------===//

#include "analysis/FeatureExtraction.h"
#include "apps/arkanoid/Arkanoid.h"
#include "apps/common/RlHarness.h"
#include "apps/breakout/Breakout.h"
#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "apps/torcs/Torcs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace au;
using namespace au::apps;

//===----------------------------------------------------------------------===//
// Shared parameterized env-contract tests
//===----------------------------------------------------------------------===//

namespace {
std::unique_ptr<GameEnv> makeEnv(const std::string &Name) {
  if (Name == "flappybird")
    return std::make_unique<FlappyEnv>();
  if (Name == "mario")
    return std::make_unique<MarioEnv>();
  if (Name == "arkanoid")
    return std::make_unique<ArkanoidEnv>();
  if (Name == "breakout")
    return std::make_unique<BreakoutEnv>();
  if (Name == "torcs")
    return std::make_unique<TorcsEnv>();
  return nullptr;
}
} // namespace

class EnvContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EnvContractTest, ResetIsDeterministic) {
  auto A = makeEnv(GetParam());
  auto B = makeEnv(GetParam());
  A->reset(0xABC00);
  B->reset(0xABC00);
  std::vector<Feature> FA = A->features();
  std::vector<Feature> FB = B->features();
  ASSERT_EQ(FA.size(), FB.size());
  for (size_t I = 0; I != FA.size(); ++I) {
    EXPECT_EQ(FA[I].first, FB[I].first);
    EXPECT_FLOAT_EQ(FA[I].second, FB[I].second);
  }
}

TEST_P(EnvContractTest, StepsAreDeterministicGivenActions) {
  auto A = makeEnv(GetParam());
  auto B = makeEnv(GetParam());
  A->reset(0x1200);
  B->reset(0x1200);
  Rng R(5);
  for (int I = 0; I < 50 && !A->terminal(); ++I) {
    int Action = static_cast<int>(R.uniformInt(A->numActions()));
    float RA = A->step(Action);
    float RB = B->step(Action);
    EXPECT_FLOAT_EQ(RA, RB);
  }
  EXPECT_DOUBLE_EQ(A->progress(), B->progress());
}

TEST_P(EnvContractTest, FeaturesAreStableAndFinite) {
  auto E = makeEnv(GetParam());
  E->reset(0x3400);
  std::vector<Feature> First = E->features();
  EXPECT_GE(First.size(), 10u);
  Rng R(6);
  for (int I = 0; I < 40 && !E->terminal(); ++I) {
    E->step(static_cast<int>(R.uniformInt(E->numActions())));
    std::vector<Feature> Fs = E->features();
    ASSERT_EQ(Fs.size(), First.size());
    for (size_t K = 0; K != Fs.size(); ++K) {
      EXPECT_EQ(Fs[K].first, First[K].first) << "feature order changed";
      EXPECT_TRUE(std::isfinite(Fs[K].second)) << Fs[K].first;
    }
  }
}

TEST_P(EnvContractTest, RenderFrameHasRequestedSizeAndContent) {
  auto E = makeEnv(GetParam());
  E->reset(0x5600);
  Image F = E->renderFrame(20);
  EXPECT_EQ(F.width(), 20);
  EXPECT_EQ(F.height(), 20);
  float Sum = 0.0f;
  for (float P : F.data()) {
    EXPECT_GE(P, 0.0f);
    EXPECT_LE(P, 1.0f);
    Sum += P;
  }
  EXPECT_GT(Sum, 0.0f) << "frame should not be empty";
}

TEST_P(EnvContractTest, SaveLoadRoundTripsExactly) {
  auto E = makeEnv(GetParam());
  E->reset(0x7800);
  Rng R(7);
  for (int I = 0; I < 15 && !E->terminal(); ++I)
    E->step(static_cast<int>(R.uniformInt(E->numActions())));
  std::vector<uint8_t> Saved;
  E->saveState(Saved);
  std::vector<Feature> Before = E->features();
  double ProgressBefore = E->progress();

  // Drive the env further, then roll back.
  for (int I = 0; I < 15 && !E->terminal(); ++I)
    E->step(static_cast<int>(R.uniformInt(E->numActions())));
  E->loadState(Saved);

  std::vector<Feature> After = E->features();
  ASSERT_EQ(Before.size(), After.size());
  for (size_t I = 0; I != Before.size(); ++I)
    EXPECT_FLOAT_EQ(Before[I].second, After[I].second) << Before[I].first;
  EXPECT_DOUBLE_EQ(E->progress(), ProgressBefore);
}

TEST_P(EnvContractTest, HeuristicBeatsRandom) {
  auto E = makeEnv(GetParam());
  Rng R(8);
  double HeuristicTotal = 0.0, RandomTotal = 0.0;
  for (uint64_t Ep = 0; Ep < 6; ++Ep) {
    E->reset((0x9A00) | Ep);
    int Steps = 0;
    while (!E->terminal() && Steps++ < 600)
      E->step(E->heuristicAction(R));
    HeuristicTotal += E->progress();
    E->reset((0x9A00) | Ep);
    Steps = 0;
    while (!E->terminal() && Steps++ < 600)
      E->step(static_cast<int>(R.uniformInt(E->numActions())));
    RandomTotal += E->progress();
  }
  EXPECT_GT(HeuristicTotal, RandomTotal);
}

TEST_P(EnvContractTest, ProfileYieldsUsableAlg2Features) {
  auto E = makeEnv(GetParam());
  analysis::RlExtractionStats Stats;
  std::vector<std::string> Features =
      selectRlFeatures(*E, /*Epsilon1=*/1e-6, /*Epsilon2=*/1e-4,
                       /*ProfileSteps=*/120, &Stats);
  ASSERT_FALSE(Features.empty());
  EXPECT_GT(Stats.NumCandidates, static_cast<int>(Features.size()))
      << "pruning should remove aliases/constants";
  // Every selected feature is readable from the live feature vector.
  E->reset(0xBC00);
  std::vector<Feature> Live = E->features();
  for (const std::string &Name : Features) {
    bool Found = std::any_of(
        Live.begin(), Live.end(),
        [&](const Feature &F) { return F.first == Name; });
    EXPECT_TRUE(Found) << Name << " not extractable at runtime";
  }
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, EnvContractTest,
                         ::testing::Values("flappybird", "mario", "arkanoid",
                                           "breakout", "torcs"));

//===----------------------------------------------------------------------===//
// Env-specific behaviors
//===----------------------------------------------------------------------===//

TEST(FlappyTest, FallsToDeathWithoutFlapping) {
  FlappyEnv E;
  E.reset(0x100);
  int Steps = 0;
  while (!E.terminal() && Steps++ < 100)
    E.step(0);
  EXPECT_TRUE(E.terminal());
  EXPECT_FALSE(E.success());
}

TEST(FlappyTest, HeuristicClearsMostOfTheCourse) {
  FlappyEnv E;
  Rng R(9);
  E.reset(0x100);
  int Steps = 0;
  while (!E.terminal() && Steps++ < 500)
    E.step(E.heuristicAction(R));
  EXPECT_GT(E.progress(), 0.5);
}

TEST(MarioTest, RewardShapeMatchesFig2) {
  MarioEnv E;
  E.reset(0x200);
  // Moving right from the start yields the +2 forward reward.
  float R = E.step(2);
  EXPECT_GE(R, 2.0f);
  // Standing still yields -1.
  float R2 = E.step(0);
  EXPECT_LE(R2, -1.0f + 1e-5);
}

TEST(MarioTest, CoverageAccumulatesAcrossEpisodes) {
  MarioEnv E;
  E.resetCoverage();
  E.reset(0x300);
  Rng R(10);
  for (int I = 0; I < 50 && !E.terminal(); ++I)
    E.step(static_cast<int>(R.uniformInt(5)));
  int Cov1 = E.coverageCount();
  EXPECT_GT(Cov1, 0);
  E.reset(0x301);
  for (int I = 0; I < 50 && !E.terminal(); ++I)
    E.step(static_cast<int>(R.uniformInt(5)));
  EXPECT_GE(E.coverageCount(), Cov1) << "coverage is cumulative like gcov";
}

TEST(MarioTest, CoverageRewardFiresOnNewBranches) {
  MarioEnv E;
  E.resetCoverage();
  E.setCoverageReward(true);
  E.reset(0x400);
  // The very first step covers fresh branches -> big bonus.
  float R = E.step(2);
  EXPECT_GE(R, 30.0f);
}

TEST(MarioTest, CoverageSurvivesCheckpointRestore) {
  // The coverage map models gcov, which lives outside the rolled-back
  // process image.
  MarioEnv E;
  E.resetCoverage();
  E.reset(0x500);
  std::vector<uint8_t> Snap;
  E.saveState(Snap);
  Rng R(11);
  for (int I = 0; I < 30 && !E.terminal(); ++I)
    E.step(static_cast<int>(R.uniformInt(5)));
  int Cov = E.coverageCount();
  E.loadState(Snap);
  EXPECT_EQ(E.coverageCount(), Cov);
}

TEST(MarioTest, HeuristicOftenReachesTheFlag) {
  MarioEnv E;
  Rng R(12);
  int Successes = 0;
  for (uint64_t Ep = 0; Ep < 5; ++Ep) {
    E.reset((0x600) | Ep);
    int Steps = 0;
    while (!E.terminal() && Steps++ < 800)
      E.step(E.heuristicAction(R));
    Successes += E.success();
  }
  EXPECT_GE(Successes, 3);
}

TEST(ArkanoidTest, MissingBallEndsEpisode) {
  ArkanoidEnv E;
  E.reset(0x700);
  // Park the paddle at the left wall and wait.
  int Steps = 0;
  while (!E.terminal() && Steps++ < 400)
    E.step(0);
  EXPECT_TRUE(E.terminal());
}

TEST(ArkanoidTest, HeuristicClearsBricks) {
  ArkanoidEnv E;
  Rng R(13);
  E.reset(0x800);
  int Steps = 0;
  while (!E.terminal() && Steps++ < 2000)
    E.step(E.heuristicAction(R));
  EXPECT_GT(E.cleared(), 5);
}

TEST(BreakoutTest, BallSpeedsUpWithHits) {
  BreakoutEnv E;
  Rng R(14);
  E.reset(0x900);
  float SpeedBefore = featureValue(E.features(), "speedScale");
  int Steps = 0;
  while (E.bricksHit() < 3 && !E.terminal() && Steps++ < 2000)
    E.step(E.heuristicAction(R));
  if (E.bricksHit() >= 3) {
    EXPECT_GT(featureValue(E.features(), "speedScale"), SpeedBefore);
  }
}

TEST(TorcsTest, StraightSteeringOnStraightTrackSurvives) {
  TorcsEnv E;
  E.reset(0xA00);
  Rng R(15);
  int Steps = 0;
  while (!E.terminal() && Steps++ < 600)
    E.step(E.heuristicAction(R));
  EXPECT_GT(E.progress(), 0.5);
}

TEST(TorcsTest, ConstantSteeringBumpsTheWall) {
  TorcsEnv E;
  E.reset(0xB00);
  int Steps = 0;
  while (!E.terminal() && Steps++ < 300)
    E.step(0); // Hard left forever.
  EXPECT_TRUE(E.terminal());
  EXPECT_FALSE(E.success());
}

TEST(TorcsTest, RollAliasAndAccXArePrunedByAlg2) {
  TorcsEnv E;
  analysis::Tracer T;
  E.profile(T, 200);
  analysis::RlExtractionStats Stats;
  std::vector<std::string> F = analysis::extractRlFeaturesCombined(
      T, E.targetVariables(), /*Epsilon1=*/0.05, /*Epsilon2=*/0.01, &Stats);
  // Fig. 15: roll duplicates posX; Fig. 16: accX is unchanging.
  EXPECT_EQ(std::count(F.begin(), F.end(), "roll"), 0);
  EXPECT_EQ(std::count(F.begin(), F.end(), "accX"), 0);
  EXPECT_EQ(std::count(F.begin(), F.end(), "posX"), 1);
}

TEST(TorcsTest, ManualFeatureNamesAreLive) {
  TorcsEnv E;
  E.reset(0xC00);
  std::vector<Feature> Live = E.features();
  for (const std::string &Name : TorcsEnv::manualFeatureNames())
    EXPECT_NO_FATAL_FAILURE(featureValue(Live, Name));
}
