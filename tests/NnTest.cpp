//===- tests/NnTest.cpp - Unit tests for the NN substrate ----------------===//

#include "OneLane.h"
#include "nn/Gemm.h"
#include "nn/Layers.h"
#include "nn/Loss.h"
#include "nn/Network.h"
#include "nn/Optimizer.h"
#include "nn/QLearner.h"
#include "nn/Supervised.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace au;
using namespace au::nn;

//===----------------------------------------------------------------------===//
// Tensor
//===----------------------------------------------------------------------===//

TEST(TensorTest, ShapeAndFill) {
  Tensor T({2, 3}, 1.5f);
  EXPECT_EQ(T.size(), 6u);
  EXPECT_EQ(T.rank(), 2);
  EXPECT_EQ(T.dim(0), 2);
  for (size_t I = 0; I != T.size(); ++I)
    EXPECT_FLOAT_EQ(T[I], 1.5f);
}

TEST(TensorTest, FromVectorAndArgmax) {
  Tensor T = Tensor::fromVector({0.1f, 0.9f, 0.3f});
  EXPECT_EQ(T.rank(), 1);
  EXPECT_EQ(T.argmax(), 1u);
  EXPECT_FLOAT_EQ(T.maxValue(), 0.9f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor T = Tensor::fromVector({1, 2, 3, 4, 5, 6});
  Tensor R = T.reshaped({2, 3});
  EXPECT_EQ(R.rank(), 2);
  EXPECT_FLOAT_EQ(R[5], 6.0f);
}

TEST(TensorTest, AddAndScale) {
  Tensor A = Tensor::fromVector({1, 2});
  Tensor B = Tensor::fromVector({3, 4});
  A.add(B);
  EXPECT_FLOAT_EQ(A[0], 4.0f);
  A.scale(0.5f);
  EXPECT_FLOAT_EQ(A[1], 3.0f);
}

TEST(TensorTest, At3Indexing) {
  Tensor T({2, 3, 4});
  T.at3(1, 2, 3) = 9.0f;
  EXPECT_FLOAT_EQ(T[1 * 12 + 2 * 4 + 3], 9.0f);
}

//===----------------------------------------------------------------------===//
// Finite-difference gradient checking
//===----------------------------------------------------------------------===//

namespace {

/// Sum-of-outputs loss for gradient checking: d(sum)/d(out_i) = 1.
double sumForward(Network &Net, const Tensor &In) {
  Tensor Out = Net.forward(In);
  double S = 0.0;
  for (size_t I = 0; I != Out.size(); ++I)
    S += Out[I];
  return S;
}

/// Checks every parameter gradient of \p Net against finite differences.
void checkParamGradients(Network &Net, const Tensor &In, double Tol) {
  Tensor Out = Net.forward(In);
  Net.zeroGrads();
  Net.forward(In);
  Net.backward(Tensor(Out.shape(), 1.0f));
  const double Eps = 1e-3;
  for (ParamView P : Net.params())
    for (size_t I = 0; I < P.Count; I += std::max<size_t>(1, P.Count / 13)) {
      float Orig = P.Values[I];
      P.Values[I] = Orig + static_cast<float>(Eps);
      double Plus = sumForward(Net, In);
      P.Values[I] = Orig - static_cast<float>(Eps);
      double Minus = sumForward(Net, In);
      P.Values[I] = Orig;
      double Numeric = (Plus - Minus) / (2 * Eps);
      EXPECT_NEAR(P.Grads[I], Numeric, Tol)
          << "parameter " << I << " gradient mismatch";
    }
}

/// Checks input gradients of \p Net against finite differences.
void checkInputGradients(Network &Net, Tensor In, double Tol) {
  Tensor Out = Net.forward(In);
  Net.zeroGrads();
  Net.forward(In);
  Tensor GradIn = Net.backward(Tensor(Out.shape(), 1.0f));
  const double Eps = 1e-3;
  for (size_t I = 0; I != In.size();
       I += std::max<size_t>(1, In.size() / 9)) {
    float Orig = In[I];
    In[I] = Orig + static_cast<float>(Eps);
    double Plus = sumForward(Net, In);
    In[I] = Orig - static_cast<float>(Eps);
    double Minus = sumForward(Net, In);
    In[I] = Orig;
    EXPECT_NEAR(GradIn[I], (Plus - Minus) / (2 * Eps), Tol)
        << "input " << I << " gradient mismatch";
  }
}

} // namespace

TEST(GradCheckTest, DenseLayer) {
  Rng R(1);
  Network Net;
  Net.add(std::make_unique<Dense>(5, 4, R));
  Tensor In = Tensor::fromVector({0.3f, -0.2f, 0.8f, 0.1f, -0.5f});
  checkParamGradients(Net, In, 1e-3);
  checkInputGradients(Net, In, 1e-3);
}

TEST(GradCheckTest, DenseReluStack) {
  Rng R(2);
  Network Net = buildDnn(6, {8, 5}, 3, R);
  Rng RIn(3);
  Tensor In({6});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(-1, 1));
  checkParamGradients(Net, In, 2e-3);
  checkInputGradients(Net, In, 2e-3);
}

TEST(GradCheckTest, ConvPoolNetwork) {
  Rng R(4);
  Network Net;
  Net.add(std::make_unique<Conv2D>(1, 3, 3, 1, R));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<MaxPool2D>());
  Net.add(std::make_unique<Flatten>());
  Net.add(std::make_unique<Dense>(3 * 3 * 3, 2, R));
  Rng RIn(5);
  Tensor In({1, 8, 8});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(-1, 1));
  checkParamGradients(Net, In, 3e-3);
}

TEST(GradCheckTest, DeepMindCnn) {
  Rng R(6);
  Network Net = buildDeepMindCnn(1, 16, {12}, 4, R);
  Rng RIn(7);
  Tensor In({16 * 16});
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(RIn.uniform(0, 1));
  checkParamGradients(Net, In, 5e-3);
}

//===----------------------------------------------------------------------===//
// Layer shapes
//===----------------------------------------------------------------------===//

TEST(LayerTest, ConvOutputShape) {
  Rng R(8);
  Conv2D C(2, 5, 3, 1, R);
  Tensor In({2, 10, 8});
  Tensor Out = C.forward(In);
  EXPECT_EQ(Out.dim(0), 5);
  EXPECT_EQ(Out.dim(1), 8);
  EXPECT_EQ(Out.dim(2), 6);
}

TEST(LayerTest, ConvStrideTwo) {
  Rng R(9);
  Conv2D C(1, 1, 3, 2, R);
  Tensor In({1, 9, 9});
  Tensor Out = C.forward(In);
  EXPECT_EQ(Out.dim(1), 4);
}

TEST(LayerTest, MaxPoolSelectsMaximum) {
  MaxPool2D P;
  Tensor In({1, 2, 2});
  In.at3(0, 0, 0) = 1.0f;
  In.at3(0, 0, 1) = 4.0f;
  In.at3(0, 1, 0) = 2.0f;
  In.at3(0, 1, 1) = 3.0f;
  Tensor Out = P.forward(In);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FLOAT_EQ(Out[0], 4.0f);
  // Gradient routes only to the argmax.
  Tensor G = P.backward(Tensor({1, 1, 1}, 1.0f));
  EXPECT_FLOAT_EQ(G.at3(0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(G.at3(0, 0, 0), 0.0f);
}

TEST(LayerTest, ReluZeroesNegatives) {
  ReLU L;
  Tensor Out = L.forward(Tensor::fromVector({-1.0f, 2.0f}));
  EXPECT_FLOAT_EQ(Out[0], 0.0f);
  EXPECT_FLOAT_EQ(Out[1], 2.0f);
}

TEST(LayerTest, ReshapeRoundTrip) {
  Reshape L({2, 2, 2});
  Tensor In = Tensor::fromVector({1, 2, 3, 4, 5, 6, 7, 8});
  Tensor Out = L.forward(In);
  EXPECT_EQ(Out.rank(), 3);
  Tensor Back = L.backward(Out);
  EXPECT_EQ(Back.rank(), 1);
  EXPECT_FLOAT_EQ(Back[7], 8.0f);
}

//===----------------------------------------------------------------------===//
// Losses
//===----------------------------------------------------------------------===//

TEST(LossTest, MseValueAndGradient) {
  Tensor Pred = Tensor::fromVector({1.0f, 2.0f});
  Tensor Target = Tensor::fromVector({0.0f, 2.0f});
  Tensor Grad;
  double L = mseLoss(Pred, Target, Grad);
  EXPECT_NEAR(L, 0.5, 1e-9);
  EXPECT_NEAR(Grad[0], 1.0, 1e-6);
  EXPECT_NEAR(Grad[1], 0.0, 1e-6);
}

TEST(LossTest, HuberQuadraticAndLinearRegimes) {
  Tensor Grad;
  Tensor Pred1 = Tensor::fromVector({0.5f});
  double L1 = huberLoss(Pred1, Tensor::fromVector({0.0f}), Grad);
  EXPECT_NEAR(L1, 0.125, 1e-9);
  Tensor Pred2 = Tensor::fromVector({3.0f});
  double L2 = huberLoss(Pred2, Tensor::fromVector({0.0f}), Grad);
  EXPECT_NEAR(L2, 2.5, 1e-9);
  EXPECT_NEAR(Grad[0], 1.0, 1e-9); // Clipped gradient.
}

TEST(LossTest, HuberAtTouchesOnlyIndex) {
  Tensor Pred = Tensor::fromVector({1.0f, 5.0f, -2.0f});
  Tensor Grad;
  huberLossAt(Pred, 1, 4.5f, Grad);
  EXPECT_FLOAT_EQ(Grad[0], 0.0f);
  EXPECT_FLOAT_EQ(Grad[2], 0.0f);
  EXPECT_NEAR(Grad[1], 0.5, 1e-6);
}

//===----------------------------------------------------------------------===//
// Optimizers
//===----------------------------------------------------------------------===//

namespace {
/// Trains Net to map x -> 2x+1, then returns the mean squared error over
/// an evaluation grid (the per-step loss is too noisy to assert on).
double trainLinear(Optimizer &Opt, Network &Net, int Steps) {
  Rng R(31);
  for (int S = 0; S < Steps; ++S) {
    float X = static_cast<float>(R.uniform(-1, 1));
    Tensor In = Tensor::fromVector({X});
    Tensor Target = Tensor::fromVector({2 * X + 1});
    Tensor Out = Net.forward(In);
    Tensor Grad;
    mseLoss(Out, Target, Grad);
    Net.backward(Grad);
    Opt.step(1.0);
  }
  double Err = 0.0;
  int N = 0;
  for (float X = -1.0f; X <= 1.0f; X += 0.1f, ++N) {
    float Pred = Net.forward(Tensor::fromVector({X}))[0];
    Err += (Pred - (2 * X + 1)) * (Pred - (2 * X + 1));
  }
  return Err / N;
}
} // namespace

TEST(OptimizerTest, SgdConvergesOnLinearFit) {
  Rng R(33);
  Network Net = buildDnn(1, {8}, 1, R);
  Sgd Opt(Net, 0.02, 0.9);
  EXPECT_LT(trainLinear(Opt, Net, 3000), 5e-2);
}

TEST(OptimizerTest, AdamConvergesOnLinearFit) {
  Rng R(34);
  Network Net = buildDnn(1, {8}, 1, R);
  Adam Opt(Net, 0.01);
  EXPECT_LT(trainLinear(Opt, Net, 3000), 5e-2);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Rng R(35);
  Network Net = buildDnn(2, {}, 1, R);
  Adam Opt(Net, 0.01);
  Net.forward(Tensor::fromVector({1.0f, 1.0f}));
  Net.backward(Tensor::fromVector({1.0f}));
  Opt.step(1.0);
  for (ParamView P : Net.params())
    for (size_t I = 0; I != P.Count; ++I)
      EXPECT_FLOAT_EQ(P.Grads[I], 0.0f);
}

//===----------------------------------------------------------------------===//
// Network persistence and copying
//===----------------------------------------------------------------------===//

TEST(NetworkTest, SaveLoadRoundTrip) {
  Rng R(41);
  Network A = buildDnn(3, {5}, 2, R);
  Network B = buildDnn(3, {5}, 2, R); // Different init.
  std::string Path = "/tmp/au_test_net.bin";
  ASSERT_TRUE(A.saveParams(Path));
  ASSERT_TRUE(B.loadParams(Path));
  Tensor In = Tensor::fromVector({0.1f, 0.2f, 0.3f});
  Tensor OA = A.forward(In), OB = B.forward(In);
  for (size_t I = 0; I != OA.size(); ++I)
    EXPECT_FLOAT_EQ(OA[I], OB[I]);
  std::remove(Path.c_str());
}

TEST(NetworkTest, LoadRejectsWrongArchitecture) {
  Rng R(42);
  Network A = buildDnn(3, {5}, 2, R);
  Network B = buildDnn(3, {6}, 2, R);
  std::string Path = "/tmp/au_test_net2.bin";
  ASSERT_TRUE(A.saveParams(Path));
  EXPECT_FALSE(B.loadParams(Path));
  std::remove(Path.c_str());
}

TEST(NetworkTest, CopyParamsMakesOutputsEqual) {
  Rng R(43);
  Network A = buildDnn(4, {6}, 3, R);
  Network B = buildDnn(4, {6}, 3, R);
  B.copyParamsFrom(A);
  Tensor In = Tensor::fromVector({0.5f, -0.5f, 0.25f, 1.0f});
  Tensor OA = A.forward(In), OB = B.forward(In);
  for (size_t I = 0; I != OA.size(); ++I)
    EXPECT_FLOAT_EQ(OA[I], OB[I]);
}

TEST(NetworkTest, SizeAccounting) {
  Rng R(44);
  Network Net = buildDnn(10, {4}, 2, R);
  // (10*4 + 4) + (4*2 + 2) = 54 params.
  EXPECT_EQ(Net.numParams(), 54u);
  EXPECT_EQ(Net.sizeInBytes(), 4 * 8 + 54 * sizeof(float));
}

//===----------------------------------------------------------------------===//
// Supervised trainer
//===----------------------------------------------------------------------===//

TEST(SupervisedTest, LearnsAffineMap) {
  Rng R(51);
  SupervisedTrainer Trainer(buildDnn(2, {24}, 1, R), 5e-3);
  Rng Data(52);
  for (int I = 0; I < 200; ++I) {
    float A = static_cast<float>(Data.uniform(-2, 2));
    float B = static_cast<float>(Data.uniform(-2, 2));
    Trainer.addSample({A, B}, {3 * A - B + 5});
  }
  Rng TrainR(53);
  Trainer.train(200, 16, TrainR);
  EXPECT_LT(Trainer.meanAbsError(), 0.25);
  std::vector<float> P = Trainer.predict({1.0f, 1.0f});
  EXPECT_NEAR(P[0], 7.0f, 0.8f);
}

TEST(SupervisedTest, NormalizationHandlesLargeScales) {
  Rng R(54);
  SupervisedTrainer Trainer(buildDnn(1, {8}, 1, R), 3e-3);
  Rng Data(55);
  for (int I = 0; I < 100; ++I) {
    float X = static_cast<float>(Data.uniform(1000, 2000));
    Trainer.addSample({X}, {X / 100});
  }
  Rng TrainR(56);
  Trainer.train(80, 16, TrainR);
  std::vector<float> P = Trainer.predict({1500.0f});
  EXPECT_NEAR(P[0], 15.0f, 1.0f);
}

TEST(SupervisedTest, EmptyDatasetTrainIsNoop) {
  Rng R(57);
  SupervisedTrainer Trainer(buildDnn(1, {}, 1, R));
  Rng TrainR(58);
  EXPECT_DOUBLE_EQ(Trainer.train(5, 4, TrainR), 0.0);
}

TEST(SupervisedTest, NormalizationExportImport) {
  Rng R(59);
  SupervisedTrainer A(buildDnn(1, {4}, 1, R), 1e-3);
  A.addSample({2.0f}, {4.0f});
  A.addSample({4.0f}, {8.0f});
  std::vector<float> XM, XS, YM, YS;
  A.getNormalization(XM, XS, YM, YS);
  EXPECT_FLOAT_EQ(XM[0], 3.0f);
  Rng R2(60);
  SupervisedTrainer B(buildDnn(1, {4}, 1, R2), 1e-3);
  B.setNormalization(XM, XS, YM, YS);
  B.network().copyParamsFrom(A.network());
  EXPECT_FLOAT_EQ(A.predict({2.0f})[0], B.predict({2.0f})[0]);
}

//===----------------------------------------------------------------------===//
// Q-learning
//===----------------------------------------------------------------------===//

TEST(QLearnerTest, SolvesTwoArmedBandit) {
  // One state, two actions; action 1 always pays more.
  QConfig Cfg;
  Cfg.EpsilonDecaySteps = 300;
  Cfg.WarmupSteps = 32;
  Cfg.TargetSyncInterval = 50;
  Rng Seed(61);
  QLearner Q(
      [] {
        Rng R(62);
        return buildDnn(1, {8}, 2, R);
      },
      2, Cfg, 63);
  std::vector<float> S = {1.0f};
  for (int I = 0; I < 800; ++I) {
    int A = onelane::selectAction(Q, S, true);
    float Reward = A == 1 ? 1.0f : -1.0f;
    onelane::observe(Q, S, A, Reward, S, false);
  }
  EXPECT_EQ(onelane::selectAction(Q, S, false), 1);
  std::vector<float> Qs = Q.qValues(S);
  EXPECT_GT(Qs[1], Qs[0]);
}

TEST(QLearnerTest, LearnsStateDependentPolicy) {
  // Two states: in state A action 0 pays, in state B action 1 pays.
  QConfig Cfg;
  Cfg.EpsilonDecaySteps = 400;
  Cfg.WarmupSteps = 32;
  Cfg.Gamma = 0.0; // Pure contextual bandit.
  QLearner Q(
      [] {
        Rng R(64);
        return buildDnn(1, {12}, 2, R);
      },
      2, Cfg, 65);
  Rng R(66);
  for (int I = 0; I < 1500; ++I) {
    bool InA = R.chance(0.5);
    std::vector<float> S = {InA ? 0.0f : 1.0f};
    int A = onelane::selectAction(Q, S, true);
    float Reward = (InA ? A == 0 : A == 1) ? 1.0f : -1.0f;
    onelane::observe(Q, S, A, Reward, S, true);
  }
  EXPECT_EQ(onelane::selectAction(Q, {0.0f}, false), 0);
  EXPECT_EQ(onelane::selectAction(Q, {1.0f}, false), 1);
}

TEST(QLearnerTest, EpsilonDecaysToFloor) {
  QConfig Cfg;
  Cfg.EpsilonStart = 1.0;
  Cfg.EpsilonEnd = 0.1;
  Cfg.EpsilonDecaySteps = 100;
  Cfg.WarmupSteps = 1000000; // Never train; just decay.
  QLearner Q(
      [] {
        Rng R(67);
        return buildDnn(1, {4}, 2, R);
      },
      2, Cfg, 68);
  std::vector<float> S = {0.0f};
  for (int I = 0; I < 200; ++I)
    onelane::observe(Q, S, 0, 0.0f, S, false);
  EXPECT_NEAR(Q.epsilon(), 0.1, 1e-9);
}

TEST(QLearnerTest, ReplayCapacityBounded) {
  QConfig Cfg;
  Cfg.ReplayCapacity = 50;
  Cfg.WarmupSteps = 1000000;
  QLearner Q(
      [] {
        Rng R(69);
        return buildDnn(1, {4}, 2, R);
      },
      2, Cfg, 70);
  std::vector<float> S = {0.0f};
  for (int I = 0; I < 200; ++I)
    onelane::observe(Q, S, 0, 0.0f, S, false);
  EXPECT_EQ(Q.replaySize(), 50u);
}

TEST(QLearnerTest, BatchedReplayUpdateMatchesPerSampleReference) {
  // The batched trainStep against a per-sample DQN update: the same
  // minibatch draws, per-sample Huber-at-action gradients through the
  // scalar Network::forward/backward, Adam, and target syncs on the same
  // schedule. Only observations are made, so the learner's Rand(Seed) feeds
  // minibatch draws alone and the reference can replay them over a replay
  // that never wraps (index I is the I-th observed transition).
  QConfig Cfg;
  Cfg.LearningRate = 1e-2;
  Cfg.Gamma = 0.9;
  Cfg.BatchSize = 8;
  Cfg.WarmupSteps = 8;
  Cfg.TargetSyncInterval = 5;
  Cfg.ReplayCapacity = 64;
  const int Steps = 20, Dim = 3, Actions = 3;
  const uint64_t Seed = 71;
  auto MakeNet = [] {
    Rng R(72);
    return buildDnn(Dim, {8}, Actions, R);
  };

  struct Step {
    std::vector<float> State, Next;
    int Action;
    float Reward;
    bool Terminal;
  };
  std::vector<Step> Data;
  Rng DataRand(73);
  auto RandomState = [&] {
    std::vector<float> V(Dim);
    for (float &X : V)
      X = static_cast<float>(DataRand.uniform(-1, 1));
    return V;
  };
  for (int I = 0; I < Steps; ++I)
    Data.push_back({RandomState(), RandomState(), I % Actions,
                    static_cast<float>(DataRand.uniform(-2, 2)),
                    I % 4 == 3});

  std::vector<Backend> Engines = {Backend::Blocked};
  if (simdSupported())
    Engines.push_back(Backend::Simd);
  for (Backend B : Engines) {
    setBackend(B);
    QLearner Q(MakeNet, Actions, Cfg, Seed);
    for (const Step &T : Data)
      onelane::observe(Q, T.State, T.Action, T.Reward, T.Next, T.Terminal);

    Network Online = MakeNet(), Target = MakeNet();
    Target.copyParamsFrom(Online);
    Adam Opt(Online, Cfg.LearningRate);
    Rng Rand(Seed);
    long TrainSteps = 0, Syncs = 0;
    for (long S = 1; S <= Steps; ++S) {
      if (S >= Cfg.WarmupSteps && S % Cfg.TrainInterval == 0 &&
          S >= Cfg.BatchSize) {
        Online.zeroGrads();
        for (int Row = 0; Row < Cfg.BatchSize; ++Row) {
          const Step &T = Data[Rand.uniformInt(static_cast<uint64_t>(S))];
          float Y = T.Reward;
          if (!T.Terminal)
            Y += static_cast<float>(Cfg.Gamma) *
                 Target.forward(Tensor::fromVector(T.Next)).maxValue();
          Tensor Grad;
          huberLossAt(Online.forward(Tensor::fromVector(T.State)),
                      static_cast<size_t>(T.Action), Y, Grad);
          Online.backward(Grad);
        }
        Opt.step(1.0 / Cfg.BatchSize);
        ++TrainSteps;
      }
      if (S % Cfg.TargetSyncInterval == 0) {
        Target.copyParamsFrom(Online);
        ++Syncs;
      }
    }
    ASSERT_GE(TrainSteps, 3);
    ASSERT_GE(Syncs, 1);
    EXPECT_EQ(Q.trainStepsRun(), TrainSteps);

    for (const Step &T : Data) {
      std::vector<float> Got = Q.qValues(T.State);
      Tensor Want = Online.forward(Tensor::fromVector(T.State));
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t A = 0; A != Got.size(); ++A)
        EXPECT_NEAR(Got[A], Want[A], 1e-4)
            << backendName(B) << " action " << A;
    }
  }
  setBackend(defaultBackend());
}
