//===- bench/nn_kernels.cpp - NN compute-engine micro-benchmarks ---------===//
//
// Measures the batched compute engines (blocked-scalar and AVX2/FMA simd)
// against the scalar per-sample layer kernels (the test oracle, reported
// as backend "naive") on the repo's real model shapes (Canny Raw 32x32
// frames, the RL harness 20x20 frames, and the dense heads), plus an
// end-to-end supervised epoch per engine and the DQN's two per-call costs
// (one minibatch train step and one greedy 1-row act on the 5-32-32-2
// network). Prints one JSON line per case:
//
//   {"bench": "...", "backend": "...", "threads": N, "ns_per_iter": ...}
//
// followed, for the layer cases, by a speedup line over the scalar kernels,
// so the perf trajectory can be tracked across changes. The simd rows only appear when the CPU supports
// AVX2+FMA. Thread counts swept: 1 and 4 (plus AU_NN_THREADS if set to
// something else).
//
//===----------------------------------------------------------------------===//

#include "nn/Gemm.h"
#include "nn/Layers.h"
#include "nn/Network.h"
#include "nn/QLearner.h"
#include "nn/Supervised.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace au;
using namespace au::nn;

namespace {

volatile float Sink; // Defeats dead-code elimination.

/// Times Fn and returns ns per iteration: the median over up to Reps short
/// timing loops that share the MinSeconds budget, so a stall or a host
/// speed-mode switch inside the window moves one loop rather than the whole
/// row (a mode that outlasts the window still moves it). A case whose
/// single iteration outlasts a loop's share still runs MinIters loops.
double timeNs(const std::function<void()> &Fn, int MinIters = 3,
              double MinSeconds = 0.25) {
  constexpr int Reps = 7;
  const double Slice = MinSeconds / Reps;
  Fn(); // Warm-up: allocate workspaces, fault in pages.
  std::vector<double> Ns;
  Timer Budget;
  while (static_cast<int>(Ns.size()) < Reps &&
         (static_cast<int>(Ns.size()) < MinIters ||
          Budget.seconds() < MinSeconds)) {
    int Iters = 0;
    Timer T;
    do {
      Fn();
      ++Iters;
    } while (T.seconds() < Slice);
    Ns.push_back(T.seconds() * 1e9 / Iters);
  }
  std::sort(Ns.begin(), Ns.end());
  size_t Mid = Ns.size() / 2;
  return Ns.size() % 2 ? Ns[Mid] : 0.5 * (Ns[Mid - 1] + Ns[Mid]);
}

void printCase(const std::string &Bench, const std::string &BackendName,
               int Threads, double NsPerIter) {
  std::printf("{\"bench\": \"%s\", \"backend\": \"%s\", \"threads\": %d, "
              "\"ns_per_iter\": %.0f}\n",
              Bench.c_str(), BackendName.c_str(), Threads, NsPerIter);
  std::fflush(stdout);
}

void printSpeedup(const std::string &Bench, const std::string &BackendName,
                  int Threads, double Naive, double Batched) {
  std::printf("{\"bench\": \"%s\", \"backend\": \"%s\", \"threads\": %d, "
              "\"speedup_vs_naive\": %.2f}\n",
              Bench.c_str(), BackendName.c_str(), Threads, Naive / Batched);
  std::fflush(stdout);
}

/// The batched engines to sweep: always blocked, plus simd where the CPU
/// supports it.
std::vector<Backend> batchedBackends() {
  std::vector<Backend> Bs = {Backend::Blocked};
  if (simdSupported())
    Bs.push_back(Backend::Simd);
  return Bs;
}

Tensor randomBatch(std::vector<int> Shape, Rng &Rand) {
  Tensor T(std::move(Shape));
  for (float &V : T.values())
    V = static_cast<float>(Rand.uniform(-1, 1));
  return T;
}

/// One fwd+bwd pass per sample through a layer's scalar kernels (the
/// oracle); independent of the active engine.
template <typename L>
double benchLayerNaive(L &Layer, const Tensor &In, const Tensor &GradOut) {
  int BN = In.dim(0);
  size_t InSz = In.sampleSize(), GSz = GradOut.sampleSize();
  Tensor X(In.sampleShape()), G(GradOut.sampleShape());
  double Ns = timeNs([&] {
    for (int B = 0; B < BN; ++B) {
      std::copy(In.sampleData(B), In.sampleData(B) + InSz, X.data());
      Tensor Y = Layer.forward(X);
      std::copy(GradOut.sampleData(B), GradOut.sampleData(B) + GSz,
                G.data());
      Tensor GI = Layer.backward(G);
      Sink = GI[0] + Y[0];
    }
  });
  return Ns / BN; // Per sample.
}

template <typename L>
double benchLayerBatched(L &Layer, const Tensor &In, const Tensor &GradOut) {
  int BN = In.dim(0);
  double Ns = timeNs([&] {
    Tensor Y = Layer.forwardBatch(In);
    Tensor GI = Layer.backwardBatch(GradOut);
    Sink = GI[0] + Y[0];
  });
  return Ns / BN;
}

template <typename L>
double benchLayerForwardOnly(L &Layer, const Tensor &In) {
  int BN = In.dim(0);
  double Ns = timeNs([&] {
    Tensor Y = Layer.forwardBatch(In);
    Sink = Y[0];
  });
  return Ns / BN;
}

void benchConvCase(const std::string &Name, int InC, int OutC, int K, int S,
                   int H, int W, int BN, const std::vector<int> &ThreadsSet) {
  Rng Rand(1);
  Rng WRand(2);
  Conv2D Conv(InC, OutC, K, S, WRand);
  Tensor In = randomBatch({BN, InC, H, W}, Rand);
  Tensor G = randomBatch({BN, OutC, convOutDim(H, K, S),
                          convOutDim(W, K, S)}, Rand);
  ThreadPool::setGlobalThreads(1);
  double Naive = benchLayerNaive(Conv, In, G);
  printCase(Name, "naive", 1, Naive);
  for (Backend B : batchedBackends()) {
    setBackend(B);
    for (int T : ThreadsSet) {
      ThreadPool::setGlobalThreads(T);
      double Batched = benchLayerBatched(Conv, In, G);
      printCase(Name, backendName(B), T, Batched);
      printSpeedup(Name, backendName(B), T, Naive, Batched);
    }
  }
}

/// Conv2D forward only (the TS-mode inference path): pre-packed weights and
/// the workspace arena are what this isolates, so blocked-vs-simd here is
/// the PR's headline kernel speedup.
void benchConvForwardCase(const std::string &Name, int InC, int OutC, int K,
                          int S, int H, int W, int BN) {
  Rng Rand(1);
  Rng WRand(2);
  Conv2D Conv(InC, OutC, K, S, WRand);
  Tensor In = randomBatch({BN, InC, H, W}, Rand);
  ThreadPool::setGlobalThreads(1);
  double Blocked = 0.0;
  for (Backend B : batchedBackends()) {
    setBackend(B);
    double Ns = benchLayerForwardOnly(Conv, In);
    printCase(Name, backendName(B), 1, Ns);
    if (B == Backend::Blocked)
      Blocked = Ns;
    else if (B == Backend::Simd)
      std::printf("{\"bench\": \"%s\", \"threads\": 1, "
                  "\"simd_speedup_vs_blocked\": %.2f}\n",
                  Name.c_str(), Blocked / Ns);
  }
  std::fflush(stdout);
}

void benchDenseCase(const std::string &Name, int InSz, int OutSz, int BN,
                    const std::vector<int> &ThreadsSet) {
  Rng Rand(1);
  Rng WRand(2);
  Dense D(InSz, OutSz, WRand);
  Tensor In = randomBatch({BN, InSz}, Rand);
  Tensor G = randomBatch({BN, OutSz}, Rand);
  ThreadPool::setGlobalThreads(1);
  double Naive = benchLayerNaive(D, In, G);
  printCase(Name, "naive", 1, Naive);
  for (Backend B : batchedBackends()) {
    setBackend(B);
    for (int T : ThreadsSet) {
      ThreadPool::setGlobalThreads(T);
      double Batched = benchLayerBatched(D, In, G);
      printCase(Name, backendName(B), T, Batched);
      printSpeedup(Name, backendName(B), T, Naive, Batched);
    }
  }
}

/// End-to-end supervised epoch on the Canny Raw shape (1x32x32 frames
/// through the DeepMind-style CNN), the paper's heaviest training config.
void benchEndToEndEpoch(const std::vector<int> &ThreadsSet) {
  const int Side = 32, NSamples = 48, BatchSize = 16;
  auto MakeTrainer = [&] {
    Rng NetRand(3);
    SupervisedTrainer Trainer(buildDeepMindCnn(1, Side, {64}, 2, NetRand),
                              1e-3);
    Rng DataRand(4);
    for (int I = 0; I < NSamples; ++I) {
      std::vector<float> X(Side * Side);
      for (float &V : X)
        V = static_cast<float>(DataRand.uniform(0, 1));
      std::vector<float> Y = {X[0], X[1]};
      Trainer.addSample(std::move(X), std::move(Y));
    }
    return Trainer;
  };
  const std::string Name = "canny_raw_epoch";
  for (Backend B : batchedBackends()) {
    setBackend(B);
    for (int T : ThreadsSet) {
      ThreadPool::setGlobalThreads(T);
      SupervisedTrainer Fast = MakeTrainer();
      Rng FastRand(5);
      double Batched = timeNs([&] { Fast.train(1, BatchSize, FastRand); },
                              1, 0.5);
      printCase(Name, backendName(B), T, Batched);
    }
  }
}

/// The DQN of the Flappy/Mario RL loops (5 features, 32-32 hidden, 2
/// actions): one QLearner minibatch step at batch 32 after warm-up, and one
/// greedy 1-row forward, per engine at one thread. A train-step iteration
/// is one observed transition with TrainInterval 1, so it also carries the
/// replay push and the schedule decay (both well under 1% of the step).
void benchDqnCases() {
  const int D = 5, Actions = 2;
  ThreadPool::setGlobalThreads(1);
  for (Backend B : batchedBackends()) {
    setBackend(B);
    QConfig Cfg;
    Cfg.WarmupSteps = 64;
    QLearner Q([] {
      Rng NetRand(7);
      return buildDnn(D, {32, 32}, Actions, NetRand);
    }, Actions, Cfg, /*Seed=*/11);
    Rng Rand(3);
    std::vector<float> State(D), Next(D);
    for (float &V : Next)
      V = static_cast<float>(Rand.uniform(-1, 1));
    auto Observe = [&] {
      State = Next;
      for (float &V : Next)
        V = static_cast<float>(Rand.uniform(-1, 1));
      int Action = static_cast<int>(Rand.uniformInt(Actions));
      Q.observeActor(0, State.data(), D, Action,
                     static_cast<float>(Rand.uniform(-1, 1)), Next.data(), D,
                     Rand.chance(0.05));
      Q.finishTick(1);
    };
    for (int I = 0; I < 2 * Cfg.WarmupSteps; ++I)
      Observe(); // Fills the replay past one minibatch; training has begun.
    printCase("dqn_train_step_5x32x32x2", backendName(B), 1, timeNs(Observe));
    int Action = 0;
    double Act = timeNs([&] {
      Q.selectActionsBatch(State.data(), 1, D, /*Learning=*/false, &Action);
      Sink = static_cast<float>(Action);
    });
    printCase("dqn_act_1x5", backendName(B), 1, Act);
  }
}

} // namespace

int main() {
  std::vector<int> ThreadsSet = {1, 4};

  // Conv2D fwd+bwd on the repo's two CNN stage shapes, for the Canny Raw
  // 32x32 input and the RL harness 20x20 frame.
  benchConvCase("conv_fwd_bwd_canny_s1", 1, 8, 3, 1, 32, 32, 16, ThreadsSet);
  benchConvCase("conv_fwd_bwd_canny_s2", 8, 16, 3, 1, 15, 15, 16, ThreadsSet);
  benchConvCase("conv_fwd_bwd_mario_s1", 1, 8, 3, 1, 20, 20, 16, ThreadsSet);
  benchConvCase("conv_fwd_bwd_mario_s2", 8, 16, 3, 1, 9, 9, 16, ThreadsSet);

  // Forward-only conv (inference path): blocked vs simd at one thread.
  benchConvForwardCase("conv_fwd_canny_s2", 8, 16, 3, 1, 15, 15, 16);
  benchConvForwardCase("conv_fwd_mario_s2", 8, 16, 3, 1, 9, 9, 16);

  // Dense fwd+bwd on the paper's common head shapes.
  benchDenseCase("dense_fwd_bwd_256x64", 256, 64, 32, ThreadsSet);
  benchDenseCase("dense_fwd_bwd_1024x64", 1024, 64, 32, ThreadsSet);

  benchEndToEndEpoch(ThreadsSet);

  // The DQN's per-call costs (what perfbench rl_flappy's learn and deploy
  // steps spend in au_NN), per engine.
  benchDqnCases();
  return 0;
}
