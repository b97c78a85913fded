//===- perfbench/src/RlFleetCnn.cpp - Workload rl_fleet_cnn --------------===//
//
// A fleet of 4 Flappy actors learning from pixels, in lockstep ticks that
// follow the schedule of RlHarness::trainRlParallel:
//
//   tick: parallelFor over actors { renderFrame(20x20) -> au_extract }
//         -> one Engine::nnRlSessions (observe, train when due, select 4
//            actions with one batched forward through the DeepMind CNN)
//         -> parallelFor over actors { au_write_back -> env step }
//         -> serial episode bookkeeping (fresh jittered episodes).
//
// Both parallel loops run on ThreadPool::global() at its default size.
// After every learning window a deployment window runs batched greedy
// evaluation over 4 TS lanes (the evalRlBatched shape, with finished lanes
// restarted so every call carries 4 rows). A tick counts as 4 annotated
// iterations; its latency is the latency of each of the 4 calls fused in it.
//
// Why this workload: conv/im2col GEMM and pool-parallel actor stepping
// dominate, and the small-shape paths and primitives are negligible. It is
// the control for small-shape nn changes and the main stage for thread-pool
// and intra-op threading changes (on a 4-vCPU guest a 4-actor DNN fleet ran
// 65k env steps/s at the default pool and 133k at AU_NN_THREADS=1). A
// 6000-step run measured about 2.2-2.6k env steps/s.
//
// Which per-layer metric should move which end-to-end metric here:
//  - engine.nn_rl_sessions_us, engine.rows_per_call
//                                       -> learn_* and deploy_* metrics
//  - apps.render_us                     -> learn_* and deploy_* metrics
//  - support.parallel_step_us, support.parallel_extract_us
//                                       -> learn_step_p50_us (pool dispatch)
//  - nn.train_steps_per_learn_step      -> tells a real learn-rate gain
//                                          from one that skips updates
//  - core.extract_us                    -> nothing measurable (control)
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "apps/flappy/Flappy.h"
#include "core/Engine.h"
#include "support/ThreadPool.h"

#include <cmath>

using namespace perfbench;
using namespace au;
using au::apps::FlappyEnv;

namespace {

constexpr int Actors = 4;
constexpr int FrameSide = 20;
constexpr int Windows = 6;
constexpr int LearnTicksPerWindow = 200;
constexpr int DeployTicksPerWindow = 200;
constexpr int MaxEpisodeSteps = 400;

uint64_t episodeSeed(uint64_t Level, uint64_t Episode) {
  return (Level << 8) | (Episode & 0xff);
}

/// One set of actor lanes: an env and a session per actor.
struct Lanes {
  std::vector<std::unique_ptr<FlappyEnv>> Envs;
  std::vector<std::unique_ptr<Session>> Sessions;
  std::vector<Session *> Ptrs;

  Lanes(Engine &Eng, Mode M) {
    for (int A = 0; A < Actors; ++A) {
      Envs.push_back(std::make_unique<FlappyEnv>());
      Sessions.push_back(std::make_unique<Session>(Eng, M));
      Ptrs.push_back(Sessions.back().get());
    }
  }
};

class RlFleetCnn final : public Generation {
public:
  RlFleetCnn(RunState &St, uint64_t Seed);
  void run() override;

private:
  void extractAll(Lanes &L);
  void stepAll(Lanes &L, const uint8_t *Stepping);
  void learnTick();
  void deployTick();
  void checkQValues();

  RunState &St;
  Tracer *const Tr;
  const uint64_t Seed;
  ThreadPool &Pool = ThreadPool::global();
  Engine Eng;
  Session Main{Eng, Mode::TR};
  NameId ModelId = InvalidNameId;
  NameId Img = InvalidNameId;
  WriteBackHandle Out;
  RlModel *Model = nullptr;
  std::unique_ptr<Lanes> Train;
  std::unique_ptr<Lanes> Eval;

  std::vector<NameId> ExtIds = std::vector<NameId>(Actors, InvalidNameId);
  std::vector<float> Rewards = std::vector<float>(Actors, 0.0f);
  std::vector<uint8_t> Terms = std::vector<uint8_t>(Actors, 0);
  std::vector<float> StepRewards = std::vector<float>(Actors, 0.0f);
  std::vector<uint8_t> NewTerms = std::vector<uint8_t>(Actors, 0);
  std::vector<uint8_t> Stepping = std::vector<uint8_t>(Actors, 0);
  std::vector<int> Actions = std::vector<int>(Actors, -1);
  std::vector<int> EpSteps = std::vector<int>(Actors, 0);
  std::vector<int> EvalEpSteps = std::vector<int>(Actors, 0);
  const std::vector<float> ZeroRewards = std::vector<float>(Actors, 0.0f);
  const std::vector<uint8_t> NoTerms = std::vector<uint8_t>(Actors, 0);
  const std::vector<uint8_t> AllStep = std::vector<uint8_t>(Actors, 1);
  uint64_t NextJitter = Actors;
  uint64_t NextEvalEpisode = Actors;
  long BatchCalls = 0;
};

RlFleetCnn::RlFleetCnn(RunState &St, uint64_t Seed)
    : St(St), Tr(St.Tr), Seed(Seed) {
  ModelConfig C;
  C.Name = "flappy_raw";
  C.Type = ModelType::CNN;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {32, 32};
  C.FrameSide = FrameSide;
  C.FrameChannels = 1;
  C.Seed = Seed;
  Model = static_cast<RlModel *>(Main.config(C));
  // The vectorized-DQN schedule of trainRlParallel: one minibatch per tick,
  // epsilon horizon scaled to the fleet's env steps.
  nn::QConfig Q;
  Q.TrainInterval = Actors;
  Q.EpsilonDecaySteps *= Actors;
  Model->setQConfig(Q);
  Model->configureActors(Actors);
  ModelId = Main.intern(C.Name);
  Img = Main.intern("IMG");
  Out = {Main.intern("actionKey"), 2};

  // Lane sessions come after every name is interned, so each lane store
  // mirrors the full master table from birth.
  Train = std::make_unique<Lanes>(Eng, Mode::TR);
  Eval = std::make_unique<Lanes>(Eng, Mode::TS);
  for (int A = 0; A < Actors; ++A) {
    Train->Envs[static_cast<size_t>(A)]->reset(
        episodeSeed(Seed, static_cast<uint64_t>(A)));
    Eval->Envs[static_cast<size_t>(A)]->reset(
        episodeSeed(Seed, 100 + static_cast<uint64_t>(A)));
  }

  // The first tick builds the CNN, its target copy and the replay shards:
  // model construction is set-up work a user pays once (noise fact N4).
  extractAll(*Train);
  Eng.nnRlSessions(ModelId, Train->Ptrs.data(), ExtIds.data(), Rewards.data(),
                   Terms.data(), Actors, Out, /*Learning=*/true);
  stepAll(*Train, AllStep.data());
  for (int A = 0; A < Actors; ++A) {
    Rewards[static_cast<size_t>(A)] = StepRewards[static_cast<size_t>(A)];
    Terms[static_cast<size_t>(A)] = NewTerms[static_cast<size_t>(A)];
  }
}

void RlFleetCnn::extractAll(Lanes &L) {
  SpanScope S(Tr, LParallelExtract);
  const int32_t Parent = Tr ? Tr->current() : -1;
  Pool.parallelFor(0, Actors, 1, [&](size_t B, size_t E) {
    for (size_t A = B; A != E; ++A) {
      Image Frame;
      {
        ConcurrentScope Sp(Tr, LRender, Parent);
        Frame = L.Envs[A]->renderFrame(FrameSide);
      }
      ConcurrentScope Sp(Tr, LExtract, Parent);
      L.Sessions[A]->extract(Img, Frame.size(), Frame.data().data());
      ExtIds[A] = Img;
    }
  });
}

void RlFleetCnn::stepAll(Lanes &L, const uint8_t *Step) {
  SpanScope S(Tr, LParallelStep);
  Pool.parallelFor(0, Actors, 1, [&](size_t B, size_t E) {
    for (size_t A = B; A != E; ++A) {
      int Action = -1;
      L.Sessions[A]->writeBack(Out.Name, Out.Size, &Action);
      Actions[A] = Action;
      if (!Step[A] || Action < 0 || Action >= Out.Size)
        continue;
      StepRewards[A] = L.Envs[A]->step(Action);
      NewTerms[A] = L.Envs[A]->terminal() ? 1 : 0;
    }
  });
}

void RlFleetCnn::learnTick() {
  {
    Iteration It(St, St.Learn, PLearn, Actors);
    extractAll(*Train);
    {
      SpanScope S(Tr, LNnRlSessions);
      Eng.nnRlSessions(ModelId, Train->Ptrs.data(), ExtIds.data(),
                       Rewards.data(), Terms.data(), Actors, Out,
                       /*Learning=*/true);
    }
    // Actors whose episode just ended skip the step: their au_NN above
    // carried the terminal signal (trainRlParallel's schedule).
    for (int A = 0; A < Actors; ++A)
      Stepping[static_cast<size_t>(A)] = Terms[static_cast<size_t>(A)] ? 0 : 1;
    stepAll(*Train, Stepping.data());
    for (int A = 0; A < Actors; ++A) {
      size_t AI = static_cast<size_t>(A);
      if (!Stepping[AI]) {
        EpSteps[AI] = 0;
        Rewards[AI] = 0.0f;
        Terms[AI] = 0;
        Train->Envs[AI]->reset(episodeSeed(Seed, NextJitter++));
        continue;
      }
      Rewards[AI] = StepRewards[AI];
      Terms[AI] = NewTerms[AI] || ++EpSteps[AI] >= MaxEpisodeSteps;
    }
  }
  ++BatchCalls;
  for (int A : Actions)
    St.Chk.check(A >= 0 && A < Out.Size,
                 "rl_fleet_cnn: learning action out of range");
}

void RlFleetCnn::deployTick() {
  {
    Iteration It(St, St.Deploy, PDeploy, Actors);
    extractAll(*Eval);
    {
      SpanScope S(Tr, LNnRlSessions);
      Eng.nnRlSessions(ModelId, Eval->Ptrs.data(), ExtIds.data(),
                       ZeroRewards.data(), NoTerms.data(), Actors, Out,
                       /*Learning=*/false);
    }
    stepAll(*Eval, AllStep.data());
    for (int A = 0; A < Actors; ++A) {
      size_t AI = static_cast<size_t>(A);
      FlappyEnv &E = *Eval->Envs[AI];
      if (E.terminal() || ++EvalEpSteps[AI] >= MaxEpisodeSteps) {
        St.ProgressSum += E.progress();
        ++St.ProgressEpisodes;
        E.reset(episodeSeed(Seed, 100 + NextEvalEpisode++));
        EvalEpSteps[AI] = 0;
      }
    }
  }
  ++BatchCalls;
  for (int A : Actions)
    St.Chk.check(A >= 0 && A < Out.Size,
                 "rl_fleet_cnn: greedy action out of range");
}

void RlFleetCnn::checkQValues() {
  Image Frame = Eval->Envs[0]->renderFrame(FrameSide);
  bool Finite = true;
  for (float Q : Model->qValues(Frame.data()))
    Finite = Finite && std::isfinite(Q);
  St.Chk.check(Finite, "rl_fleet_cnn: non-finite Q-value");
}

void RlFleetCnn::run() {
  for (int W = 0; W < Windows; ++W) {
    {
      Window Win(St.Learn);
      for (int I = 0; I < LearnTicksPerWindow; ++I)
        learnTick();
    }
    {
      Window Win(St.Deploy);
      for (int I = 0; I < DeployTicksPerWindow; ++I)
        deployTick();
    }
    checkQValues();
  }
  const nn::QLearner *L = Model->learner();
  St.count("nn.train_steps", static_cast<double>(L->trainStepsRun()));
  St.count("nn.replay_size", static_cast<double>(L->replaySize()));
  St.count("engine.batch_calls", static_cast<double>(BatchCalls));
  St.count("engine.rows", static_cast<double>(BatchCalls) * Actors);
}

} // namespace

std::unique_ptr<Generation> perfbench::makeRlFleetCnn(RunState &St,
                                                      uint64_t GenSeed) {
  return std::make_unique<RlFleetCnn>(St, GenSeed);
}
