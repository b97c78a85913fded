//===- perfbench/src/RlFlappy.cpp - Workload rl_flappy -------------------===//
//
// One annotated Flappy program, following the paper's Fig. 1 loop:
//
//   env step -> 5 au_extract -> au_serialize -> RL au_NN -> au_write_back,
//   with au_checkpoint / au_restore at episode ends (RlHarness::trainRl).
//
// Set-up runs Algorithm 2 (selectRlFeatures) over a scripted profile run to
// pick the feature variables, configures a 5->32->32->2 DQN and runs the
// first annotated iteration, which builds it. A generation then
// trains online in TR mode for Windows x LearnPerWindow steps, interrupted
// after every learning window by a TS greedy evaluation window of
// DeployPerWindow steps on a second session — the paper's Table 3 / Fig. 17
// regime.
//
// Why this workload: Session::nn is about 96% of a ~30 us learning step and
// about 55% of a ~1.2-2.2 us deployment step. Learning therefore exposes
// the small-shape nn work (Adam, panel packing) and deployment the
// primitive overhead. It never touches the Engine batchers or conv, so it
// is the control for changes there.
//
// Which per-layer metric should move which end-to-end metric here:
//  - analysis.select_features_ms          -> setup_s
//  - core.nn_learn_us                      -> learn_steps_per_s,
//                                             learn_step_p50_us
//  - nn.train_steps_per_learn_step         -> tells a real learn-rate gain
//                                             from one that skips updates
//  - core.checkpoint_us, core.restore_us,
//    core.restores                         -> learn_step_p99_us
//  - core.nn_deploy_us, apps.features_us, apps.env_step_us, core.extract_us
//    x core.extracts_per_step, core.serialize_us, core.write_back_us
//                                          -> deploy_steps_per_s and the
//                                             deploy latencies
//
// Noise facts N1-N4 (Workload.h) shaped the window interleaving, the
// from-scratch generations and the deployment samples, one per evaluation
// window.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "core/Engine.h"

#include <cmath>
#include <stdexcept>

using namespace perfbench;
using namespace au;
using au::apps::FlappyEnv;

namespace {

/// Profile length for Algorithm 2: long enough for the scripted player's
/// whole episode (it ends by itself within 250 steps), where the default
/// 200 steps stop short of it.
constexpr int ProfileSteps = 1000;
constexpr int Windows = 10;
constexpr int LearnPerWindow = 2000;
constexpr int DeployPerWindow = 2000;
constexpr int MaxEpisodeSteps = 400;

/// Layout in the high bits, per-episode jitter in the low byte (GameEnv).
uint64_t episodeSeed(uint64_t Level, uint64_t Episode) {
  return (Level << 8) | (Episode & 0xff);
}

class RlFlappy final : public Generation {
public:
  RlFlappy(RunState &St, uint64_t Seed);
  void run() override;

private:
  NameId extractState(Session &S, const FlappyEnv &E);
  void learnStep();
  void deployStep();
  void checkQValues();

  RunState &St;
  Tracer *const Tr;
  const uint64_t Seed;
  Engine Eng;
  Session Train{Eng, Mode::TR};
  Session Eval{Eng, Mode::TS};
  FlappyEnv Env;
  FlappyEnv EvalEnv;
  std::vector<NameId> Feats;
  std::vector<size_t> FeatIdx;
  NameId ModelId = InvalidNameId;
  WriteBackHandle Out;
  RlModel *Model = nullptr;

  float Reward = 0.0f;
  bool Term = false;
  int EpSteps = 0;
  long Episodes = 0;
  int EvalEpSteps = 0;
  uint64_t EvalEpisode = 0;
};

RlFlappy::RlFlappy(RunState &St, uint64_t Seed)
    : St(St), Tr(St.Tr), Seed(Seed) {
  std::vector<std::string> Names;
  {
    SpanScope S(Tr, LSelectFeatures);
    Names = apps::selectRlFeatures(Env, 1e-6, 1e-4, ProfileSteps);
  }

  ModelConfig C;
  C.Name = "flappy_all";
  C.Type = ModelType::DNN;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {32, 32};
  C.Seed = Seed;
  Model = static_cast<RlModel *>(Train.config(C));
  ModelId = Train.intern(C.Name);
  Out = {Train.intern("actionKey"), Env.numActions()};
  for (const std::string &N : Names)
    Feats.push_back(Train.intern(N));
  // The evaluation session mirrors every name interned above.
  Eval.intern(C.Name);

  Env.reset(episodeSeed(Seed, 0));
  std::vector<apps::Feature> Fs = Env.features();
  for (const std::string &N : Names) {
    size_t I = 0;
    while (I != Fs.size() && Fs[I].first != N)
      ++I;
    if (I == Fs.size())
      throw std::runtime_error("rl_flappy: selected feature " + N +
                               " is not exposed by the program");
    FeatIdx.push_back(I);
  }
  St.Chk.check(Names.size() == 5,
               "rl_flappy: Algorithm 2 did not select 5 features");

  Train.checkpoints().registerObject(&Env);
  {
    SpanScope S(Tr, LCheckpoint);
    Train.checkpoint();
  }

  // The first annotated iteration builds the DQN (online and target
  // networks, Adam state, replay ring): set-up work a user pays once.
  NameId Ext = extractState(Train, Env);
  Train.nn(ModelId, Ext, Reward, Term, Out);
  int Action = 0;
  Train.writeBack(Out.Name, Out.Size, &Action);
  Reward = Env.step(Action);
  Term = Env.terminal();
  EpSteps = 1;
}

NameId RlFlappy::extractState(Session &S, const FlappyEnv &E) {
  std::vector<apps::Feature> Fs;
  {
    SpanScope Sp(Tr, LFeatures);
    Fs = E.features();
  }
  for (size_t I = 0; I != Feats.size(); ++I) {
    SpanScope Sp(Tr, LExtract);
    S.extract(Feats[I], Fs[FeatIdx[I]].second);
  }
  SpanScope Sp(Tr, LSerialize);
  return S.serialize(Feats);
}

void RlFlappy::learnStep() {
  Iteration It(St, St.Learn, PLearn, 1);
  NameId Ext = extractState(Train, Env);
  {
    SpanScope S(Tr, LNnLearn);
    Train.nn(ModelId, Ext, Reward, Term, Out);
  }
  int Action = -1;
  {
    SpanScope S(Tr, LWriteBack);
    Train.writeBack(Out.Name, Out.Size, &Action);
  }
  St.Chk.check(Action >= 0 && Action < Out.Size,
               "rl_flappy: learning action out of range");

  if (Term) {
    // The au_NN above carried the terminal signal; roll back (or, every
    // eighth episode, start a fresh jittered one), as RlHarness::trainRl.
    ++Episodes;
    EpSteps = 0;
    Reward = 0.0f;
    Term = false;
    if (Episodes % 8 == 0) {
      Env.reset(episodeSeed(Seed, static_cast<uint64_t>(Episodes)));
      SpanScope S(Tr, LCheckpoint);
      Train.checkpoint();
    } else {
      SpanScope S(Tr, LRestore);
      Train.restore();
    }
    return;
  }
  {
    SpanScope S(Tr, LEnvStep);
    Reward = Env.step(Action);
  }
  Term = Env.terminal() || ++EpSteps >= MaxEpisodeSteps;
}

void RlFlappy::deployStep() {
  Iteration It(St, St.Deploy, PDeploy, 1);
  NameId Ext = extractState(Eval, EvalEnv);
  {
    SpanScope S(Tr, LNnDeploy);
    Eval.nn(ModelId, Ext, 0.0f, false, Out);
  }
  int Action = -1;
  {
    SpanScope S(Tr, LWriteBack);
    Eval.writeBack(Out.Name, Out.Size, &Action);
  }
  St.Chk.check(Action >= 0 && Action < Out.Size,
               "rl_flappy: greedy action out of range");
  {
    SpanScope S(Tr, LEnvStep);
    EvalEnv.step(Action);
  }
  if (EvalEnv.terminal() || ++EvalEpSteps >= MaxEpisodeSteps) {
    St.ProgressSum += EvalEnv.progress();
    ++St.ProgressEpisodes;
    EvalEnv.reset(episodeSeed(Seed, 100 + ++EvalEpisode));
    EvalEpSteps = 0;
  }
}

void RlFlappy::checkQValues() {
  std::vector<apps::Feature> Fs = EvalEnv.features();
  std::vector<float> State;
  for (size_t I : FeatIdx)
    State.push_back(Fs[I].second);
  bool Finite = true;
  for (float Q : Model->qValues(State))
    Finite = Finite && std::isfinite(Q);
  St.Chk.check(Finite, "rl_flappy: non-finite Q-value");
}

void RlFlappy::run() {
  for (int W = 0; W < Windows; ++W) {
    {
      Window Win(St.Learn);
      for (int I = 0; I < LearnPerWindow; ++I)
        learnStep();
    }
    // Each evaluation window replays the same episodes with the current
    // greedy policy.
    EvalEpisode = 0;
    EvalEnv.reset(episodeSeed(Seed, 100));
    EvalEpSteps = 0;
    const uint64_t Ops0 = St.Deploy.Ops;
    const int64_t WallNs0 = St.Deploy.WallNs;
    const size_t Step0 = St.Deploy.StepNs.size();
    {
      Window Win(St.Deploy);
      for (int I = 0; I < DeployPerWindow; ++I)
        deployStep();
    }
    // Greedy steps leave the model as it is, so evaluation windows are
    // alike, and each (~2 ms) runs in one host mode (noise fact N2).
    St.DeployWindows.addSample(St.Deploy, Ops0, WallNs0, Step0);
    checkQValues();
  }
  const nn::QLearner *L = Model->learner();
  St.count("nn.train_steps", static_cast<double>(L->trainStepsRun()));
  St.count("nn.replay_size", static_cast<double>(L->replaySize()));
}

} // namespace

std::unique_ptr<Generation> perfbench::makeRlFlappy(RunState &St,
                                                    uint64_t GenSeed) {
  return std::make_unique<RlFlappy>(St, GenSeed);
}
