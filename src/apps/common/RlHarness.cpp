//===- apps/common/RlHarness.cpp - Autonomization harness for RL ---------===//

#include "apps/common/RlHarness.h"

#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace au;
using namespace au::apps;

/// Level seeds carry the layout in the high bits and a per-episode jitter
/// in the low byte (see GameEnv).
static uint64_t makeSeed(uint64_t LevelSeed, uint64_t Episode) {
  return (LevelSeed << 8) | (Episode & 0xff);
}

std::string au::apps::rlModelName(const GameEnv &Env, RlVariant V) {
  return std::string(Env.name()) + (V == RlVariant::All ? "_all" : "_raw");
}

std::vector<std::string>
au::apps::selectRlFeatures(GameEnv &Env, double Epsilon1, double Epsilon2,
                           int ProfileSteps,
                           analysis::RlExtractionStats *Stats) {
  analysis::Tracer T;
  Env.profile(T, ProfileSteps);
  std::vector<std::string> Selected = analysis::extractRlFeaturesCombined(
      T, Env.targetVariables(), Epsilon1, Epsilon2, Stats);
  // Keep only variables the program can hand to au_extract every frame.
  Env.reset(0);
  std::vector<Feature> Live = Env.features();
  std::vector<std::string> Usable;
  for (const std::string &Name : Selected) {
    bool Found = false;
    for (const Feature &F : Live)
      Found = Found || F.first == Name;
    if (Found)
      Usable.push_back(Name);
  }
  assert(!Usable.empty() && "feature selection produced nothing extractable");
  return Usable;
}

namespace {
/// Interned handles for one drive loop (DESIGN.md §7): names are resolved
/// to NameIds once here, so the per-step extract/serialize/nn/write_back
/// path neither hashes nor copies a string. Handles come from the engine's
/// name table, which every Session of the engine indexes, so one handle set
/// is valid in all of them — the lane sessions of the parallel paths
/// included. Feature
/// positions within Env.features() are resolved once too, replacing the
/// per-step linear name search.
struct RlHandles {
  NameId Model = InvalidNameId;
  NameId Img = InvalidNameId;
  WriteBackHandle Output;
  std::vector<NameId> Features;   ///< Parallel to Opt.FeatureNames.
  std::vector<size_t> FeatureIdx; ///< Position in Env.features() (lazy).
};

/// K per-actor Sessions over one Engine (the DESIGN.md §10 shape of the §8
/// actor fleet). Every lane store indexes the engine's name table, so
/// handles interned before or after the pool opens are valid in each
/// lane, and opening a lane copies no names. On destruction
/// nothing folds automatically — callers fold the lanes' primitive counters
/// into the session whose stats they report (foldInto).
struct SessionPool {
  std::vector<std::unique_ptr<Session>> Lanes;
  std::vector<Session *> Ptrs; ///< Engine batcher argument form.

  SessionPool(Engine &Eng, Mode M, int K) {
    Lanes.reserve(static_cast<size_t>(K));
    Ptrs.reserve(static_cast<size_t>(K));
    for (int A = 0; A != K; ++A) {
      Lanes.push_back(std::make_unique<Session>(Eng, M));
      Ptrs.push_back(Lanes.back().get());
    }
  }

  Session &lane(int A) { return *Lanes[static_cast<size_t>(A)]; }

  void foldInto(Session &Main) {
    for (auto &L : Lanes)
      Main.foldStats(L->stats());
  }
};

/// \p N fresh environments from \p Factory, one per actor or lane.
std::vector<std::unique_ptr<GameEnv>> makeEnvs(const GameEnvFactory &Factory,
                                               int N) {
  std::vector<std::unique_ptr<GameEnv>> Envs;
  Envs.reserve(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    Envs.push_back(Factory());
    assert(Envs.back() && "factory produced no environment");
  }
  return Envs;
}
} // namespace

static RlHandles makeHandles(GameEnv &Env, Session &S,
                             const RlTrainOptions &Opt) {
  RlHandles H;
  H.Model = S.intern(rlModelName(Env, Opt.Variant));
  H.Output = {S.intern("output"), Env.numActions()};
  if (Opt.Variant == RlVariant::Raw) {
    H.Img = S.intern("IMG");
    return H;
  }
  H.Features.reserve(Opt.FeatureNames.size());
  for (const std::string &Name : Opt.FeatureNames)
    H.Features.push_back(S.intern(Name));
  return H;
}

/// Resolves the positions of Opt.FeatureNames within Env.features() into
/// \p H.FeatureIdx (the env must be reset). Idempotent; must run serially
/// before any parallel extraction uses \p H.
static void resolveFeatureIdx(GameEnv &Env, const RlTrainOptions &Opt,
                              RlHandles &H) {
  if (!H.FeatureIdx.empty())
    return;
  std::vector<Feature> Fs = Env.features();
  H.FeatureIdx.reserve(Opt.FeatureNames.size());
  for (const std::string &Name : Opt.FeatureNames) {
    size_t Idx = Fs.size();
    for (size_t I = 0; I != Fs.size(); ++I)
      if (Fs[I].first == Name) {
        Idx = I;
        break;
      }
    assert(Idx < Fs.size() && "selected feature not exposed by the env");
    H.FeatureIdx.push_back(Idx);
  }
}

/// Runs the au_extract / au_serialize prologue of one loop iteration in
/// lane session \p S and returns the combined extraction handle to feed
/// au_NN. \p H must be fully resolved (resolveFeatureIdx) — this runs
/// concurrently for distinct lanes, so it only reads the shared handle set.
static NameId extractStateLane(GameEnv &Env, Session &S,
                               const RlTrainOptions &Opt,
                               const RlHandles &H) {
  if (Opt.Variant == RlVariant::Raw) {
    Image Frame = Env.renderFrame(Opt.FrameSide);
    S.extract(H.Img, Frame.size(), Frame.data().data());
    return H.Img;
  }
  assert(!H.FeatureIdx.empty() && "feature positions not resolved");
  std::vector<Feature> Fs = Env.features();
  for (size_t I = 0, E = H.Features.size(); I != E; ++I) {
    assert(Fs[H.FeatureIdx[I]].first == Opt.FeatureNames[I] &&
           "env feature order changed between steps");
    S.extract(H.Features[I], Fs[H.FeatureIdx[I]].second);
  }
  return S.serialize(H.Features);
}

/// extractStateLane for the serial loops: on the first call the feature
/// positions within Env.features() are resolved and cached in \p H (the env
/// must be reset by then), replacing a per-step linear name search.
static NameId extractState(GameEnv &Env, Session &S,
                           const RlTrainOptions &Opt, RlHandles &H) {
  if (Opt.Variant == RlVariant::All)
    resolveFeatureIdx(Env, Opt, H);
  return extractStateLane(Env, S, Opt, H);
}

ModelConfig au::apps::rlModelConfig(const GameEnv &Env,
                                    const RlTrainOptions &Opt) {
  ModelConfig C;
  C.Name = rlModelName(Env, Opt.Variant);
  C.Type = Opt.Variant == RlVariant::Raw ? ModelType::CNN : ModelType::DNN;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = Opt.Hidden;
  C.FrameSide = Opt.FrameSide;
  C.FrameChannels = 1;
  C.Seed = Opt.Seed + (Opt.Variant == RlVariant::Raw ? 1000 : 0);
  return C;
}

/// Configures (or finds) the model for this env/variant pair.
static Model *configureModel(GameEnv &Env, Session &S,
                             const RlTrainOptions &Opt) {
  Model *M = S.config(rlModelConfig(Env, Opt));
  if (!M->isBuilt())
    static_cast<RlModel *>(M)->setQConfig(Opt.QCfg);
  return M;
}

RlTrainResult au::apps::trainRl(GameEnv &Env, Session &S,
                                const RlTrainOptions &Opt) {
  assert(S.mode() == Mode::TR && "training requires TR mode");
  RlTrainResult Res;
  Res.ModelName = rlModelName(Env, Opt.Variant);
  Model *M = configureModel(Env, S, Opt);
  RlHandles H = makeHandles(Env, S, Opt);

  S.checkpoints().registerObject(&Env);
  Env.reset(makeSeed(Opt.Seed, 0));
  {
    Timer T;
    S.checkpoint();
    Res.CheckpointSeconds = T.seconds();
  }

  size_t TraceStart = S.stats().traceBytes();
  double RestoreTotal = 0.0;
  long Restores = 0;

  Timer TrainTimer;
  float Reward = 0.0f;
  bool Term = false;
  int EpisodeSteps = 0;

  while (Res.StepsRun < Opt.TrainSteps) {
    NameId ExtId = extractState(Env, S, Opt, H);
    S.nn(H.Model, ExtId, Reward, Term, H.Output);
    int Action = 0;
    S.writeBack(H.Output.Name, Env.numActions(), &Action);

    if (Term) {
      ++Res.Episodes;
      EpisodeSteps = 0;
      Reward = 0.0f;
      Term = false;
      if (Res.Episodes % 8 == 0) {
        // Periodically start from a fresh jittered episode (and re-arm the
        // checkpoint) so learning sees level variation.
        Env.reset(makeSeed(Opt.Seed, Res.Episodes));
        S.checkpoint();
      } else {
        Timer T;
        S.restore();
        RestoreTotal += T.seconds();
        ++Restores;
      }
      continue;
    }

    Reward = Env.step(Action);
    Term = Env.terminal();
    ++Res.StepsRun;
    if (++EpisodeSteps >= Opt.MaxEpisodeSteps)
      Term = true; // Truncate over-long episodes.

    if (Opt.EvalEvery > 0 && Res.StepsRun % Opt.EvalEvery == 0) {
      RlEvalResult E = evalRl(Env, S, Opt, Opt.EvalEpisodes);
      Res.Curve.push_back({Res.StepsRun, E.MeanProgress, E.SuccessRate});
    }
  }

  Res.TrainSeconds = TrainTimer.seconds();
  Res.TraceBytes = S.stats().traceBytes() - TraceStart;
  Res.ModelBytes = M->modelSizeBytes();
  Res.NumParams = M->numParams();
  if (Restores > 0)
    Res.RestoreSeconds = RestoreTotal / static_cast<double>(Restores);
  return Res;
}

RlTrainResult au::apps::trainRlParallel(const GameEnvFactory &Factory,
                                        Engine &Eng, Session &Main,
                                        const RlTrainOptions &Opt,
                                        int NumActors) {
  assert(Main.mode() == Mode::TR && "training requires TR mode");
  assert(NumActors > 0 && "need at least one actor");
  const int K = NumActors;
  std::vector<std::unique_ptr<GameEnv>> Envs = makeEnvs(Factory, K);

  RlTrainResult Res;
  Res.ModelName = rlModelName(*Envs[0], Opt.Variant);
  Model *M = configureModel(*Envs[0], Main, Opt);
  static_cast<RlModel *>(M)->configureActors(K);
  RlHandles H = makeHandles(*Envs[0], Main, Opt);

  SessionPool Pool(Eng, Main.mode(), K);

  // Actor k opens the fleet on episode jitter k; later episodes draw fresh
  // jitters from one global counter, assigned serially in actor order so
  // the seed sequence is thread-count independent. (Unlike trainRl there is
  // no checkpoint/restore rollback — K actors restarting from one shared
  // snapshot would collapse the fleet's level diversity; see DESIGN.md §8.)
  for (int A = 0; A < K; ++A)
    Envs[static_cast<size_t>(A)]->reset(
        makeSeed(Opt.Seed, static_cast<uint64_t>(A)));
  uint64_t NextJitter = static_cast<uint64_t>(K);
  if (Opt.Variant == RlVariant::All)
    resolveFeatureIdx(*Envs[0], Opt, H);

  size_t TraceStart = Main.stats().traceBytes();
  Timer TrainTimer;

  std::vector<NameId> ExtIds(static_cast<size_t>(K), InvalidNameId);
  std::vector<float> Rewards(static_cast<size_t>(K), 0.0f);
  std::vector<uint8_t> Terms(static_cast<size_t>(K), 0);
  std::vector<int> EpSteps(static_cast<size_t>(K), 0);
  long PrevSteps = 0;

  while (Res.StepsRun < Opt.TrainSteps) {
    // 1. Extract + serialize every actor's state into its own lane session.
    for (int A = 0; A < K; ++A)
      ExtIds[static_cast<size_t>(A)] =
          extractStateLane(*Envs[static_cast<size_t>(A)], Pool.lane(A), Opt, H);

    // 2. One fused au_NN for the whole fleet: observe the completed
    // transitions, advance the training schedule, select K actions with a
    // single batched forward.
    Eng.nnRlSessions(H.Model, Pool.Ptrs.data(), ExtIds.data(), Rewards.data(),
                     Terms.data(), K, H.Output, /*Learning=*/true);

    // 3. In fixed actor order: an actor whose episode just ended restarts
    // (its au_NN above carried the terminal signal, mirroring trainRl's
    // `continue`); every other actor writes back and steps.
    for (int A = 0; A < K; ++A) {
      size_t AI = static_cast<size_t>(A);
      GameEnv &Env = *Envs[AI];
      if (Terms[AI]) {
        ++Res.Episodes;
        EpSteps[AI] = 0;
        Rewards[AI] = 0.0f;
        Terms[AI] = 0;
        Env.reset(makeSeed(Opt.Seed, NextJitter++));
        continue;
      }
      int Action = 0;
      Pool.lane(A).writeBack(H.Output.Name, Env.numActions(), &Action);
      Rewards[AI] = Env.step(Action);
      Terms[AI] = Env.terminal() ? 1 : 0;
      ++Res.StepsRun;
      if (++EpSteps[AI] >= Opt.MaxEpisodeSteps)
        Terms[AI] = 1; // Truncate over-long episodes.
    }

    // Periodic greedy evaluation, once per EvalEvery boundary crossed (a
    // tick advances up to K steps at once).
    if (Opt.EvalEvery > 0 &&
        Res.StepsRun / Opt.EvalEvery > PrevSteps / Opt.EvalEvery) {
      RlEvalResult E = evalRlBatched(Factory, Eng, Main, Opt,
                                     Opt.EvalEpisodes);
      Res.Curve.push_back({Res.StepsRun, E.MeanProgress, E.SuccessRate});
    }
    PrevSteps = Res.StepsRun;
  }

  Res.TrainSeconds = TrainTimer.seconds();
  Pool.foldInto(Main);
  Res.TraceBytes = Main.stats().traceBytes() - TraceStart;
  Res.ModelBytes = M->modelSizeBytes();
  Res.NumParams = M->numParams();
  return Res;
}

RlEvalResult au::apps::evalRlBatched(const GameEnvFactory &Factory,
                                     Engine &Eng, Session &Main,
                                     const RlTrainOptions &Opt,
                                     int Episodes) {
  assert(Episodes > 0 && "evaluation needs at least one episode");
  std::vector<std::unique_ptr<GameEnv>> Envs = makeEnvs(Factory, Episodes);
  RlHandles H = makeHandles(*Envs[0], Main, Opt);
  assert(Main.getModel(H.Model) && "evaluating an unconfigured model");

  // One deployment-mode lane session per episode; learning is off at the
  // engine batcher, so training chains are never disturbed regardless of
  // Main's mode.
  SessionPool Pool(Eng, Mode::TS, Episodes);

  // Same per-episode seeds as the serial evalRl.
  for (int Ep = 0; Ep < Episodes; ++Ep)
    Envs[static_cast<size_t>(Ep)]->reset(
        makeSeed(Opt.Seed, 100 + static_cast<uint64_t>(Ep)));
  if (Opt.Variant == RlVariant::All)
    resolveFeatureIdx(*Envs[0], Opt, H);

  auto EnvOf = [&](int Ep) -> GameEnv & {
    return *Envs[static_cast<size_t>(Ep)];
  };
  RlEvalResult Res;
  Timer T;
  long Steps = 0;

  // Live lanes run in lockstep; lane i of a tick uses lane session i, so
  // the session mapping is a pure function of which episodes are still
  // running. Finished lanes retire in fixed episode order.
  std::vector<int> Live;
  std::vector<int> EpSteps(static_cast<size_t>(Episodes), 0);
  for (int Ep = 0; Ep < Episodes; ++Ep) {
    if (EnvOf(Ep).terminal()) {
      Res.MeanProgress += EnvOf(Ep).progress();
      Res.SuccessRate += EnvOf(Ep).success() ? 1.0 : 0.0;
    } else {
      Live.push_back(Ep);
    }
  }

  std::vector<NameId> ExtIds;
  std::vector<float> ZeroRewards;
  std::vector<uint8_t> NoTerms;
  while (!Live.empty()) {
    int M = static_cast<int>(Live.size());
    ExtIds.assign(static_cast<size_t>(M), InvalidNameId);
    for (int I = 0; I < M; ++I)
      ExtIds[static_cast<size_t>(I)] = extractStateLane(
          EnvOf(Live[static_cast<size_t>(I)]), Pool.lane(I), Opt, H);
    ZeroRewards.assign(static_cast<size_t>(M), 0.0f);
    NoTerms.assign(static_cast<size_t>(M), 0);
    Eng.nnRlSessions(H.Model, Pool.Ptrs.data(), ExtIds.data(),
                     ZeroRewards.data(), NoTerms.data(), M, H.Output,
                     /*Learning=*/false);
    for (int I = 0; I < M; ++I) {
      GameEnv &Env = EnvOf(Live[static_cast<size_t>(I)]);
      int Action = 0;
      Pool.lane(I).writeBack(H.Output.Name, Env.numActions(), &Action);
      Env.step(Action);
    }
    Steps += M;

    std::vector<int> Next;
    Next.reserve(Live.size());
    for (int I = 0; I < M; ++I) {
      int Ep = Live[static_cast<size_t>(I)];
      ++EpSteps[static_cast<size_t>(Ep)];
      if (EnvOf(Ep).terminal() ||
          EpSteps[static_cast<size_t>(Ep)] >= Opt.MaxEpisodeSteps) {
        Res.MeanProgress += EnvOf(Ep).progress();
        Res.SuccessRate += EnvOf(Ep).success() ? 1.0 : 0.0;
      } else {
        Next.push_back(Ep);
      }
    }
    Live.swap(Next);
  }

  Res.MeanProgress /= Episodes;
  Res.SuccessRate /= Episodes;
  Res.MeanStepSeconds =
      Steps > 0 ? T.seconds() / static_cast<double>(Steps) : 0;
  Pool.foldInto(Main);
  return Res;
}

RlEvalResult au::apps::evalRl(GameEnv &Env, Session &S,
                              const RlTrainOptions &Opt, int Episodes) {
  assert(Episodes > 0 && "evaluation needs at least one episode");
  RlHandles H = makeHandles(Env, S, Opt);
  assert(S.getModel(H.Model) && "evaluating an unconfigured model");

  // Evaluation must not disturb training: stash the env state and switch
  // the session to deployment mode for the duration.
  std::vector<uint8_t> Saved;
  Env.saveState(Saved);
  Mode PrevMode = S.mode();
  S.switchMode(Mode::TS);

  RlEvalResult Res;
  double StepTime = 0.0;
  long Steps = 0;
  for (int Ep = 0; Ep < Episodes; ++Ep) {
    Env.reset(makeSeed(Opt.Seed, 100 + static_cast<uint64_t>(Ep)));
    int EpSteps = 0;
    while (!Env.terminal() && EpSteps < Opt.MaxEpisodeSteps) {
      Timer T;
      NameId ExtId = extractState(Env, S, Opt, H);
      S.nn(H.Model, ExtId, 0.0f, false, H.Output);
      int Action = 0;
      S.writeBack(H.Output.Name, Env.numActions(), &Action);
      Env.step(Action);
      StepTime += T.seconds();
      ++Steps;
      ++EpSteps;
    }
    Res.MeanProgress += Env.progress();
    Res.SuccessRate += Env.success() ? 1.0 : 0.0;
  }
  Res.MeanProgress /= Episodes;
  Res.SuccessRate /= Episodes;
  Res.MeanStepSeconds = Steps > 0 ? StepTime / static_cast<double>(Steps) : 0;

  S.switchMode(PrevMode);
  Env.loadState(Saved);
  return Res;
}

/// Shared scripted-policy evaluation loop.
static RlEvalResult evalScripted(GameEnv &Env, const RlTrainOptions &Opt,
                                 int Episodes, bool Random) {
  RlEvalResult Res;
  Rng R(Opt.Seed * 77 + 5);
  double StepTime = 0.0;
  long Steps = 0;
  for (int Ep = 0; Ep < Episodes; ++Ep) {
    Env.reset(makeSeed(Opt.Seed, 100 + static_cast<uint64_t>(Ep)));
    int EpSteps = 0;
    while (!Env.terminal() && EpSteps < Opt.MaxEpisodeSteps) {
      Timer T;
      int Action = Random ? static_cast<int>(R.uniformInt(Env.numActions()))
                          : Env.heuristicAction(R);
      Env.step(Action);
      StepTime += T.seconds();
      ++Steps;
      ++EpSteps;
    }
    Res.MeanProgress += Env.progress();
    Res.SuccessRate += Env.success() ? 1.0 : 0.0;
  }
  Res.MeanProgress /= Episodes;
  Res.SuccessRate /= Episodes;
  Res.MeanStepSeconds = Steps > 0 ? StepTime / static_cast<double>(Steps) : 0;
  return Res;
}

RlEvalResult au::apps::evalHeuristic(GameEnv &Env, const RlTrainOptions &Opt,
                                     int Episodes) {
  return evalScripted(Env, Opt, Episodes, /*Random=*/false);
}

RlEvalResult au::apps::evalRandom(GameEnv &Env, const RlTrainOptions &Opt,
                                  int Episodes) {
  return evalScripted(Env, Opt, Episodes, /*Random=*/true);
}

double au::apps::baselineStepSeconds(GameEnv &Env, const RlTrainOptions &Opt,
                                     int Episodes) {
  RlEvalResult R = evalScripted(Env, Opt, Episodes, /*Random=*/false);
  return R.MeanStepSeconds;
}
