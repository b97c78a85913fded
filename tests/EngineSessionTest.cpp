//===- tests/EngineSessionTest.cpp - Engine/Session architecture ---------===//
//
// The Engine/Session split of DESIGN.md §10: the one name table every
// session's store indexes (also under concurrent interning), replica/live
// prediction equivalence, the cross-session inference
// batcher (also with rows wide enough that its gather goes to the pool),
// the one RL au_NN step shared by a single session and the fleet
// batcher (and its allocation-free steady state), and a multi-tenant
// stress test with concurrent TS readers under a live TR trainer. The
// stress tests double as race detectors under the TSan CI job.
//
//===----------------------------------------------------------------------===//

#include "HeapCounter.h"
#include "core/Engine.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace au;

//===----------------------------------------------------------------------===//
// One name table per engine
//===----------------------------------------------------------------------===//

TEST(EngineSession, DirectStoreInternIsTheEngineIntern) {
  Engine Eng;
  Session S(Eng, Mode::TR);
  NameId A = S.intern("a");
  // The session's store indexes the engine's table, so interning through
  // db() is the engine's intern, and the session keeps working after it.
  NameId Rogue = S.db().intern("rogue");
  EXPECT_EQ(Rogue, Eng.intern("rogue"));
  NameId B = S.intern("b");
  EXPECT_EQ(B, Eng.intern("b"));
  EXPECT_NE(A, Rogue);
  EXPECT_NE(B, Rogue);

  S.extract(Rogue, 1.0f);
  S.extract(B, 2.0f);
  NameId C = S.serialize(std::vector<NameId>{Rogue, B});
  EXPECT_EQ(C, Eng.intern("rogueb"));
  EXPECT_EQ(S.db().get(C), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_FALSE(S.db().contains(Rogue));
  EXPECT_FALSE(S.db().contains(B));
}

TEST(EngineSession, SessionsMirrorNamesInternedAnywhere) {
  Engine Eng;
  Session A(Eng, Mode::TR);
  NameId X = A.intern("x");
  // A session created later indexes the same table.
  Session B(Eng, Mode::TR);
  EXPECT_EQ(B.intern("x"), X);
  // A name interned through B is visible to A under the same id.
  NameId Y = B.intern("y");
  EXPECT_EQ(A.intern("y"), Y);
  EXPECT_EQ(Eng.nameOf(Y), "y");
}

//===----------------------------------------------------------------------===//
// Parameter-snapshot publication and serving replicas
//===----------------------------------------------------------------------===//

namespace {
constexpr int FeatDim = 4;
constexpr int OutDim = 2;

/// Trains a small supervised DNN in \p Trainer (publishing a snapshot) and
/// returns its handle.
NameId trainSmallModel(Engine &Eng, Session &Trainer, const char *Name) {
  ModelConfig Cfg;
  Cfg.Name = Name;
  Cfg.HiddenLayers = {8, 8};
  Cfg.Seed = 99;
  Trainer.config(Cfg);
  NameId ModelId = Trainer.intern(Name);
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), OutDim};
  for (int I = 0; I < 32; ++I) {
    float X[FeatDim];
    for (int J = 0; J < FeatDim; ++J)
      X[J] = 0.1f * static_cast<float>(I + J);
    Trainer.extract(Feat, FeatDim, X);
    Trainer.nn(ModelId, Feat, {Out});
    float Label[OutDim] = {X[0] + X[1], X[2] - X[3]};
    Trainer.writeBack(Out.Name, OutDim, Label);
  }
  Trainer.trainSupervised(Name, /*Epochs=*/4, /*BatchSize=*/8);
  EXPECT_GT(Eng.modelVersion(ModelId), 0u);
  return ModelId;
}

void probeRow(int K, float *X) {
  for (int J = 0; J < FeatDim; ++J)
    X[J] = 0.3f + 0.05f * static_cast<float>(K) + 0.01f * static_cast<float>(J);
}
} // namespace

TEST(EngineSession, HandleInternedBySiblingSessionNeedsNoLocalIntern) {
  Engine Eng;
  Session A(Eng, Mode::TS); // Opened before any of the names below exist.
  Session B(Eng, Mode::TR);
  // B interns the model, its output and the feature, and trains the model.
  NameId ModelId = trainSmallModel(Eng, B, "M");
  WriteBackHandle Out{B.intern("out"), OutDim};
  NameId Lo = B.intern("lo"), Hi = B.intern("hi");

  // A runs extract -> serialize -> au_NN -> write_back on B's handles
  // without interning any of them itself.
  float X[FeatDim];
  probeRow(0, X);
  A.extract(Lo, FeatDim / 2, X);
  A.extract(Hi, FeatDim / 2, X + FeatDim / 2);
  NameId Ext = A.serialize(std::vector<NameId>{Lo, Hi});
  EXPECT_EQ(B.intern("lohi"), Ext);
  A.nn(ModelId, Ext, {Out});
  float Pred[OutDim];
  A.writeBack(Out.Name, OutDim, Pred);

  std::vector<float> Expected;
  static_cast<SlModel *>(Eng.getModel(ModelId))
      ->predictRows(X, /*Rows=*/1, Expected);
  ASSERT_EQ(Expected.size(), static_cast<size_t>(OutDim));
  for (int J = 0; J < OutDim; ++J)
    EXPECT_EQ(Pred[J], Expected[static_cast<size_t>(J)]);
}

TEST(EngineSession, SharedInferenceMatchesLiveModelBitwise) {
  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");

  Session Live(Eng, Mode::TS);
  Session Shared(Eng, Mode::TS);
  Shared.setSharedInference(true);

  NameId Feat = Live.intern("feat");
  WriteBackHandle Out{Live.intern("out"), OutDim};

  float X[FeatDim];
  probeRow(0, X);
  float FromLive[OutDim], FromShared[OutDim];

  Live.extract(Feat, FeatDim, X);
  Live.nn(ModelId, Feat, {Out});
  Live.writeBack(Out.Name, OutDim, FromLive);

  Shared.extract(Feat, FeatDim, X);
  Shared.nn(ModelId, Feat, {Out});
  Shared.writeBack(Out.Name, OutDim, FromShared);

  // The replica runs the same predictRowsInto code path over the same
  // parameters, so the results are bitwise identical.
  EXPECT_EQ(Shared.servingVersion(ModelId), Eng.modelVersion(ModelId));
  for (int J = 0; J < OutDim; ++J)
    EXPECT_EQ(FromLive[J], FromShared[J]);
}

TEST(EngineSession, NnBatchSessionsMatchesPerSessionCalls) {
  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M");

  constexpr int K = 4;
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), OutDim};
  std::vector<WriteBackHandle> Outs{Out};

  // Batched: K sessions, one fused forwardBatch.
  std::vector<std::unique_ptr<Session>> Batch;
  std::vector<Session *> Ptrs;
  std::vector<NameId> ExtIds(K, Feat);
  for (int S = 0; S < K; ++S) {
    Batch.push_back(std::make_unique<Session>(Eng, Mode::TS));
    Ptrs.push_back(Batch.back().get());
    float X[FeatDim];
    probeRow(S, X);
    Batch.back()->extract(Feat, FeatDim, X);
  }
  Eng.nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), K, Outs);

  // Per-session: the same probe rows through the single-call path.
  for (int S = 0; S < K; ++S) {
    float FromBatch[OutDim], FromSingle[OutDim];
    Batch[static_cast<size_t>(S)]->writeBack(Out.Name, OutDim, FromBatch);

    Session Single(Eng, Mode::TS);
    float X[FeatDim];
    probeRow(S, X);
    Single.extract(Feat, FeatDim, X);
    Single.nn(ModelId, Feat, {Out});
    Single.writeBack(Out.Name, OutDim, FromSingle);

    for (int J = 0; J < OutDim; ++J)
      EXPECT_EQ(FromSingle[J], FromBatch[J]) << "session " << S;
    // Each session counted its own au_NN.
    EXPECT_EQ(Batch[static_cast<size_t>(S)]->stats().NumNn, 1u);
  }
}

TEST(EngineSession, DispatchedGatherMatchesPerSessionCalls) {
  // Rows wide enough that the cross-session gather goes to the pool (two
  // full chunks of MinChunkWork floats over 8 sessions), so concurrent
  // chunks fill distinct sessions' views; under TSan this watches them.
  constexpr int K = 8;
  const int Wide = static_cast<int>(ThreadPool::MinChunkWork / 4);
  ASSERT_GE(K / ThreadPool::grainFor(static_cast<size_t>(Wide)), 2u);
  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  ModelConfig Cfg;
  Cfg.Name = "wide";
  Cfg.HiddenLayers = {4};
  Cfg.Seed = 7;
  Trainer.config(Cfg);
  NameId ModelId = Trainer.intern("wide");
  NameId Feat = Trainer.intern("feat");
  WriteBackHandle Out{Trainer.intern("out"), 1};
  auto Row = [&](int Tag) {
    std::vector<float> X(static_cast<size_t>(Wide));
    for (int J = 0; J < Wide; ++J)
      X[static_cast<size_t>(J)] =
          0.001f * static_cast<float>((J * 7 + Tag) % 97);
    return X;
  };
  for (int I = 0; I < 2; ++I) {
    std::vector<float> X = Row(I);
    Trainer.extract(Feat, X.size(), X.data());
    Trainer.nn(ModelId, Feat, {Out});
    float Label = static_cast<float>(I);
    Trainer.writeBack(Out.Name, 1, &Label);
  }
  Trainer.trainSupervised("wide", /*Epochs=*/1, /*BatchSize=*/2);

  std::vector<std::unique_ptr<Session>> Batch;
  std::vector<Session *> Ptrs;
  std::vector<NameId> ExtIds(K, Feat);
  for (int S = 0; S < K; ++S) {
    Batch.push_back(std::make_unique<Session>(Eng, Mode::TS));
    Ptrs.push_back(Batch.back().get());
    std::vector<float> X = Row(S);
    Batch.back()->extract(Feat, X.size(), X.data());
  }
  Eng.nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), K, {Out});

  for (int S = 0; S < K; ++S) {
    float FromBatch = 0.0f, FromSingle = 0.0f;
    Batch[static_cast<size_t>(S)]->writeBack(Out.Name, 1, &FromBatch);
    Session Single(Eng, Mode::TS);
    std::vector<float> X = Row(S);
    Single.extract(Feat, X.size(), X.data());
    Single.nn(ModelId, Feat, {Out});
    Single.writeBack(Out.Name, 1, &FromSingle);
    EXPECT_EQ(FromSingle, FromBatch) << "session " << S;
  }
}

//===----------------------------------------------------------------------===//
// One RL au_NN step (DESIGN.md §8)
//===----------------------------------------------------------------------===//

namespace {
constexpr int RlDim = 3;
constexpr int RlActions = 3;

/// Configures a small Q-learning model "agent" in \p S that starts training
/// after 32 steps, so a few hundred steps cover exploration, minibatch
/// training and target syncs.
RlModel *configureAgent(Session &S, int ReplayCapacity) {
  ModelConfig C;
  C.Name = "agent";
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  C.Seed = 17;
  auto *M = static_cast<RlModel *>(S.config(C));
  nn::QConfig Q;
  Q.WarmupSteps = 32;
  Q.BatchSize = 8;
  Q.ReplayCapacity = ReplayCapacity;
  Q.EpsilonDecaySteps = 300;
  Q.TargetSyncInterval = 50;
  M->setQConfig(Q);
  return M;
}
} // namespace

TEST(EngineSession, SingleSessionRlStepIsTheOneLaneFleetStep) {
  // A single session's TR loop through Session::nn and a K = 1 fleet loop
  // through Engine::nnRlSessions, fed the same states, rewards and
  // terminals, are one computation: the same action at every step and
  // bit-identical Q-values at the end.
  constexpr int Steps = 400;
  Rng Data(91);
  std::vector<float> States(static_cast<size_t>(Steps) * RlDim);
  std::vector<float> Rewards(Steps);
  std::vector<uint8_t> Terms(Steps);
  for (float &X : States)
    X = static_cast<float>(Data.uniform(-1, 1));
  for (int I = 0; I < Steps; ++I) {
    Rewards[static_cast<size_t>(I)] = static_cast<float>(Data.uniform(-1, 1));
    Terms[static_cast<size_t>(I)] = Data.chance(0.05) ? 1 : 0;
  }

  Engine SoloEng, FleetEng;
  Session Solo(SoloEng, Mode::TR), Lane(FleetEng, Mode::TR);
  RlModel *SoloModel = configureAgent(Solo, /*ReplayCapacity=*/1000);
  RlModel *FleetModel = configureAgent(Lane, /*ReplayCapacity=*/1000);
  FleetModel->configureActors(1); // As trainRlParallel sizes its lanes.
  NameId SoloId = Solo.intern("agent"), SoloX = Solo.intern("x");
  WriteBackHandle SoloOut{Solo.intern("act"), RlActions};
  NameId FleetId = Lane.intern("agent"), FleetX = Lane.intern("x");
  WriteBackHandle FleetOut{Lane.intern("act"), RlActions};
  Session *LanePtr = &Lane;

  for (int I = 0; I < Steps; ++I) {
    size_t SI = static_cast<size_t>(I);
    const float *Row = States.data() + SI * RlDim;
    Solo.extract(SoloX, RlDim, Row);
    Solo.nn(SoloId, SoloX, Rewards[SI], Terms[SI] != 0, SoloOut);
    int SoloAction = -1;
    Solo.writeBack(SoloOut.Name, RlActions, &SoloAction);

    Lane.extract(FleetX, RlDim, Row);
    FleetEng.nnRlSessions(FleetId, &LanePtr, &FleetX, &Rewards[SI],
                          &Terms[SI], /*K=*/1, FleetOut, /*Learning=*/true);
    int FleetAction = -1;
    Lane.writeBack(FleetOut.Name, RlActions, &FleetAction);
    ASSERT_EQ(SoloAction, FleetAction) << "step " << I;
  }

  ASSERT_GT(SoloModel->learner()->trainStepsRun(), 0);
  EXPECT_EQ(SoloModel->learner()->stepsObserved(),
            FleetModel->learner()->stepsObserved());
  for (float P : {-0.5f, 0.0f, 0.7f}) {
    std::vector<float> Probe(RlDim, P);
    EXPECT_EQ(SoloModel->qValues(Probe), FleetModel->qValues(Probe))
        << "probe " << P;
  }
}

TEST(EngineSession, WarmRlTrainingLoopAllocatesNothing) {
  // DESIGN.md §7: once warm, a TR loop's primitives allocate nothing: the
  // RL au_NN (exploration, recording into the wrapped replay ring,
  // minibatch training and target syncs), the serialize copy, and the
  // checkpoint/restore copies of sigma and pi.
  Engine Eng;
  Session S(Eng, Mode::TR);
  RlModel *M = configureAgent(S, /*ReplayCapacity=*/500);
  NameId ModelId = S.intern("agent");
  std::vector<NameId> Parts = {S.intern("px"), S.intern("py"),
                               S.intern("pz")};
  WriteBackHandle Out{S.intern("act"), RlActions};
  // Program state sigma: a POD region, checkpointed at each episode start
  // and rolled back at each terminal, as rl_flappy's loop does.
  float World[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  S.checkpoints().registerRegion(World, sizeof(World));

  auto Step = [&](int I) {
    if (I % 50 == 0) {
      World[0] = static_cast<float>(I); // This episode's start state.
      S.checkpoint();
    }
    World[I % 4] += 1.0f;
    for (size_t J = 0; J != Parts.size(); ++J)
      S.extract(Parts[J], std::sin(0.1f * static_cast<float>(I) +
                                   static_cast<float>(J)));
    NameId Ext = S.serialize(Parts);
    const bool Terminal = I % 50 == 49;
    S.nn(ModelId, Ext, /*Reward=*/std::cos(0.3f * static_cast<float>(I)),
         Terminal, Out);
    int Action = -1;
    S.writeBack(Out.Name, RlActions, &Action);
    if (Terminal)
      S.restore();
  };

  // 600 steps: the 500-transition ring has wrapped and every buffer has
  // reached its high-water mark.
  for (int I = 0; I < 600; ++I)
    Step(I);
  // Guards against the counting operators not being linked in, which would
  // make the assertion below pass vacuously.
  ASSERT_GT(heapAllocs(), 0);
  long ObservedBefore = M->learner()->stepsObserved();
  long TrainedBefore = M->learner()->trainStepsRun();
  SessionStats StatsBefore = S.stats();

  long Before = heapAllocs();
  for (int I = 600; I < 800; ++I)
    Step(I);
  long Allocs = heapAllocs() - Before;

  EXPECT_EQ(Allocs, 0);
  // The measured window trained and crossed a target sync.
  EXPECT_GT(M->learner()->trainStepsRun(), TrainedBefore);
  EXPECT_NE(ObservedBefore / 50, M->learner()->stepsObserved() / 50);
  // It checkpointed and restored every episode, and the last restore
  // rolled sigma back to the episode start.
  EXPECT_EQ(S.stats().NumCheckpoint - StatsBefore.NumCheckpoint, 4u);
  EXPECT_EQ(S.stats().NumRestore - StatsBefore.NumRestore, 4u);
  EXPECT_FLOAT_EQ(World[0], 750.0f);
  EXPECT_FLOAT_EQ(World[1], 0.0f);
}

//===----------------------------------------------------------------------===//
// Multi-tenant stress: 8 concurrent TS readers under a live TR trainer
//===----------------------------------------------------------------------===//

TEST(EngineSessionStress, ConcurrentReadersUnderLiveTrainer) {
  constexpr int NumReaders = 8;
  constexpr int NumVersions = 12;
  constexpr int ReadsPerReader = 200;

  Engine Eng;
  Session Trainer(Eng, Mode::TR);
  NameId ModelId = trainSmallModel(Eng, Trainer, "M"); // publishes v1

  NameId Feat = Trainer.intern("feat");
  NameId OutName = Trainer.intern("out");

  // Expected[v][k]: the bitwise-exact prediction version v must produce
  // for reader k's probe row. Written by the trainer thread right after
  // publishing v; MaxVerified's release-store makes the slot visible.
  // Readers record their observations and the main thread checks them
  // after the join, so the readers themselves never race on Expected.
  std::vector<std::vector<float>> Expected(NumVersions + 1);
  std::atomic<uint64_t> MaxVerified{0};

  auto recordExpected = [&](uint64_t V) {
    ASSERT_LE(V, static_cast<uint64_t>(NumVersions));
    auto *Sl = static_cast<SlModel *>(Eng.getModel(ModelId));
    ASSERT_NE(Sl, nullptr);
    std::vector<float> Rows(static_cast<size_t>(NumReaders) * FeatDim);
    for (int KR = 0; KR < NumReaders; ++KR)
      probeRow(KR, Rows.data() + static_cast<size_t>(KR) * FeatDim);
    // The trainer owns the live model; published snapshots carry exactly
    // its parameters, and replica serving is bitwise-equal to this call.
    Sl->predictRows(Rows.data(), NumReaders, Expected[V]);
    MaxVerified.store(V, std::memory_order_release);
  };
  recordExpected(Eng.modelVersion(ModelId));

  // Reader sessions are created up front (session construction is cheap
  // but the test pins each thread to exactly one session for its
  // lifetime — the ISSUE's serving scenario).
  std::vector<std::unique_ptr<Session>> Readers;
  for (int KR = 0; KR < NumReaders; ++KR) {
    Readers.push_back(std::make_unique<Session>(Eng, Mode::TS));
    Readers.back()->setSharedInference(true);
  }

  struct Observation {
    uint64_t Version;
    float Pred[OutDim];
  };
  std::vector<std::vector<Observation>> Seen(NumReaders);
  // Set once the trainer thread has published its last version. Readers
  // serve until then (and at least ReadsPerReader times), so every reader
  // overlaps the trainer however the threads are scheduled.
  std::atomic<bool> TrainerDone{false};

  std::vector<std::thread> Threads;
  for (int KR = 0; KR < NumReaders; ++KR) {
    Threads.emplace_back([&, KR] {
      Session &S = *Readers[static_cast<size_t>(KR)];
      WriteBackHandle Out{OutName, OutDim};
      float X[FeatDim];
      probeRow(KR, X);
      uint64_t PrevV = 0;
      auto &Obs = Seen[static_cast<size_t>(KR)];
      Obs.reserve(ReadsPerReader);
      for (int I = 0;
           I < ReadsPerReader || !TrainerDone.load(std::memory_order_acquire);
           ++I) {
        S.extract(Feat, FeatDim, X);
        S.nn(ModelId, Feat, {Out});
        Observation O;
        O.Version = S.servingVersion(ModelId);
        S.writeBack(Out.Name, OutDim, O.Pred);
        // Versions move forward only.
        ASSERT_GE(O.Version, PrevV);
        PrevV = O.Version;
        Obs.push_back(O);
      }
    });
  }

  // The trainer keeps updating the same model while the readers serve.
  std::thread TrainerThread([&] {
    for (int V = 2; V <= NumVersions; ++V) {
      Trainer.trainSupervised("M", /*Epochs=*/1, /*BatchSize=*/8);
      recordExpected(Eng.modelVersion(ModelId));
    }
    TrainerDone.store(true, std::memory_order_release);
  });

  TrainerThread.join();
  for (auto &T : Threads)
    T.join();

  // Every observation must be snapshot-consistent: the prediction is
  // bitwise-exactly what its version's parameters produce — a torn or
  // mixed-parameter read cannot satisfy this.
  uint64_t Final = MaxVerified.load(std::memory_order_acquire);
  EXPECT_GE(Final, 2u) << "trainer should have published while serving";
  for (int KR = 0; KR < NumReaders; ++KR) {
    ASSERT_FALSE(Seen[static_cast<size_t>(KR)].empty());
    for (const auto &O : Seen[static_cast<size_t>(KR)]) {
      ASSERT_GE(O.Version, 1u);
      ASSERT_LE(O.Version, Final);
      const std::vector<float> &Exp = Expected[O.Version];
      ASSERT_EQ(Exp.size(), static_cast<size_t>(NumReaders) * OutDim);
      for (int J = 0; J < OutDim; ++J)
        ASSERT_EQ(O.Pred[J],
                  Exp[static_cast<size_t>(KR) * OutDim + static_cast<size_t>(J)])
            << "reader " << KR << " version " << O.Version;
    }
  }

  // The pi stores stayed isolated: each session consumed exactly its own
  // extractions (one row per call) and counted its own primitives — one
  // of each per observation its reader recorded.
  for (int KR = 0; KR < NumReaders; ++KR) {
    const SessionStats &St = Readers[static_cast<size_t>(KR)]->stats();
    size_t Reads = Seen[static_cast<size_t>(KR)].size();
    EXPECT_GE(Reads, static_cast<size_t>(ReadsPerReader));
    EXPECT_EQ(St.NumExtract, Reads);
    EXPECT_EQ(St.FloatsExtracted, Reads * FeatDim);
    EXPECT_EQ(St.NumNn, Reads);
    EXPECT_EQ(St.NumWriteBack, Reads);
  }
}

TEST(EngineSessionStress, ConcurrentInternAcrossSessions) {
  // 8 threads, one session each, intern names from one overlapping pool
  // and serialize overlapping id-vectors, so plain and combined names
  // intern into the engine's table concurrently. Every thread records the
  // (name, id) pairs it was handed; afterwards each id must name the same
  // string everywhere and no two names may share an id.
  constexpr int NumThreads = 8;
  constexpr int PoolSize = 24;
  constexpr int Rounds = 300;
  Engine Eng;
  std::vector<std::unique_ptr<Session>> Sessions;
  for (int T = 0; T < NumThreads; ++T)
    Sessions.push_back(std::make_unique<Session>(Eng, Mode::TR));

  using Seen = std::vector<std::pair<std::string, NameId>>;
  std::vector<Seen> SeenBy(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Session &S = *Sessions[static_cast<size_t>(T)];
      Seen &Out = SeenBy[static_cast<size_t>(T)];
      Rng R(static_cast<uint64_t>(T) + 1);
      for (int I = 0; I < Rounds; ++I) {
        std::string NA = "n" + std::to_string(R.uniformInt(PoolSize));
        std::string NB = "n" + std::to_string(R.uniformInt(PoolSize));
        NameId A = S.intern(NA), B = S.intern(NB);
        S.extract(A, static_cast<float>(I));
        S.extract(B, static_cast<float>(T));
        NameId C = S.serialize(std::vector<NameId>{A, B});
        // Serialize read both lists before consuming them; A == B reads
        // the one two-value list twice.
        ASSERT_EQ(S.db().get(C).size(), A == B ? 4u : 2u);
        Out.emplace_back(NA, A);
        Out.emplace_back(NB, B);
        Out.emplace_back(NA + NB, C);
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();

  std::map<std::string, NameId> IdOf;
  std::map<NameId, std::string> NameOf;
  for (const Seen &Out : SeenBy)
    for (const auto &[Name, Id] : Out) {
      ASSERT_EQ(IdOf.emplace(Name, Id).first->second, Id)
          << "two ids for '" << Name << "'";
      ASSERT_EQ(NameOf.emplace(Id, Name).first->second, Name)
          << "two names share id " << Id;
    }
  EXPECT_GT(IdOf.size(), static_cast<size_t>(PoolSize));
  for (const auto &[Name, Id] : IdOf) {
    EXPECT_EQ(Eng.nameOf(Id), Name);
    for (const auto &S : Sessions) {
      EXPECT_EQ(S->db().nameOf(Id), Name);
      EXPECT_EQ(S->intern(Name), Id);
    }
  }
}
