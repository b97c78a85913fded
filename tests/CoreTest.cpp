//===- tests/CoreTest.cpp - Unit tests for the Autonomizer core ----------===//

#include "OneLane.h"
#include "core/Checkpoint.h"
#include "core/DatabaseStore.h"
#include "core/Engine.h"
#include "core/Model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

using namespace au;

//===----------------------------------------------------------------------===//
// DatabaseStore (pi)
//===----------------------------------------------------------------------===//

TEST(DatabaseStoreTest, AppendConcatenates) {
  DatabaseStore Db;
  Db.append("x", {1.0f, 2.0f});
  Db.append("x", 3.0f);
  ASSERT_EQ(Db.get("x").size(), 3u);
  EXPECT_FLOAT_EQ(Db.get("x")[2], 3.0f);
}

TEST(DatabaseStoreTest, UnmappedNameIsBottom) {
  DatabaseStore Db;
  EXPECT_TRUE(Db.get("nothing").empty());
  EXPECT_FALSE(Db.contains("nothing"));
}

TEST(DatabaseStoreTest, ResetMapsToBottom) {
  DatabaseStore Db;
  Db.append("x", 1.0f);
  Db.reset("x");
  EXPECT_FALSE(Db.contains("x"));
  EXPECT_TRUE(Db.get("x").empty());
}

TEST(DatabaseStoreTest, SerializeConcatenatesListsAndNames) {
  DatabaseStore Db;
  Db.append("PX", {1.0f});
  Db.append("PY", {2.0f, 3.0f});
  std::string Name = Db.serialize({"PX", "PY"});
  EXPECT_EQ(Name, "PXPY");
  ASSERT_EQ(Db.get(Name).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(Name)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(Name)[2], 3.0f);
}

TEST(DatabaseStoreTest, LifetimeAppendedSurvivesReset) {
  DatabaseStore Db;
  Db.append("x", {1.0f, 2.0f});
  Db.reset("x");
  Db.append("x", 3.0f);
  EXPECT_EQ(Db.lifetimeAppended(), 3u);
  EXPECT_EQ(Db.totalValues(), 1u);
}

//===----------------------------------------------------------------------===//
// CheckpointManager
//===----------------------------------------------------------------------===//

namespace {
struct ToyState : Checkpointable {
  std::vector<int> Values;
  void saveState(std::vector<uint8_t> &Out) const override {
    Out.assign(reinterpret_cast<const uint8_t *>(Values.data()),
               reinterpret_cast<const uint8_t *>(Values.data()) +
                   Values.size() * sizeof(int));
  }
  void loadState(const std::vector<uint8_t> &In) override {
    Values.assign(reinterpret_cast<const int *>(In.data()),
                  reinterpret_cast<const int *>(In.data() + In.size()));
  }
};
} // namespace

TEST(CheckpointTest, RestoresRegionsObjectsAndDb) {
  CheckpointManager M;
  double Pod = 1.5;
  ToyState Obj;
  Obj.Values = {1, 2, 3};
  M.registerRegion(&Pod, sizeof(Pod));
  M.registerObject(&Obj);
  DatabaseStore Db;
  Db.append("x", 7.0f);
  M.checkpoint(Db);

  Pod = 99.0;
  Obj.Values = {9};
  Db.append("x", 8.0f);
  Db.append("y", 1.0f);
  M.restore(Db);

  EXPECT_DOUBLE_EQ(Pod, 1.5);
  ASSERT_EQ(Obj.Values.size(), 3u);
  EXPECT_EQ(Obj.Values[2], 3);
  EXPECT_EQ(Db.get("x").size(), 1u);
  EXPECT_FALSE(Db.contains("y"));
}

TEST(CheckpointTest, RestoreIsRepeatable) {
  CheckpointManager M;
  int V = 10;
  M.registerRegion(&V, sizeof(V));
  DatabaseStore Db;
  M.checkpoint(Db);
  for (int I = 0; I < 3; ++I) {
    V = 50 + I;
    M.restore(Db);
    EXPECT_EQ(V, 10);
  }
}

TEST(CheckpointTest, SnapshotBytesAccounting) {
  CheckpointManager M;
  double Pod = 0.0;
  M.registerRegion(&Pod, sizeof(Pod));
  DatabaseStore Db;
  Db.append("x", {1.0f, 2.0f});
  M.checkpoint(Db);
  EXPECT_EQ(M.snapshotBytes(), sizeof(double) + 2 * sizeof(float));
}

//===----------------------------------------------------------------------===//
// Models
//===----------------------------------------------------------------------===//

static ModelConfig slConfig(const char *Name) {
  ModelConfig C;
  C.Name = Name;
  C.Algo = Algorithm::AdamOpt;
  C.HiddenLayers = {16};
  C.Seed = 5;
  return C;
}

TEST(SlModelTest, BuildsLazilyAndTrains) {
  SlModel M(slConfig("m"));
  EXPECT_FALSE(M.isBuilt());
  std::vector<WriteBackSpec> Outs = {{"A", 1}, {"B", 1}};
  Rng R(7);
  for (int I = 0; I < 80; ++I) {
    float X = static_cast<float>(R.uniform(-1, 1));
    M.addSample({X, X * X}, {2 * X, -X}, Outs);
  }
  EXPECT_TRUE(M.isBuilt());
  EXPECT_EQ(M.inputSize(), 2);
  EXPECT_EQ(M.numSamples(), 80u);
  M.train(200, 16);
  std::vector<float> P = M.predict({0.5f, 0.25f});
  EXPECT_NEAR(P[0], 1.0f, 0.4f);
  EXPECT_NEAR(P[1], -0.5f, 0.4f);
}

TEST(SlModelTest, SaveLoadRoundTrip) {
  SlModel A(slConfig("m"));
  std::vector<WriteBackSpec> Outs = {{"Y", 1}};
  Rng R(9);
  for (int I = 0; I < 50; ++I) {
    float X = static_cast<float>(R.uniform(0, 1));
    A.addSample({X}, {3 * X}, Outs);
  }
  A.train(40, 8);
  std::string Path = "/tmp/au_test_sl.aumodel";
  ASSERT_TRUE(A.save(Path));

  SlModel B(slConfig("m"));
  ASSERT_TRUE(B.load(Path));
  EXPECT_TRUE(B.isBuilt());
  EXPECT_EQ(B.outputs().size(), 1u);
  EXPECT_EQ(B.outputs().front().Name, "Y");
  EXPECT_FLOAT_EQ(A.predict({0.4f})[0], B.predict({0.4f})[0]);
  std::remove(Path.c_str());
}

TEST(SlModelTest, LoadRejectsGarbage) {
  std::string Path = "/tmp/au_test_garbage.aumodel";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  std::fputs("not a model", F);
  std::fclose(F);
  SlModel M(slConfig("m"));
  EXPECT_FALSE(M.load(Path));
  std::remove(Path.c_str());
}

static ModelConfig rlConfig(const char *Name) {
  ModelConfig C;
  C.Name = Name;
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  C.Seed = 6;
  return C;
}

TEST(RlModelTest, BuildsOnFirstStepAndActs) {
  RlModel M(rlConfig("q"));
  WriteBackSpec Out{"output", 3};
  int A = onelane::step(M, {0.1f, 0.2f}, 0.0f, false, Out, true);
  EXPECT_GE(A, 0);
  EXPECT_LT(A, 3);
  EXPECT_TRUE(M.isBuilt());
  EXPECT_EQ(M.inputSize(), 2);
  EXPECT_EQ(M.outputs().front().Size, 3);
}

TEST(RlModelTest, DeploymentStepsDoNotDisturbChain) {
  RlModel M(rlConfig("q"));
  WriteBackSpec Out{"output", 2};
  onelane::step(M, {0.0f}, 0.0f, false, Out, true);
  long StepsBefore = 0;
  // Several deployment (Learning=false) steps must not feed the learner.
  onelane::step(M, {0.3f}, 0.0f, false, Out, false);
  onelane::step(M, {0.6f}, 0.0f, false, Out, false);
  StepsBefore = M.learner()->stepsObserved();
  // The next learning step observes exactly one more transition.
  onelane::step(M, {1.0f}, 1.0f, false, Out, true);
  EXPECT_EQ(M.learner()->stepsObserved(), StepsBefore + 1);
}

TEST(RlModelTest, SaveLoadRoundTrip) {
  RlModel A(rlConfig("q"));
  WriteBackSpec Out{"output", 4};
  Rng R(11);
  for (int I = 0; I < 30; ++I)
    onelane::step(A, {static_cast<float>(R.uniform())}, 0.1f, false, Out, true);
  std::string Path = "/tmp/au_test_rl.aumodel";
  ASSERT_TRUE(A.save(Path));

  RlModel B(rlConfig("q"));
  ASSERT_TRUE(B.load(Path));
  std::vector<float> QA = A.qValues({0.5f});
  std::vector<float> QB = B.qValues({0.5f});
  ASSERT_EQ(QA.size(), QB.size());
  for (size_t I = 0; I != QA.size(); ++I)
    EXPECT_FLOAT_EQ(QA[I], QB[I]);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Session primitives
//===----------------------------------------------------------------------===//

TEST(RuntimeTest, ExtractAppendsAndCounts) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  float Vals[3] = {1, 2, 3};
  RT.extract("X", 3, Vals);
  RT.extract("X", 1.5f);
  EXPECT_EQ(RT.db().get("X").size(), 4u);
  EXPECT_EQ(RT.stats().NumExtract, 2u);
  EXPECT_EQ(RT.stats().FloatsExtracted, 4u);
  EXPECT_EQ(RT.stats().traceBytes(), 4 * sizeof(float));
}

TEST(RuntimeTest, ExtractDoubleConverts) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  double Vals[2] = {1.25, -2.5};
  RT.extract("D", 2, Vals);
  EXPECT_FLOAT_EQ(RT.db().get("D")[1], -2.5f);
}

TEST(RuntimeTest, ConfigIsIdempotent) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "m";
  C.HiddenLayers = {4};
  Model *A = RT.config(C);
  Model *B = RT.config(C);
  EXPECT_EQ(A, B);
  EXPECT_EQ(RT.stats().NumConfig, 2u);
}

TEST(RuntimeTest, SupervisedTrainPredictCycle) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "lin";
  C.HiddenLayers = {16};
  C.Seed = 21;
  RT.config(C);

  Rng R(22);
  for (int I = 0; I < 120; ++I) {
    float X = static_cast<float>(R.uniform(-1, 1));
    RT.extract("F", X);
    RT.nn("lin", "F", {{"OUT", 1}});
    // In TR mode the program variable holds the desirable value.
    float Desired = 4 * X + 1;
    RT.writeBack("OUT", 1, &Desired);
    // au_NN resets the extraction list each iteration.
    EXPECT_TRUE(RT.db().get("F").empty());
  }
  RT.trainSupervised("lin", 60, 16);
  RT.switchMode(Mode::TS);

  float X = 0.5f;
  RT.extract("F", X);
  RT.nn("lin", "F", {{"OUT", 1}});
  float Pred = 0.0f;
  RT.writeBack("OUT", 1, &Pred);
  EXPECT_NEAR(Pred, 3.0f, 0.6f);
}

TEST(RuntimeTest, MultiOutputLabelsAssembleInDeclaredOrder) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "multi";
  C.HiddenLayers = {8};
  RT.config(C);
  for (int I = 0; I < 40; ++I) {
    float X = static_cast<float>(I) / 40.0f;
    RT.extract("F", X);
    RT.nn("multi", "F", {{"A", 1}, {"B", 1}});
    // Write back in the opposite order to the declaration.
    float BV = -X;
    RT.writeBack("B", 1, &BV);
    float AV = X;
    RT.writeBack("A", 1, &AV);
  }
  auto *M = static_cast<SlModel *>(RT.getModel("multi"));
  ASSERT_TRUE(M);
  EXPECT_EQ(M->numSamples(), 40u);
  RT.trainSupervised("multi", 50, 8);
  RT.switchMode(Mode::TS);
  RT.extract("F", 0.5f);
  RT.nn("multi", "F", {{"A", 1}, {"B", 1}});
  float AV = 0, BV = 0;
  RT.writeBack("A", 1, &AV);
  RT.writeBack("B", 1, &BV);
  EXPECT_GT(AV, 0.0f);
  EXPECT_LT(BV, 0.0f);
}

TEST(RuntimeTest, SerializeReturnsCombinedName) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  RT.extract("PX", 1.0f);
  RT.extract("PY", 2.0f);
  std::string Name = RT.serialize({"PX", "PY"});
  EXPECT_EQ(Name, "PXPY");
  EXPECT_EQ(RT.db().get(Name).size(), 2u);
}

TEST(RuntimeTest, RlNnStepsAndWritesAction) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "agent";
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  RT.config(C);
  for (int I = 0; I < 10; ++I) {
    RT.extract("S", static_cast<float>(I) / 10.0f);
    RT.nn("agent", "S", /*Reward=*/0.5f, /*Terminal=*/false,
          {"output", 4});
    int Action = -1;
    RT.writeBack("output", 4, &Action);
    EXPECT_GE(Action, 0);
    EXPECT_LT(Action, 4);
  }
  Model *M = RT.getModel("agent");
  ASSERT_TRUE(M);
  EXPECT_TRUE(RlModel::classof(M));
  EXPECT_TRUE(M->isBuilt());
}

TEST(RuntimeTest, CheckpointRestoreExcludesModels) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "agent";
  C.Algo = Algorithm::QLearn;
  C.HiddenLayers = {8};
  RT.config(C);

  double GameState = 1.0;
  RT.checkpoints().registerRegion(&GameState, sizeof(GameState));
  RT.extract("S", 0.1f);
  RT.checkpoint();

  // Mutate program state, pi, and train the model.
  GameState = 42.0;
  RT.extract("S", 0.2f);
  for (int I = 0; I < 20; ++I) {
    RT.extract("T", static_cast<float>(I));
    RT.nn("agent", "T", 1.0f, false, {"output", 2});
  }
  auto *M = static_cast<RlModel *>(RT.getModel("agent"));
  long Steps = M->learner()->stepsObserved();

  RT.restore();
  // sigma and pi roll back...
  EXPECT_DOUBLE_EQ(GameState, 1.0);
  EXPECT_EQ(RT.db().get("S").size(), 1u);
  // ...but the model keeps its accumulated learning.
  EXPECT_EQ(M->learner()->stepsObserved(), Steps);
}

TEST(RuntimeTest, TsModeLoadsSavedModel) {
  std::string Dir = "/tmp";
  {
    Engine Eng(Dir);
    Session RT(Eng, Mode::TR);
    ModelConfig C;
    C.Name = "persisted";
    C.HiddenLayers = {8};
    C.Seed = 77;
    RT.config(C);
    Rng R(78);
    for (int I = 0; I < 60; ++I) {
      float X = static_cast<float>(R.uniform(0, 1));
      RT.extract("F", X);
      RT.nn("persisted", "F", {{"Y", 1}});
      float Label = 2 * X;
      RT.writeBack("Y", 1, &Label);
    }
    RT.trainSupervised("persisted", 40, 16);
    ASSERT_TRUE(RT.saveModel("persisted"));
  }
  {
    Engine Eng(Dir);
    Session RT(Eng, Mode::TS);
    ModelConfig C;
    C.Name = "persisted";
    RT.config(C); // CONFIG-TEST loads from disk.
    RT.extract("F", 0.5f);
    RT.nn("persisted", "F", {{"Y", 1}});
    float Pred = 0.0f;
    RT.writeBack("Y", 1, &Pred);
    EXPECT_NEAR(Pred, 1.0f, 0.5f);
  }
  std::remove("/tmp/persisted.aumodel");
}

TEST(RuntimeTest, ModelPathComposition) {
  Engine AEng("/models");
  Session A(AEng, Mode::TR);
  EXPECT_EQ(A.modelPath("m"), "/models/m.aumodel");
  Engine BEng;
  Session B(BEng, Mode::TR);
  EXPECT_EQ(B.modelPath("m"), "m.aumodel");
}

TEST(RuntimeTest, StatsCountPrimitives) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  ModelConfig C;
  C.Name = "m";
  C.HiddenLayers = {4};
  RT.config(C);
  RT.extract("X", 1.0f);
  RT.serialize({"X"});
  RT.nn("m", "X", {{"Y", 1}});
  float V = 1.0f;
  RT.writeBack("Y", 1, &V);
  RT.checkpoint();
  RT.restore();
  const SessionStats &S = RT.stats();
  EXPECT_EQ(S.NumConfig, 1u);
  EXPECT_EQ(S.NumExtract, 1u);
  EXPECT_EQ(S.NumSerialize, 1u);
  EXPECT_EQ(S.NumNn, 1u);
  EXPECT_EQ(S.NumWriteBack, 1u);
  EXPECT_EQ(S.NumCheckpoint, 1u);
  EXPECT_EQ(S.NumRestore, 1u);
}

//===----------------------------------------------------------------------===//
// Handle-keyed hot path (DESIGN.md §7)
//===----------------------------------------------------------------------===//

TEST(NameTableTest, InternIsIdempotentAndDense) {
  NameTable T;
  NameId A = T.intern("alpha");
  NameId B = T.intern("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(T.intern("alpha"), A);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.name(A), "alpha");
  EXPECT_EQ(T.find("beta"), B);
  EXPECT_EQ(T.find("gamma"), InvalidNameId);
}

TEST(NameTableTest, NameReferencesStayStableAcrossGrowth) {
  NameTable T;
  const std::string &First = T.name(T.intern("first"));
  for (int I = 0; I < 1000; ++I)
    T.intern(std::to_string(I));
  EXPECT_EQ(First, "first"); // No reallocation moved the string out.
  EXPECT_EQ(T.find("first"), 0u);
}

TEST(DatabaseStoreTest, ClearDropsEntriesKeepsNamesAndLifetime) {
  DatabaseStore Db;
  NameId X = Db.intern("x");
  Db.append(X, 1.0f);
  Db.append("y", {2.0f, 3.0f});
  Db.clear();
  EXPECT_EQ(Db.numEntries(), 0u);
  EXPECT_EQ(Db.totalValues(), 0u);
  EXPECT_FALSE(Db.contains(X));
  // Names and ids survive; the lifetime counter survives (Table 2).
  EXPECT_EQ(Db.intern("x"), X);
  EXPECT_EQ(Db.lifetimeAppended(), 3u);
  Db.append(X, 5.0f);
  EXPECT_EQ(Db.lifetimeAppended(), 4u);
}

TEST(DatabaseStoreTest, HandleSerializeIsLazyUntilRead) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B");
  const float AVals[] = {1.0f, 2.0f};
  Db.append(A, AVals, 2);
  Db.append(B, 3.0f);
  NameId C = Db.serialize({A, B});
  EXPECT_EQ(Db.nameOf(C), "AB");
  // The combined entry holds the concatenated values; the sources are
  // untouched without Consume.
  ASSERT_EQ(Db.get(C).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(C)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[1], 2.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[2], 3.0f);
  EXPECT_EQ(Db.get(A).size(), 2u);
  EXPECT_EQ(Db.get(B).size(), 1u);
}

TEST(DatabaseStoreTest, ConsumingSerializeMapsSourcesToBottom) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B");
  const float AVals[] = {1.0f, 2.0f};
  Db.append(A, AVals, 2);
  Db.append(B, 3.0f);
  NameId C = Db.serialize({A, B}, /*Consume=*/true);
  EXPECT_FALSE(Db.contains(A));
  EXPECT_FALSE(Db.contains(B));
  // The consumed sources' values live on in the combined entry.
  ASSERT_EQ(Db.get(C).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(C)[1], 2.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[2], 3.0f);
}

TEST(DatabaseStoreTest, SerializeDuplicateSourceCountsTwice) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B");
  const float AVals[] = {1.0f, 2.0f};
  Db.append(A, AVals, 2);
  Db.append(B, 3.0f);
  // {A, B, A}: A's list appears twice, even when the walk consumes A at
  // its first occurrence.
  NameId C = Db.serialize({A, B, A}, /*Consume=*/true);
  EXPECT_EQ(Db.nameOf(C), "ABA");
  ASSERT_EQ(Db.get(C).size(), 5u);
  EXPECT_FLOAT_EQ(Db.get(C)[3], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[4], 2.0f);
}

TEST(DatabaseStoreTest, SerializeCombinedNameAmongSources) {
  DatabaseStore Db;
  // strcat("X", "") == "X": the combined entry is one of its own sources.
  NameId X = Db.intern("X"), E = Db.intern("");
  const float XVals[] = {1.0f, 2.0f};
  Db.append(X, XVals, 2);
  Db.append(E, 3.0f);
  NameId C = Db.serialize({X, E});
  EXPECT_EQ(C, X);
  ASSERT_EQ(Db.get(C).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(C)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(C)[2], 3.0f);
  // Serialize the combined entry with itself again: its old list is read
  // before it is replaced.
  NameId C2 = Db.serialize({X, E});
  EXPECT_EQ(C2, X);
  ASSERT_EQ(Db.get(C2).size(), 4u);
  EXPECT_FLOAT_EQ(Db.get(C2)[2], 3.0f);
  EXPECT_FLOAT_EQ(Db.get(C2)[3], 3.0f);
}

TEST(DatabaseStoreTest, NestedSerializeFlattensToConcreteSpans) {
  DatabaseStore Db;
  NameId A = Db.intern("A"), B = Db.intern("B"), C = Db.intern("C");
  Db.append(A, 1.0f);
  Db.append(B, 2.0f);
  Db.append(C, 3.0f);
  NameId AB = Db.serialize({A, B});
  NameId ABC = Db.serialize({AB, C});
  EXPECT_EQ(Db.nameOf(ABC), "ABC");
  ASSERT_EQ(Db.get(ABC).size(), 3u);
  EXPECT_FLOAT_EQ(Db.get(ABC)[0], 1.0f);
  EXPECT_FLOAT_EQ(Db.get(ABC)[1], 2.0f);
  EXPECT_FLOAT_EQ(Db.get(ABC)[2], 3.0f);
}

TEST(RuntimeTest, StringAndHandleTracesAreEquivalent) {
  // The same RL deployment loop driven once through the string API and
  // once through interned handles must be observationally identical: same
  // actions, same pi contents, same primitive counts.
  auto Configure = [](Session &RT) {
    ModelConfig C;
    C.Name = "agent";
    C.Algo = Algorithm::QLearn;
    C.HiddenLayers = {8};
    C.Seed = 11;
    RT.config(C);
  };
  Engine SEng, HEng;
  Session S(SEng, Mode::TR), H(HEng, Mode::TR);
  Configure(S);
  Configure(H);
  NameId PX = H.intern("PX"), PY = H.intern("PY");
  NameId Agent = H.intern("agent"), Out = H.intern("output");

  for (int I = 0; I < 50; ++I) {
    float X = static_cast<float>(I) * 0.02f;
    float Y = 1.0f - X;
    bool Term = I % 17 == 16;

    S.extract("PX", X);
    S.extract("PY", Y);
    S.nn("agent", S.serialize({"PX", "PY"}), 0.25f, Term, {"output", 3});
    int ActionS = -1;
    S.writeBack("output", 3, &ActionS);

    H.extract(PX, X);
    H.extract(PY, Y);
    H.nn(Agent, H.serialize({PX, PY}), 0.25f, Term, {Out, 3});
    int ActionH = -1;
    H.writeBack(Out, 3, &ActionH);

    EXPECT_EQ(ActionS, ActionH) << "diverged at step " << I;
    EXPECT_TRUE(H.db().get(PX).empty()); // Consumed by serialize.
  }
  EXPECT_EQ(S.stats().NumExtract, H.stats().NumExtract);
  EXPECT_EQ(S.stats().FloatsExtracted, H.stats().FloatsExtracted);
  EXPECT_EQ(S.stats().NumSerialize, H.stats().NumSerialize);
  EXPECT_EQ(S.stats().NumNn, H.stats().NumNn);
  EXPECT_EQ(S.stats().NumWriteBack, H.stats().NumWriteBack);
  EXPECT_EQ(S.db().numEntries(), H.db().numEntries());
  EXPECT_EQ(S.db().totalValues(), H.db().totalValues());
  EXPECT_EQ(S.db().lifetimeAppended(), H.db().lifetimeAppended());
}

TEST(CheckpointTest, RepeatedCheckpointRestoreStressBitIdentical) {
  // Many regions, objects and pi slots; repeated mutate/restore rounds with
  // different mutated subsets each round must restore bit-identically.
  Engine Eng;
  Session RT(Eng, Mode::TR);
  CheckpointManager &M = RT.checkpoints();
  DatabaseStore &Db = RT.db();

  constexpr int NumRegions = 16, NumSlots = 64;
  std::vector<double> Pods(NumRegions);
  std::vector<ToyState> Objs(4);
  for (int I = 0; I < NumRegions; ++I) {
    Pods[I] = I * 1.25;
    M.registerRegion(&Pods[I], sizeof(double));
  }
  for (int I = 0; I < 4; ++I) {
    Objs[I].Values = {I, I + 1, I + 2};
    M.registerObject(&Objs[I]);
  }
  std::vector<NameId> Slots;
  for (int I = 0; I < NumSlots; ++I) {
    NameId Id = Db.intern("slot" + std::to_string(I));
    const float Init[] = {static_cast<float>(I), static_cast<float>(2 * I)};
    Db.append(Id, Init, 2);
    Slots.push_back(Id);
  }

  RT.checkpoint();

  // Shadow baseline: what the latest checkpoint holds (re-checkpointing
  // after a mutation makes that mutation the new baseline).
  std::vector<double> BasePods = Pods;
  std::vector<std::vector<int>> BaseObjs;
  for (const ToyState &O : Objs)
    BaseObjs.push_back(O.Values);
  std::vector<std::vector<float>> BaseSlots;
  for (NameId Id : Slots)
    BaseSlots.push_back(Db.get(Id));

  Rng R(99);
  for (int Round = 0; Round < 8; ++Round) {
    // Mutate a different, small subset each round.
    for (int K = 0; K < 5; ++K) {
      int I = static_cast<int>(R.uniform(0, NumSlots - 1));
      Db.append(Slots[I], static_cast<float>(Round));
    }
    Pods[Round % NumRegions] = -1.0 - Round;
    Objs[Round % 4].Values.push_back(Round);

    if (Round % 2 == 1) {
      // Re-checkpoint: the mutations above become the new baseline.
      RT.checkpoint();
      BasePods = Pods;
      for (int I = 0; I < 4; ++I)
        BaseObjs[I] = Objs[I].Values;
      for (int I = 0; I < NumSlots; ++I)
        BaseSlots[I] = Db.get(Slots[I]);
      // Mutate a little more so the restore below has work to do.
      Db.append(Slots[Round % NumSlots], -7.0f);
    }

    // Restore must rewind to the latest baseline, bit for bit, repeatedly.
    RT.restore();
    for (int I = 0; I < NumRegions; ++I)
      ASSERT_DOUBLE_EQ(Pods[I], BasePods[I]) << "round " << Round;
    for (int I = 0; I < 4; ++I)
      ASSERT_EQ(Objs[I].Values, BaseObjs[I]) << "round " << Round;
    for (int I = 0; I < NumSlots; ++I)
      ASSERT_EQ(Db.get(Slots[I]), BaseSlots[I])
          << "round " << Round << " slot " << I;
  }
}

TEST(CheckpointTest, SlotsInternedAfterSnapshotRollBackToBottom) {
  Engine Eng;
  Session RT(Eng, Mode::TR);
  RT.extract("old", 1.0f);
  RT.checkpoint();
  NameId Fresh = RT.intern("fresh");
  RT.extract(Fresh, 2.0f);
  RT.restore();
  EXPECT_FALSE(RT.db().contains(Fresh));
  EXPECT_EQ(RT.db().get("old").size(), 1u);
  // And the store keeps working for the rolled-back slot.
  RT.extract(Fresh, 3.0f);
  ASSERT_EQ(RT.db().get(Fresh).size(), 1u);
  EXPECT_FLOAT_EQ(RT.db().get(Fresh)[0], 3.0f);
}

namespace {
/// Fig. 8's pi written out directly: a mapped name is a key, bottom is an
/// absent key.
using RefPi = std::map<std::string, std::vector<float>>;

/// Compares every interned list of \p Db with the reference.
void expectStoreMatches(const DatabaseStore &Db, const RefPi &Ref,
                        uint64_t Seed, int Step) {
  size_t Values = 0;
  for (NameId Id = 0; Id != Db.numSlots(); ++Id) {
    auto It = Ref.find(Db.nameOf(Id));
    const bool Mapped = It != Ref.end();
    ASSERT_EQ(Db.contains(Id), Mapped)
        << "seed " << Seed << " step " << Step << " name '" << Db.nameOf(Id)
        << "'";
    ASSERT_EQ(Db.get(Id), Mapped ? It->second : std::vector<float>())
        << "seed " << Seed << " step " << Step << " name '" << Db.nameOf(Id)
        << "'";
    Values += Mapped ? It->second.size() : 0;
  }
  ASSERT_EQ(Db.numEntries(), Ref.size()) << "seed " << Seed << " step " << Step;
  ASSERT_EQ(Db.totalValues(), Values) << "seed " << Seed << " step " << Step;
}

/// One seeded random sequence of append/set/reset, serialize (consume on
/// and off, duplicate sources, a combined name among its own sources via
/// the empty name, nested serialize of combined names), checkpoint,
/// repeated restore, and names interned after a snapshot, run through
/// DatabaseStore + CheckpointManager and through RefPi; every list must
/// agree after every step. A small POD region rides along in the
/// snapshots. With \p SharedTable the store shares its name table with a
/// sibling store.
void runReferencePiSequence(uint64_t Seed, bool SharedTable) {
  Rng R(Seed);
  // With a shared table, a sibling store interns (and writes) names of its
  // own between the steps, drawing from its own generator so the store's
  // primitive sequence is the same as without it.
  auto Table = std::make_shared<NameTable>();
  DatabaseStore Db = SharedTable ? DatabaseStore(Table) : DatabaseStore();
  DatabaseStore Sibling(Table);
  Rng SibR(Seed + 1000);
  int SibFresh = 0;
  CheckpointManager M;
  RefPi Ref, RefSnap;
  float Region[4] = {0, 0, 0, 0};
  float RegionSnap[4] = {0, 0, 0, 0};
  M.registerRegion(Region, sizeof(Region));
  bool HaveSnap = false;
  int Fresh = 0;

  // Sources and targets are drawn from the names seen so far; combined
  // names join the pool while short, so later serializes nest them.
  std::vector<std::string> Pool = {"a", "b", "c", ""};
  auto Pick = [&]() -> const std::string & {
    return Pool[R.uniformInt(Pool.size())];
  };
  auto RandomList = [&] {
    std::vector<float> V(R.uniformInt(4));
    for (float &X : V)
      X = static_cast<float>(R.uniformInt(-50, 50));
    return V;
  };

  for (int Step = 0; Step < 300; ++Step) {
    if (SharedTable) {
      // Sparse ids: the store's slots grow past the sibling's names on
      // first write. Writes into the sibling must never show here.
      if (SibR.chance(0.3))
        Sibling.append(Sibling.intern("s" + std::to_string(SibFresh++)),
                       -1.0f);
      if (SibR.chance(0.2))
        Sibling.append(Sibling.intern(Pool[SibR.uniformInt(Pool.size())]),
                       -2.0f);
      // The sibling interns the next fresh name first; whether that lands
      // before or after a checkpoint, restore rolls it back to bottom.
      if (SibR.chance(0.1))
        Sibling.intern("n" + std::to_string(Fresh));
    }
    switch (R.uniformInt(9)) {
    case 0:
    case 1: { // au_extract: append a list (possibly empty) or one value.
      const std::string &N = Pick();
      if (R.chance(0.5)) {
        std::vector<float> V = RandomList();
        Db.append(Db.intern(N), V.data(), V.size());
        Ref[N].insert(Ref[N].end(), V.begin(), V.end());
      } else {
        float X = static_cast<float>(R.uniformInt(-50, 50));
        Db.append(Db.intern(N), X);
        Ref[N].push_back(X);
      }
      break;
    }
    case 2: { // Model outputs: set replaces the list.
      const std::string &N = Pick();
      std::vector<float> V = RandomList();
      Db.set(Db.intern(N), V.data(), V.size());
      Ref[N] = V;
      break;
    }
    case 3: { // reset maps the name back to bottom.
      const std::string &N = Pick();
      Db.reset(Db.intern(N));
      Ref.erase(N);
      break;
    }
    case 4:
    case 5: { // serialize 2-4 sources, duplicates allowed.
      std::vector<std::string> Srcs(2 + R.uniformInt(3));
      for (std::string &N : Srcs)
        N = Pick();
      const bool Consume = R.chance(0.5);
      std::vector<NameId> Ids;
      std::string Combined;
      std::vector<float> Concat;
      for (const std::string &N : Srcs) {
        Ids.push_back(Db.intern(N));
        Combined += N;
        auto It = Ref.find(N);
        if (It != Ref.end())
          Concat.insert(Concat.end(), It->second.begin(), It->second.end());
      }
      NameId C = Db.serialize(Ids, Consume);
      ASSERT_EQ(Db.nameOf(C), Combined) << "seed " << Seed;
      if (Consume)
        for (const std::string &N : Srcs)
          if (N != Combined)
            Ref.erase(N);
      Ref[Combined] = Concat;
      if (Combined.size() <= 3 &&
          std::find(Pool.begin(), Pool.end(), Combined) == Pool.end())
        Pool.push_back(Combined);
      break;
    }
    case 6: { // au_checkpoint.
      Region[R.uniformInt(4)] = static_cast<float>(Step);
      M.checkpoint(Db);
      RefSnap = Ref;
      std::copy(Region, Region + 4, RegionSnap);
      HaveSnap = true;
      break;
    }
    case 7: { // au_restore, sometimes twice in a row.
      if (!HaveSnap)
        break;
      Region[R.uniformInt(4)] = -1.0f;
      for (int Again = R.chance(0.3) ? 2 : 1; Again; --Again)
        M.restore(Db);
      Ref = RefSnap;
      for (int I = 0; I != 4; ++I)
        ASSERT_EQ(Region[I], RegionSnap[I]) << "seed " << Seed;
      break;
    }
    case 8: { // A name interned now (after any snapshot) and extracted.
      std::string N = "n" + std::to_string(Fresh++);
      Db.append(Db.intern(N), 1.0f + Fresh);
      Ref[N].push_back(1.0f + Fresh);
      Pool.push_back(N);
      break;
    }
    }
    expectStoreMatches(Db, Ref, Seed, Step);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}
} // namespace

TEST(DatabaseStoreTest, RandomPrimitiveSequencesMatchReferencePi) {
  for (uint64_t Seed = 1; Seed <= 12 && !HasFatalFailure(); ++Seed)
    runReferencePiSequence(Seed, /*SharedTable=*/false);
}

TEST(DatabaseStoreTest, RandomPrimitiveSequencesOnSharedTableMatchReferencePi) {
  for (uint64_t Seed = 1; Seed <= 12 && !HasFatalFailure(); ++Seed)
    runReferencePiSequence(Seed, /*SharedTable=*/true);
}
