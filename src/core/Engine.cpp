//===- core/Engine.cpp - Process-wide model plane (theta) -----------------===//

#include "core/Engine.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace au;

Engine::Engine(std::string Dir) : ModelDir(std::move(Dir)) {}

Engine::~Engine() = default;

//===----------------------------------------------------------------------===//
// Model store theta
//===----------------------------------------------------------------------===//

Model *Engine::config(const ModelConfig &C, Mode M) {
  std::lock_guard<std::mutex> L(ModelsM);
  // Rules CONFIG-TRAIN / CONFIG-TEST: only act when theta(name) is bottom.
  auto It = Models.find(C.Name);
  if (It != Models.end())
    return It->second->M.get();

  auto E = std::make_unique<EngineModelEntry>();
  if (C.Algo == Algorithm::QLearn)
    E->M = std::make_unique<RlModel>(C);
  else
    E->M = std::make_unique<SlModel>(C);

  bool Loaded = false;
  if (M == Mode::TS) {
    // CONFIG-TEST: load the trained model saved by a prior TR execution.
    Loaded = E->M->load(modelPath(C.Name));
    assert(Loaded && "TS-mode au_config could not load the trained model");
  }

  // Register the handle route: model names live in the same table as
  // database names, so entryById / Session::nn(NameId, ...) index theta
  // directly. ModelsM -> the name table's mutex is the documented lock
  // order.
  NameId Id = intern(C.Name);
  if (Id >= EntryById.size())
    EntryById.resize(Id + 1, nullptr);
  EngineModelEntry *EP = E.get();
  EntryById[Id] = EP;
  Models.emplace(C.Name, std::move(E));

  if (Loaded)
    publish(EP); // Readers can serve the loaded parameters immediately.
  return EP->M.get();
}

Model *Engine::getModel(const std::string &Name) {
  std::lock_guard<std::mutex> L(ModelsM);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : It->second->M.get();
}

Model *Engine::getModel(NameId Id) {
  std::lock_guard<std::mutex> L(ModelsM);
  return Id < EntryById.size() && EntryById[Id] ? EntryById[Id]->M.get()
                                                : nullptr;
}

double Engine::trainSupervised(const std::string &ModelName, int Epochs,
                               int BatchSize) {
  Model *M = getModel(ModelName);
  assert(M && SlModel::classof(M) && "trainSupervised on a non-SL model");
  double Loss = static_cast<SlModel *>(M)->train(Epochs, BatchSize);
  publishModel(ModelName);
  return Loss;
}

std::string Engine::modelPath(const std::string &ModelName) const {
  if (ModelDir.empty())
    return ModelName + ".aumodel";
  return ModelDir + "/" + ModelName + ".aumodel";
}

bool Engine::saveModel(const std::string &ModelName) {
  Model *M = getModel(ModelName);
  if (!M)
    return false;
  return M->save(modelPath(ModelName));
}

bool Engine::saveAllModels() {
  std::lock_guard<std::mutex> L(ModelsM);
  bool Ok = true;
  for (auto &[Name, E] : Models)
    Ok = E->M->save(modelPath(Name)) && Ok;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Parameter-snapshot publication
//===----------------------------------------------------------------------===//

uint64_t Engine::publish(EngineModelEntry *E) {
  if (!E || !E->M)
    return 0;
  auto S = std::make_shared<ParamSnapshot>();
  if (!E->M->captureParams(*S))
    return 0;
  std::lock_guard<std::mutex> L(E->SnapM);
  uint64_t V = E->Version.load(std::memory_order_relaxed) + 1;
  S->Version = V;
  E->Snap = std::move(S);
  // Release: a reader that acquire-loads V sees the fully built snapshot.
  E->Version.store(V, std::memory_order_release);
  return V;
}

uint64_t Engine::publishModel(const std::string &ModelName) {
  return publish(entryByName(ModelName));
}

uint64_t Engine::publishModel(NameId Id) { return publish(entryById(Id)); }

uint64_t Engine::modelVersion(NameId Id) {
  EngineModelEntry *E = entryById(Id);
  return E ? E->Version.load(std::memory_order_acquire) : 0;
}

std::shared_ptr<const ParamSnapshot> Engine::modelSnapshot(NameId Id) {
  EngineModelEntry *E = entryById(Id);
  if (!E)
    return nullptr;
  std::lock_guard<std::mutex> L(E->SnapM);
  return E->Snap;
}

EngineModelEntry *Engine::entryById(NameId Id) {
  std::lock_guard<std::mutex> L(ModelsM);
  return Id < EntryById.size() ? EntryById[Id] : nullptr;
}

EngineModelEntry *Engine::entryByName(const std::string &Name) {
  std::lock_guard<std::mutex> L(ModelsM);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : It->second.get();
}

//===----------------------------------------------------------------------===//
// InferenceReplica
//===----------------------------------------------------------------------===//

bool InferenceReplica::refresh(Engine &Eng, NameId ModelId) {
  if (!Entry) {
    Entry = Eng.entryById(ModelId);
    if (!Entry)
      return false;
  }
  // Steady state: one acquire-load, no locks.
  uint64_t V = Entry->Version.load(std::memory_order_acquire);
  if (V == 0)
    return false;
  if (V == SeenVersion && Trainer)
    return true;

  std::shared_ptr<const ParamSnapshot> S;
  {
    std::lock_guard<std::mutex> L(Entry->SnapM);
    S = Entry->Snap;
  }
  if (!S)
    return false;
  Model *M = Entry->M.get();
  if (!M || !SlModel::classof(M))
    return false;
  auto *Sl = static_cast<SlModel *>(M);

  // Same architecture across versions: install in place. Fall back to a
  // full rebuild on the first refresh or a shape change.
  if (Trainer && S->installInto(Trainer->network())) {
    Trainer->setNormalization(S->XMean, S->XStd, S->YMean, S->YStd);
  } else {
    Trainer = Sl->makeReplica(*S);
    if (!Trainer)
      return false;
  }
  SeenVersion = S->Version;
  return true;
}

//===----------------------------------------------------------------------===//
// Cross-session inference batchers
//===----------------------------------------------------------------------===//

size_t Engine::gatherRows(Session *const *Sessions, const NameId *ExtIds,
                          int K) {
  // Rows are disjoint and each chunk reads only its own sessions' stores,
  // so the gather parallelizes without changing any result.
  size_t D = Sessions[0]->Db.get(ExtIds[0]).size();
  assert(D > 0 && "au_NN with an empty model input");
  BatchRows.resize(static_cast<size_t>(K) * D);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), ThreadPool::grainFor(D),
      [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          const std::vector<float> &X = Sessions[S]->Db.get(ExtIds[S]);
          assert(X.size() == D && "session input sizes diverged");
          std::copy(X.begin(), X.end(), BatchRows.begin() + S * D);
        }
      });
  return D;
}

void Engine::nnBatchSessions(NameId ModelId, Session *const *Sessions,
                             const NameId *ExtIds, int K,
                             const std::vector<WriteBackHandle> &Outputs) {
  assert(K > 0 && Sessions && ExtIds && "nnBatchSessions of no sessions");
  std::lock_guard<std::mutex> BL(BatchM);
  Model *M = getModel(ModelId);
  assert(M && "au_NN on an unconfigured model");
  auto *Sl = static_cast<SlModel *>(M);
  assert(SlModel::classof(M) && "supervised au_NN form on an RL model");
  assert(!Outputs.empty() && "au_NN must declare at least one output");

  gatherRows(Sessions, ExtIds, K);

  // ONE forwardBatch for the whole tenant set — this is where K per-call
  // predictions collapse into a single batched network pass. Serve from a
  // replica of the latest published snapshot when one exists; fall back to
  // the live model otherwise (single-tenant semantics).
  std::unique_ptr<InferenceReplica> &Rep = ServeReps[ModelId];
  if (!Rep)
    Rep = std::make_unique<InferenceReplica>();
  if (Rep->refresh(*this, ModelId))
    Rep->predictRows(BatchRows.data(), K, NnOut);
  else
    Sl->predictRows(BatchRows.data(), K, NnOut);

  // Scatter each session's predictions into its own store and reset its
  // feature list (Rules TRAIN/TEST reset extName), again disjoint per
  // session. au_NN counts once per session, in the session's own stats.
  const size_t NY = NnOut.size() / static_cast<size_t>(K);
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), ThreadPool::grainFor(NY),
      [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          Session &Sess = *Sessions[S];
          ++Sess.Stats.NumNn;
          size_t Offset = 0;
          for (const WriteBackHandle &O : Outputs) {
            Sess.setWbOwner(O.Name, ModelId);
            assert(Offset + O.Size <= NY && "declared outputs exceed model");
            Sess.Db.set(O.Name, NnOut.data() + S * NY + Offset, O.Size);
            Offset += O.Size;
          }
          Sess.Db.reset(ExtIds[S]);
        }
      });
}

void Engine::nnRlSessions(NameId ModelId, Session *const *Sessions,
                          const NameId *ExtIds, const float *Rewards,
                          const uint8_t *Terminals, int K,
                          const WriteBackHandle &Output, bool Learning) {
  assert(K > 0 && Sessions && ExtIds && "nnRlSessions of no sessions");
  std::lock_guard<std::mutex> BL(BatchM);
  Model *M = getModel(ModelId);
  assert(M && "au_NN on an unconfigured model");
  assert(RlModel::classof(M) && "RL au_NN form on a supervised model");
  auto *Rl = static_cast<RlModel *>(M);

  size_t D = gatherRows(Sessions, ExtIds, K);

  // One fused model step for the whole fleet (observe, train when due,
  // batched action selection). The output's string spec is only needed on
  // the cold build path.
  ActionsScratch.resize(static_cast<size_t>(K));
  WriteBackSpec Spec{std::string(), Output.Size};
  if (!M->isBuilt())
    Spec.Name = nameOf(Output.Name);
  Rl->stepActors(BatchRows.data(), K, static_cast<int>(D), Rewards, Terminals,
                 Spec, Learning, ActionsScratch.data());

  // One action float per session.
  ThreadPool::global().parallelFor(
      0, static_cast<size_t>(K), ThreadPool::grainFor(1),
      [&](size_t B, size_t E) {
        for (size_t S = B; S != E; ++S) {
          Session &Sess = *Sessions[S];
          ++Sess.Stats.NumNn;
          Sess.setWbOwner(Output.Name, ModelId);
          float ActionF = static_cast<float>(ActionsScratch[S]);
          Sess.Db.set(Output.Name, &ActionF, 1);
          Sess.Db.reset(ExtIds[S]);
        }
      });
}
