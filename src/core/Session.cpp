//===- core/Session.cpp - Per-client execution state (sigma, pi) ----------===//

#include "core/Session.h"

#include "core/Engine.h"

#include <algorithm>
#include <cassert>

using namespace au;

Session::Session(Engine &E, Mode M) : Eng(E), ExecMode(M) {
  // Combined serialize names created inside the store must intern through
  // the engine too, so the store stays a positional mirror of the master
  // table.
  Db.setInternAuthority(this);
  syncNames();
}

Session::~Session() = default;

NameId Session::intern(std::string_view Name) {
  NameId Id = Eng.intern(Name);
  syncNames();
  return Id;
}

void Session::syncNames() {
  // Every name in this store was replayed from the master table, in order,
  // by a previous sync. If the store grew past the replay watermark, someone
  // interned into db() directly — positions can no longer be trusted, and
  // handles handed out by the engine would address the wrong slots. This is
  // a real error path, not an assert: it fires in release builds too.
  if (Db.names().size() != Synced)
    throw StoreDivergenceError(
        "session store diverged from the engine name table: a name was "
        "interned directly into the store behind the session's back (use "
        "Session::intern, not db().intern)");
  Synced = Eng.appendNamesTo(Db, Synced);
}

Model *Session::config(const ModelConfig &C) {
  ++Stats.NumConfig;
  // Model names live in the same table as database names, so nn(NameId, ...)
  // indexes theta directly.
  NameId Id = intern(C.Name);
  Model *M = Eng.config(C, ExecMode);
  if (Id >= ModelCache.size())
    ModelCache.resize(Id + 1, nullptr);
  ModelCache[Id] = M;
  return M;
}

//===----------------------------------------------------------------------===//
// au_extract
//===----------------------------------------------------------------------===//

void Session::extract(NameId Id, size_t Size, const double *Data) {
  assert(Data || Size == 0);
  ++Stats.NumExtract;
  Stats.FloatsExtracted += Size;
  ConvStaging.resize(Size);
  for (size_t I = 0; I != Size; ++I)
    ConvStaging[I] = static_cast<float>(Data[I]);
  Db.append(Id, ConvStaging.data(), Size);
}

void Session::extract(const std::string &Name, size_t Size,
                      const float *Data) {
  extract(intern(Name), Size, Data);
}

void Session::extract(const std::string &Name, size_t Size,
                      const double *Data) {
  extract(intern(Name), Size, Data);
}

void Session::extract(const std::string &Name, float Value) {
  extract(intern(Name), Value);
}

//===----------------------------------------------------------------------===//
// au_serialize
//===----------------------------------------------------------------------===//

std::string Session::serialize(const std::vector<std::string> &Names) {
  std::vector<NameId> Ids;
  Ids.reserve(Names.size());
  for (const std::string &N : Names)
    Ids.push_back(intern(N));
  return Db.nameOf(serialize(Ids));
}

std::string Session::serialize(std::initializer_list<const char *> Names) {
  std::vector<NameId> Ids;
  Ids.reserve(Names.size());
  for (const char *N : Names)
    Ids.push_back(intern(N));
  return Db.nameOf(serialize(Ids));
}

//===----------------------------------------------------------------------===//
// au_NN
//===----------------------------------------------------------------------===//

void Session::nn(NameId ModelId, NameId ExtId,
                 const std::vector<WriteBackHandle> &Outputs) {
  ++Stats.NumNn;
  Model *M = getModel(ModelId);
  assert(M && "au_NN on an unconfigured model");
  auto *Sl = static_cast<SlModel *>(M);
  assert(SlModel::classof(M) && "supervised au_NN form on an RL model");
  assert(!Outputs.empty() && "au_NN must declare at least one output");

  const std::vector<float> &X = Db.get(ExtId);
  assert(!X.empty() && "au_NN with an empty feature list");

  for (const WriteBackHandle &O : Outputs)
    setWbOwner(O.Name, ModelId);

  if (ExecMode == Mode::TR) {
    // Training is offline for SL: remember the features; the labels arrive
    // through the write-backs of this loop iteration.
    PendingSample P;
    P.ModelId = ModelId;
    P.X = X;
    P.Outputs = Outputs;
    Pending.push_back(std::move(P));
  } else {
    // Rule TEST: run one forwardBatch row straight from the slot and
    // scatter the predictions into pi. Under shared inference the row is
    // served from this session's replica of the engine's latest published
    // snapshot; otherwise (and while nothing is published) from the live
    // model, exactly as before the split.
    if (!(SharedInference &&
          predictShared(ModelId, X.data(), /*Rows=*/1, NnOut)))
      Sl->predictRows(X.data(), /*Rows=*/1, NnOut);
    size_t Offset = 0;
    for (const WriteBackHandle &O : Outputs) {
      assert(Offset + O.Size <= NnOut.size() &&
             "declared outputs exceed model");
      Db.set(O.Name, NnOut.data() + Offset, O.Size);
      Offset += O.Size;
    }
  }
  // Both TRAIN and TEST reset the model-input list (extName -> bottom).
  Db.reset(ExtId);
}

void Session::nn(NameId ModelId, NameId ExtId, float Reward, bool Terminal,
                 const WriteBackHandle &Output) {
  ++Stats.NumNn;
  Model *M = getModel(ModelId);
  assert(M && "au_NN on an unconfigured model");
  assert(RlModel::classof(M) && "RL au_NN form on a supervised model");
  auto *Rl = static_cast<RlModel *>(M);

  const std::vector<float> &State = Db.get(ExtId);
  assert(!State.empty() && "au_NN with an empty state list");

  setWbOwner(Output.Name, ModelId);
  // The one-lane case of the fused actor step (DESIGN.md §8). The output's
  // string spec is only needed on the cold build path (persistence stores
  // output names).
  WriteBackSpec Spec{std::string(), Output.Size};
  if (!M->isBuilt())
    Spec.Name = Db.nameOf(Output.Name);
  uint8_t Term = Terminal ? 1 : 0;
  int Action = 0;
  Rl->stepActors(State.data(), /*K=*/1, static_cast<int>(State.size()),
                 &Reward, &Term, Spec, /*Learning=*/ExecMode == Mode::TR,
                 &Action);
  float ActionF = static_cast<float>(Action);
  Db.set(Output.Name, &ActionF, 1);
  Db.reset(ExtId);
}

void Session::nn(const std::string &ModelName, const std::string &ExtName,
                 const std::vector<WriteBackSpec> &Outputs) {
  std::vector<WriteBackHandle> Handles;
  Handles.reserve(Outputs.size());
  for (const WriteBackSpec &O : Outputs)
    Handles.push_back({intern(O.Name), O.Size});
  nn(intern(ModelName), intern(ExtName), Handles);
}

void Session::nn(const std::string &ModelName, const std::string &ExtName,
                 float Reward, bool Terminal, const WriteBackSpec &Output) {
  nn(intern(ModelName), intern(ExtName), Reward, Terminal,
     {intern(Output.Name), Output.Size});
}

//===----------------------------------------------------------------------===//
// au_write_back
//===----------------------------------------------------------------------===//

void Session::completePendingIfReady(PendingSample &P) {
  if (P.Labels.size() != P.Outputs.size())
    return;
  std::vector<float> Y;
  std::vector<WriteBackSpec> Specs;
  Specs.reserve(P.Outputs.size());
  for (const WriteBackHandle &O : P.Outputs) {
    const std::vector<float> *L = nullptr;
    for (const auto &[Id, Vals] : P.Labels)
      if (Id == O.Name) {
        L = &Vals;
        break;
      }
    assert(L && static_cast<int>(L->size()) == O.Size &&
           "label arity mismatch");
    Y.insert(Y.end(), L->begin(), L->end());
    Specs.push_back({Db.nameOf(O.Name), O.Size});
  }
  auto *Sl = static_cast<SlModel *>(getModel(P.ModelId));
  assert(Sl && "pending sample for a vanished model");
  Sl->addSample(P.X, Y, Specs);
}

void Session::writeBack(NameId Id, size_t Size, float *Data) {
  ++Stats.NumWriteBack;
  assert(Data && Size > 0 && "invalid write-back destination");

  if (ExecMode == Mode::TR) {
    // Supervised TR: the program variable currently holds the desirable
    // value (chosen by the human user or the autotuner) — record it as the
    // label of the pending sample.
    for (auto It = Pending.rbegin(), E = Pending.rend(); It != E; ++It) {
      PendingSample &P = *It;
      bool Declared =
          std::any_of(P.Outputs.begin(), P.Outputs.end(),
                      [&](const WriteBackHandle &O) { return O.Name == Id; });
      bool Labeled =
          std::any_of(P.Labels.begin(), P.Labels.end(),
                      [&](const auto &KV) { return KV.first == Id; });
      if (!Declared || Labeled)
        continue;
      P.Labels.emplace_back(Id, std::vector<float>(Data, Data + Size));
      Db.set(Id, Data, Size);
      completePendingIfReady(P);
      if (P.Labels.size() == P.Outputs.size())
        Pending.erase(std::next(It).base());
      return;
    }
    assert(false && "TR write-back without a matching au_NN");
    return;
  }

  // Rule WRITE-BACK: pi[Name] -> program variable.
  const std::vector<float> &Vals = Db.get(Id);
  assert(Vals.size() >= Size && "write-back of more values than predicted");
  std::copy(Vals.begin(), Vals.begin() + Size, Data);
}

void Session::writeBack(NameId Id, size_t Size, double *Data) {
  ConvStaging.resize(Size);
  if (ExecMode == Mode::TR)
    for (size_t I = 0; I != Size; ++I)
      ConvStaging[I] = static_cast<float>(Data[I]);
  writeBack(Id, Size, ConvStaging.data());
  if (ExecMode == Mode::TS)
    for (size_t I = 0; I != Size; ++I)
      Data[I] = ConvStaging[I];
}

void Session::writeBack(NameId Id, int NumActions, int *ActionKey) {
  ++Stats.NumWriteBack;
  assert(ActionKey && "invalid write-back destination");
  NameId Owner = wbOwner(Id);
  assert(Owner != InvalidNameId && "write-back before any au_NN");
  [[maybe_unused]] Model *M = getModel(Owner);
  assert(M && RlModel::classof(M) && "action write-back on non-RL model");
  assert(M->outputs().front().Size == NumActions &&
         "action count disagrees with the au_NN declaration");
  (void)NumActions;
  const std::vector<float> &Vals = Db.get(Id);
  assert(!Vals.empty() && "no predicted action in the database store");
  *ActionKey = static_cast<int>(Vals.front());
}

void Session::writeBack(const std::string &Name, size_t Size, float *Data) {
  writeBack(intern(Name), Size, Data);
}

void Session::writeBack(const std::string &Name, size_t Size, double *Data) {
  writeBack(intern(Name), Size, Data);
}

void Session::writeBack(const std::string &Name, int NumActions,
                        int *ActionKey) {
  writeBack(intern(Name), NumActions, ActionKey);
}

void Session::setWbOwner(NameId Out, NameId ModelId) {
  if (Out >= WbOwner.size())
    WbOwner.resize(Out + 1, InvalidNameId);
  WbOwner[Out] = ModelId;
}

//===----------------------------------------------------------------------===//
// Checkpoint / restore and model management
//===----------------------------------------------------------------------===//

void Session::checkpoint() {
  ++Stats.NumCheckpoint;
  Ckpt.checkpoint(Db);
}

void Session::restore() {
  ++Stats.NumRestore;
  Ckpt.restore(Db);
}

Model *Session::getModel(const std::string &Name) { return Eng.getModel(Name); }

Model *Session::getModel(NameId Id) {
  // Fast path: the per-session cache, filled by config() and on first
  // lookup, makes the per-call model resolution lock-free.
  if (Id < ModelCache.size() && ModelCache[Id])
    return ModelCache[Id];
  Model *M = Eng.getModel(Id);
  if (M) {
    if (Id >= ModelCache.size())
      ModelCache.resize(Id + 1, nullptr);
    ModelCache[Id] = M;
  }
  return M;
}

double Session::trainSupervised(const std::string &ModelName, int Epochs,
                                int BatchSize) {
  return Eng.trainSupervised(ModelName, Epochs, BatchSize);
}

bool Session::saveModel(const std::string &ModelName) {
  return Eng.saveModel(ModelName);
}

bool Session::saveAllModels() { return Eng.saveAllModels(); }

std::string Session::modelPath(const std::string &ModelName) const {
  return Eng.modelPath(ModelName);
}

//===----------------------------------------------------------------------===//
// Shared-inference serving
//===----------------------------------------------------------------------===//

bool Session::predictShared(NameId ModelId, const float *Xs, int Rows,
                            std::vector<float> &Out) {
  if (ModelId >= Replicas.size())
    Replicas.resize(ModelId + 1);
  std::unique_ptr<InferenceReplica> &Rep = Replicas[ModelId];
  if (!Rep)
    Rep = std::make_unique<InferenceReplica>();
  if (!Rep->refresh(Eng, ModelId))
    return false;
  Rep->predictRows(Xs, Rows, Out);
  return true;
}

uint64_t Session::servingVersion(NameId ModelId) const {
  return ModelId < Replicas.size() && Replicas[ModelId]
             ? Replicas[ModelId]->version()
             : 0;
}
