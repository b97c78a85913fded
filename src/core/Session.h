//===- core/Session.h - Per-client execution state (sigma, pi) -*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One client's slice of an autonomized execution (DESIGN.md §10): the
/// database store pi, the checkpoint manager for the program store sigma,
/// the primitive counters and the retained output and conversion buffers.
/// The shared model store theta lives in the process-wide Engine; a
/// Session holds only what Fig. 8 scopes to a single execution, so many
/// sessions can serve concurrently over one Engine.
///
/// Every primitive of Fig. 1 is implemented here exactly once — a
/// program's own session and the RlHarness session pools all run through
/// the same Session methods. String-keyed overloads are one-line interning
/// shims over the handle-keyed hot path (DESIGN.md §7).
///
/// A program is autonomized by holding an Engine (theta, shared by every
/// execution) and a Session (this execution's <sigma, pi>) and adding a few
/// calls:
///
/// \code
///   au::Engine Eng;
///   au::Session S(Eng, au::Mode::TR);
///   S.config({.Name = "Mario", .Type = au::ModelType::DNN,
///             .Algo = au::Algorithm::QLearn, .HiddenLayers = {256, 64}});
///   ...
///   S.checkpoint();
///   while (Running) {
///     S.extract("PX", Player.X);
///     S.extract("PY", Player.Y);
///     S.nn("Mario", S.serialize({"PX", "PY"}), Reward, Terminated,
///          {"output", /*NumActions=*/5});
///     S.writeBack("output", 5, &ActionKey);
///     act(ActionKey);
///     if (Terminated)
///       S.restore();
///   }
/// \endcode
///
/// In TR (training) mode learning piggybacks on the execution: supervised
/// models record the program's own (human/autotuner-chosen) target values
/// at au_write_back as labels and train offline via trainSupervised();
/// Q-learning models train online inside au_NN. In TS (deployment) mode
/// au_config loads saved models and au_write_back overwrites the target
/// variables with predictions.
///
/// A session's name table mirrors the Engine's master table: intern() asks
/// the Engine for the id and then replays any names this store has not seen
/// yet, so a NameId is valid in every session of the engine and in the
/// engine itself. Combined serialize names take the same route through the
/// DatabaseStore::InternAuthority hook. If a caller bypasses the session
/// and interns directly into db(), the mirror can no longer hold — the next
/// intern() detects it and throws StoreDivergenceError (a real error path,
/// not an assert; it fires in release builds too).
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_SESSION_H
#define AU_CORE_SESSION_H

#include "core/Checkpoint.h"
#include "core/Config.h"
#include "core/DatabaseStore.h"
#include "core/Model.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace au {

class Engine;
class InferenceReplica;

/// Primitive-level counters (used by the overhead microbenchmarks and by
/// the Table 2 trace-size accounting); each Session owns one.
struct SessionStats {
  size_t NumConfig = 0;
  size_t NumExtract = 0;
  size_t FloatsExtracted = 0;
  size_t NumSerialize = 0;
  size_t NumNn = 0;
  size_t NumWriteBack = 0;
  size_t NumCheckpoint = 0;
  size_t NumRestore = 0;

  /// Trace footprint in bytes (extracted floats), Table 2's "Trace Size".
  size_t traceBytes() const { return FloatsExtracted * sizeof(float); }
};

/// Handle-keyed counterpart of WriteBackSpec: one declared output under an
/// interned name. For SL the number of predicted floats; for RL the number
/// of discrete actions.
struct WriteBackHandle {
  NameId Name = InvalidNameId;
  int Size = 1;
};

/// Thrown when a session (or actor) store's name table stops mirroring the
/// engine's master table — someone interned into the store behind the
/// session's back, so handles would resolve to the wrong slots.
class StoreDivergenceError : public std::runtime_error {
public:
  explicit StoreDivergenceError(const std::string &What)
      : std::runtime_error(What) {}
};

/// Per-client execution state <sigma, pi> bound to a shared Engine.
class Session : public DatabaseStore::InternAuthority {
public:
  /// Binds a new, empty session to \p Eng. The session starts with a full
  /// mirror of the engine's name table, so any handle interned earlier
  /// (by the engine or a sibling session) already indexes this store.
  Session(Engine &Eng, Mode M);
  ~Session() override;

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  Engine &engine() { return Eng; }

  Mode mode() const { return ExecMode; }

  /// Switches mode in place (e.g. evaluate a freshly trained in-memory
  /// model without a save/load round trip). The semantics fixes the mode
  /// per execution; this is a harness convenience.
  void switchMode(Mode M) { ExecMode = M; }

  /// Interns \p Name through the engine's master table (idempotent) and
  /// mirrors it locally; returns the dense handle accepted by every
  /// primitive overload below. The same id is valid in every session of
  /// this engine. Throws StoreDivergenceError when the local store no
  /// longer mirrors the master table (see the file comment).
  NameId intern(std::string_view Name);

  //===--------------------------------------------------------------------===//
  // Primitives
  //===--------------------------------------------------------------------===//

  /// au_config: Rule CONFIG-TRAIN creates the model in the engine's theta
  /// if absent; Rule CONFIG-TEST loads it instead. Returns the model.
  Model *config(const ModelConfig &C);

  /// au_extract: Rule EXTRACT appends Size values to pi[Name].
  void extract(const std::string &Name, size_t Size, const float *Data);
  void extract(const std::string &Name, size_t Size, const double *Data);
  void extract(const std::string &Name, float Value);
  void extract(const std::string &Name, double Value) {
    extract(Name, static_cast<float>(Value));
  }
  void extract(const std::string &Name, int Value) {
    extract(Name, static_cast<float>(Value));
  }

  /// au_extract over handles: appends straight into the retained slot
  /// buffer — no string hash, no temporary vector. Defined inline: this is
  /// the most frequent primitive of the annotated loop.
  void extract(NameId Id, size_t Size, const float *Data) {
    assert(Data || Size == 0);
    ++Stats.NumExtract;
    Stats.FloatsExtracted += Size;
    Db.append(Id, Data, Size);
  }
  void extract(NameId Id, size_t Size, const double *Data);
  void extract(NameId Id, float Value) {
    ++Stats.NumExtract;
    ++Stats.FloatsExtracted;
    Db.append(Id, Value);
  }
  void extract(NameId Id, double Value) {
    extract(Id, static_cast<float>(Value));
  }
  void extract(NameId Id, int Value) { extract(Id, static_cast<float>(Value)); }

  /// au_serialize: Rule SERIALIZE concatenates lists (and names); returns
  /// the combined name to pass to nn(). One-line shims over the handle
  /// path.
  std::string serialize(const std::vector<std::string> &Names);
  /// Disambiguates serialize({"A", "B"}) (see DatabaseStore::serialize).
  std::string serialize(std::initializer_list<const char *> Names);

  /// au_serialize over handles: copies the concatenation into the combined
  /// entry and returns the combined handle, cached per id-vector after the
  /// first call. Combined names intern through the engine
  /// (InternAuthority), so the handle is engine-wide.
  NameId serialize(const std::vector<NameId> &Ids) {
    ++Stats.NumSerialize;
    // The constituent lists are consumed: they have been moved into the
    // combined list. (Fig. 8's SERIALIZE leaves them mapped, but its
    // TRAIN/TEST rules only reset the combined extName — without this
    // refinement the model input would grow without bound across loop
    // iterations.)
    return Db.serialize(Ids, /*Consume=*/true);
  }

  /// au_NN, supervised form: consumes pi[ExtName] as the feature vector and
  /// declares the outputs this model predicts. TR records a pending sample
  /// completed by the write-backs; TS writes predictions into pi.
  void nn(const std::string &ModelName, const std::string &ExtName,
          const std::vector<WriteBackSpec> &Outputs);

  /// au_NN, reinforcement form (the paper's au_NN(model, ext, reward, term,
  /// wbName)): consumes pi[ExtName] as the state, feeds (reward, terminal)
  /// to the learner (TR trains online per Rule TRAIN; TS only predicts per
  /// Rule TEST) and stores the selected action in pi[Output.Name].
  void nn(const std::string &ModelName, const std::string &ExtName,
          float Reward, bool Terminal, const WriteBackSpec &Output);

  /// Handle-keyed au_NN forms. The feature/state list is read straight
  /// from its pi slot and, in TS mode, fed through the batched forwardBatch
  /// engine (Rows = 1), so the steady state allocates nothing per call.
  void nn(NameId ModelId, NameId ExtId,
          const std::vector<WriteBackHandle> &Outputs);
  void nn(NameId ModelId, NameId ExtId, float Reward, bool Terminal,
          const WriteBackHandle &Output);

  /// au_write_back: Rule WRITE-BACK copies pi[Name] into the program
  /// variable. In TR mode, supervised outputs flow the opposite way: the
  /// program's current values are recorded as the training label.
  void writeBack(const std::string &Name, size_t Size, float *Data);
  void writeBack(const std::string &Name, size_t Size, double *Data);

  /// RL write-back: \p NumActions documents the action count (the paper's
  /// "the value 5 means there are 5 possible actions"); the predicted
  /// action index is stored into *ActionKey.
  void writeBack(const std::string &Name, int NumActions, int *ActionKey);

  /// Handle-keyed write-backs.
  void writeBack(NameId Id, size_t Size, float *Data);
  void writeBack(NameId Id, size_t Size, double *Data);
  void writeBack(NameId Id, int NumActions, int *ActionKey);

  /// au_checkpoint: Rule CHECKPOINT snapshots registered program state and
  /// pi; model state theta is deliberately excluded.
  void checkpoint();

  /// au_restore: Rule RESTORE rolls program state and pi back to the last
  /// checkpoint; models keep their accumulated learning.
  void restore();

  //===--------------------------------------------------------------------===//
  // Session support
  //===--------------------------------------------------------------------===//

  DatabaseStore &db() { return Db; }
  CheckpointManager &checkpoints() { return Ckpt; }
  const SessionStats &stats() const { return Stats; }

  /// Folds externally accumulated primitive counters into this session's
  /// stats (session pools report their workers' counters into the session
  /// whose stats() the caller reads).
  void foldStats(const SessionStats &Delta) {
    Stats.NumExtract += Delta.NumExtract;
    Stats.FloatsExtracted += Delta.FloatsExtracted;
    Stats.NumSerialize += Delta.NumSerialize;
    Stats.NumNn += Delta.NumNn;
    Stats.NumWriteBack += Delta.NumWriteBack;
  }

  /// Looks up a configured model in the engine's theta; null when absent.
  Model *getModel(const std::string &Name);
  Model *getModel(NameId Id);

  /// Offline supervised training over the samples collected in TR mode;
  /// publishes a fresh parameter snapshot for concurrent TS readers.
  /// Returns the final epoch's mean loss.
  double trainSupervised(const std::string &ModelName, int Epochs,
                         int BatchSize);

  /// Persists one model / all models (engine-level theta).
  bool saveModel(const std::string &ModelName);
  bool saveAllModels();

  /// The file path a model is saved to / loaded from.
  std::string modelPath(const std::string &ModelName) const;

  //===--------------------------------------------------------------------===//
  // Shared-inference serving (DESIGN.md §10)
  //===--------------------------------------------------------------------===//

  /// When enabled, TS-mode supervised au_NN serves from a session-local
  /// replica of the engine's latest *published* parameter snapshot instead
  /// of touching the live (possibly training) model: many sessions on many
  /// threads then run inference concurrently while one trainer publishes.
  /// Off by default: the single-tenant path reads the live model directly.
  void setSharedInference(bool On) { SharedInference = On; }
  bool sharedInference() const { return SharedInference; }

  /// The snapshot version the session's serving replica of \p ModelId last
  /// refreshed to (0 = never served / no snapshot yet).
  uint64_t servingVersion(NameId ModelId) const;

private:
  friend class Engine;

  /// An SL au_NN whose labels have not all arrived yet (TR mode).
  struct PendingSample {
    NameId ModelId = InvalidNameId;
    std::vector<float> X;
    std::vector<WriteBackHandle> Outputs;
    /// (output id, label values); small, searched linearly.
    std::vector<std::pair<NameId, std::vector<float>>> Labels;
  };

  /// DatabaseStore::InternAuthority: combined serialize names intern here,
  /// so they land in the engine's master table like every other name.
  NameId resolveName(std::string_view Name) override { return intern(Name); }

  /// Replays engine names this store has not mirrored yet; throws
  /// StoreDivergenceError when the replay cannot keep ids aligned.
  void syncNames();

  void completePendingIfReady(PendingSample &P);
  void setWbOwner(NameId Out, NameId ModelId);
  NameId wbOwner(NameId Out) const {
    return Out < WbOwner.size() ? WbOwner[Out] : InvalidNameId;
  }

  /// Serves one TS prediction from the session replica when shared
  /// inference is on and a snapshot is published; returns false to fall
  /// back to the live model.
  bool predictShared(NameId ModelId, const float *Xs, int Rows,
                     std::vector<float> &Out);

  Engine &Eng;
  Mode ExecMode;
  /// How many of the engine's master-table names this store has mirrored;
  /// Db.names().size() must equal this at every sync point or the store
  /// has diverged (StoreDivergenceError).
  size_t Synced = 0;
  DatabaseStore Db;
  CheckpointManager Ckpt;
  std::vector<Model *> ModelCache; ///< NameId -> model (engine-backed).
  std::vector<NameId> WbOwner;     ///< Output id -> owning model id.
  std::vector<PendingSample> Pending;
  SessionStats Stats;
  bool SharedInference = false;
  /// NameId -> serving replica (only populated under shared inference).
  std::vector<std::unique_ptr<InferenceReplica>> Replicas;

  // Reusable hot-path buffers (DESIGN.md §7): predictions and numeric
  // conversions. Capacity warms up once; the loop allocates nothing.
  std::vector<float> NnOut;
  std::vector<float> ConvStaging;
};

} // namespace au

#endif // AU_CORE_SESSION_H
