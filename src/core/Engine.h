//===- core/Engine.h - Process-wide model plane (theta) --------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide half of the Engine/Session split (DESIGN.md §10): the
/// shared model store theta keyed by NameId, the master name table every
/// session's store mirrors, model persistence, and the cross-session
/// inference batchers. One Engine serves many concurrent Sessions — the
/// ROADMAP's multi-tenant serving plane.
///
/// Concurrency contract:
///  - intern()/nameOf()/numNames() and config()/getModel() are safe from
///    any thread (mutex-guarded; the name table's deque storage keeps
///    returned string references stable forever).
///  - Training mutates the *live* model and must stay on one thread per
///    model (the semantics' single TR execution). publishModel() snapshots
///    the live parameters into an immutable ParamSnapshot and installs it
///    with a release-store of the version counter; any number of TS-mode
///    readers then refresh InferenceReplicas from the snapshot with an
///    acquire-load and serve inference without ever touching the live
///    model. Lock order: BatchM -> ModelsM -> NamesM (and entry SnapM
///    innermost); no path takes them in any other order.
///  - nnBatchSessions()/nnRlSessions() fuse K sessions' au_NN calls into
///    one forwardBatch under BatchM; the per-session gathers and scatters
///    touch disjoint stores and parallelize on the global ThreadPool.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_ENGINE_H
#define AU_CORE_ENGINE_H

#include "core/Config.h"
#include "core/DatabaseStore.h"
#include "core/Model.h"
#include "core/Session.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace au {

class Engine;

/// One entry of the engine's model store: the live model plus the published
/// parameter snapshot concurrent readers serve from. Internal to Engine and
/// InferenceReplica; entries are created by config() and never destroyed
/// before the Engine, so raw pointers to them are stable.
struct EngineModelEntry {
  std::unique_ptr<Model> M;
  /// Publication counter: 0 = nothing published yet. Written with
  /// memory_order_release after the snapshot is installed; readers
  /// acquire-load it to decide whether to refresh.
  std::atomic<uint64_t> Version{0};
  std::shared_ptr<const ParamSnapshot> Snap;
  std::mutex SnapM; ///< Guards Snap (the pointer, not the snapshot).
};

/// A reader's private clone of a published model version: an
/// inference-only SupervisedTrainer rebuilt from the latest ParamSnapshot.
/// refresh() is cheap when the version is unchanged (one acquire-load);
/// on a version change it installs the new parameters into the clone.
/// Prediction runs the exact predictRowsInto code path direct serving
/// uses, so replica and live predictions are bitwise identical for the
/// same parameters.
class InferenceReplica {
public:
  /// Binds to \p ModelId on first call, then brings the clone up to the
  /// engine's latest published snapshot. Returns false while the model is
  /// unknown, is not supervised, or has no published snapshot yet (the
  /// caller falls back to the live model).
  bool refresh(Engine &Eng, NameId ModelId);

  /// The snapshot version currently installed (0 = none).
  uint64_t version() const { return SeenVersion; }

  void predictRows(const float *Xs, int Rows, std::vector<float> &Out) {
    Trainer->predictRowsInto(Xs, Rows, Out);
  }

private:
  EngineModelEntry *Entry = nullptr;
  uint64_t SeenVersion = 0;
  std::unique_ptr<nn::SupervisedTrainer> Trainer;
};

/// The process-wide model plane. Owns theta and the master name table;
/// Sessions bind to it and mirror its names.
class Engine {
public:
  /// \p ModelDir is where TS-mode au_config looks for saved models and
  /// where saveModel() writes them ("" = current directory).
  explicit Engine(std::string ModelDir = "");
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  //===--------------------------------------------------------------------===//
  // Master name table
  //===--------------------------------------------------------------------===//

  /// Interns \p Name into the master table (idempotent, thread-safe) and
  /// returns the engine-wide handle. Sessions replay new names into their
  /// stores, so the handle indexes every session store of this engine.
  NameId intern(std::string_view Name);

  size_t numNames() const;

  /// The string a handle was interned from (reference stable forever).
  const std::string &nameOf(NameId Id) const;

  //===--------------------------------------------------------------------===//
  // Model store theta
  //===--------------------------------------------------------------------===//

  /// au_config against the shared store: Rule CONFIG-TRAIN creates the
  /// model if absent; Rule CONFIG-TEST (\p M == TS) loads it from ModelDir
  /// and publishes its parameters so shared-inference readers can serve it
  /// immediately. Idempotent per name.
  Model *config(const ModelConfig &C, Mode M);

  Model *getModel(const std::string &Name);
  Model *getModel(NameId Id);

  /// Offline supervised training of the live model, then a publishModel()
  /// so concurrent readers pick up the new parameters. Single trainer per
  /// model at a time. Returns the final epoch's mean loss.
  double trainSupervised(const std::string &ModelName, int Epochs,
                         int BatchSize);

  bool saveModel(const std::string &ModelName);
  bool saveAllModels();
  std::string modelPath(const std::string &ModelName) const;

  //===--------------------------------------------------------------------===//
  // Parameter-snapshot publication (DESIGN.md §10)
  //===--------------------------------------------------------------------===//

  /// Captures the live model's parameters into a fresh immutable snapshot
  /// and publishes it (release-store of the bumped version counter).
  /// Returns the new version, or 0 when the model has nothing to publish
  /// (unknown, unbuilt, or an RL model — those serve through the live
  /// learner). Call from the thread that trains the model.
  uint64_t publishModel(const std::string &ModelName);
  uint64_t publishModel(NameId Id);

  /// Latest published version (acquire-load; 0 = none).
  uint64_t modelVersion(NameId Id);

  /// The latest published snapshot (null when none).
  std::shared_ptr<const ParamSnapshot> modelSnapshot(NameId Id);

  //===--------------------------------------------------------------------===//
  // Cross-session inference batchers
  //===--------------------------------------------------------------------===//

  /// Fused supervised au_NN for \p K sessions: gathers session k's
  /// serialized features pi_k[ExtIds[k]] into row k of one K x D staging
  /// block (parallel, disjoint stores), predicts all K rows with ONE
  /// forwardBatch call — through a serving replica of the latest published
  /// snapshot when one exists, else the live model — and scatters each
  /// declared output into each session's store (parallel). Counts one
  /// au_NN per session; deployment-mode only. This is the multi-tenant
  /// serving hot path: K per-call predictions collapse into one batched
  /// network pass.
  void nnBatchSessions(NameId ModelId, Session *const *Sessions,
                       const NameId *ExtIds, int K,
                       const std::vector<WriteBackHandle> &Outputs);

  /// Fused RL au_NN for \p K sessions (the actor fleet of DESIGN.md §8,
  /// now a thin layer over the session plane): gather K states, one
  /// batched model step (observe + train-when-due + select), scatter K
  /// actions. \p Learning selects the TR/TS regime explicitly since the
  /// sessions may be in mixed modes.
  void nnRlSessions(NameId ModelId, Session *const *Sessions,
                    const NameId *ExtIds, const float *Rewards,
                    const uint8_t *Terminals, int K,
                    const WriteBackHandle &Output, bool Learning);

private:
  friend class Session;
  friend class InferenceReplica;

  /// Replays master-table names [From, size) into \p Db in order; returns
  /// the new high-water mark. Throws StoreDivergenceError when the replay
  /// cannot keep positions aligned (someone interned into \p Db directly).
  size_t appendNamesTo(DatabaseStore &Db, size_t From) const;

  EngineModelEntry *entryById(NameId Id);
  EngineModelEntry *entryByName(const std::string &Name);
  uint64_t publish(EngineModelEntry *E);

  /// Copies session k's model input pi_k[ExtIds[k]] into row k of the
  /// K x D block BatchRows (in parallel, row ranges per chunk) and returns
  /// D. Caller holds BatchM.
  size_t gatherRows(Session *const *Sessions, const NameId *ExtIds, int K);

  std::string ModelDir;

  mutable std::mutex NamesM;
  NameTable MasterNames;

  mutable std::mutex ModelsM;
  std::map<std::string, std::unique_ptr<EngineModelEntry>> Models; // theta
  std::vector<EngineModelEntry *> EntryById; ///< NameId -> entry.

  /// Serializes the cross-session batchers (one batcher runs at a time;
  /// the parallelism is inside: gather/scatter shards and the batched
  /// forward) and guards the staging below.
  std::mutex BatchM;
  std::vector<float> BatchRows;
  std::vector<float> NnOut;
  std::vector<int> ActionsScratch;
  /// Engine-level serving replicas for nnBatchSessions, one per model.
  std::unordered_map<NameId, std::unique_ptr<InferenceReplica>> ServeReps;
};

} // namespace au

#endif // AU_CORE_ENGINE_H
