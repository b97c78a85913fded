//===- core/Checkpoint.h - Program-state checkpoint/restore ----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint/restore of the program store sigma and the database store pi
/// (Fig. 8, Rules CHECKPOINT and RESTORE). The paper uses KVM to snapshot
/// the whole process and then overwrites the model state from persistent
/// storage so the model keeps learning across rollbacks; here programs
/// register their state explicitly — raw memory regions and/or
/// Checkpointable objects — and the manager snapshots those together with
/// pi. Model state is never registered, which realizes the same
/// "checkpoint sigma and pi but not theta" contract directly.
///
/// A snapshot is a plain copy of every registered region, every object
/// blob and every pi slot into buffers the manager retains, so the steady
/// state allocates nothing. The repo's programs checkpoint 3-12 pi slots
/// with at most one mapped float among them (DESIGN.md §7), so the copy is
/// cheaper than tracking what changed.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_CHECKPOINT_H
#define AU_CORE_CHECKPOINT_H

#include "core/DatabaseStore.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace au {

/// Objects with non-POD state implement this to participate in
/// checkpointing (e.g. a game world with dynamic entity vectors).
class Checkpointable {
public:
  virtual ~Checkpointable();

  /// Serializes the full object state into \p Out.
  virtual void saveState(std::vector<uint8_t> &Out) const = 0;

  /// Restores state previously produced by saveState.
  virtual void loadState(const std::vector<uint8_t> &In) = 0;
};

/// Snapshots registered program state plus a database store.
class CheckpointManager {
public:
  /// Registers a raw memory region (POD program variables).
  void registerRegion(void *Ptr, size_t Bytes);

  /// Registers a structured object.
  void registerObject(Checkpointable *Obj);

  /// Takes the snapshot of all registered state and \p Db (Rule
  /// CHECKPOINT's mkSnapshot over <sigma, pi>).
  void checkpoint(const DatabaseStore &Db);

  /// Restores the last snapshot into the registered state and \p Db (Rule
  /// RESTORE's rtSnapshot). The snapshot stays valid, so ending states can
  /// roll back repeatedly to the same checkpoint, as Mario training does.
  /// Requires hasCheckpoint().
  void restore(DatabaseStore &Db);

  bool hasCheckpoint() const { return HasSnapshot; }

  /// Snapshot footprint in bytes (region bytes + object blobs + pi values).
  size_t snapshotBytes() const;

private:
  struct Region {
    void *Ptr;
    size_t Bytes;
  };
  /// Snapshot of one pi slot: its values and mapped-ness.
  struct SlotSnap {
    std::vector<float> Data;
    bool Mapped = false;
  };

  std::vector<Region> Regions;
  std::vector<Checkpointable *> Objects;

  bool HasSnapshot = false;
  std::vector<std::vector<uint8_t>> RegionData;
  std::vector<std::vector<uint8_t>> ObjectData;
  std::vector<SlotSnap> DbSnap; ///< Indexed by NameId.
};

} // namespace au

#endif // AU_CORE_CHECKPOINT_H
