//===- core/Checkpoint.cpp - Program-state checkpoint/restore ------------===//

#include "core/Checkpoint.h"

#include <cassert>
#include <cstring>

using namespace au;

Checkpointable::~Checkpointable() = default;

void CheckpointManager::registerRegion(void *Ptr, size_t Bytes) {
  assert(Ptr && Bytes > 0 && "invalid checkpoint region");
  for (const Region &R : Regions)
    if (R.Ptr == Ptr)
      return; // Already registered.
  Regions.push_back({Ptr, Bytes});
}

void CheckpointManager::registerObject(Checkpointable *Obj) {
  assert(Obj && "null checkpointable object");
  for (Checkpointable *O : Objects)
    if (O == Obj)
      return; // Already registered.
  Objects.push_back(Obj);
}

void CheckpointManager::checkpoint(const DatabaseStore &Db) {
  RegionData.resize(Regions.size());
  for (size_t I = 0, E = Regions.size(); I != E; ++I) {
    const auto *Bytes = static_cast<const uint8_t *>(Regions[I].Ptr);
    RegionData[I].assign(Bytes, Bytes + Regions[I].Bytes);
  }
  ObjectData.resize(Objects.size());
  for (size_t I = 0, E = Objects.size(); I != E; ++I) {
    ObjectData[I].clear();
    Objects[I]->saveState(ObjectData[I]);
  }
  DbSnap.resize(Db.numSlots());
  for (NameId Id = 0, E = static_cast<NameId>(DbSnap.size()); Id != E; ++Id) {
    const std::vector<float> &L = Db.get(Id);
    DbSnap[Id].Data.assign(L.begin(), L.end());
    DbSnap[Id].Mapped = Db.contains(Id);
  }
  HasSnapshot = true;
}

void CheckpointManager::restore(DatabaseStore &Db) {
  assert(HasSnapshot && "restore without a checkpoint");
  assert(RegionData.size() == Regions.size() &&
         ObjectData.size() == Objects.size() &&
         "registration changed since the checkpoint was taken");
  for (size_t I = 0, E = Regions.size(); I != E; ++I)
    std::memcpy(Regions[I].Ptr, RegionData[I].data(), Regions[I].Bytes);
  for (size_t I = 0, E = Objects.size(); I != E; ++I)
    Objects[I]->loadState(ObjectData[I]);
  for (NameId Id = 0, E = static_cast<NameId>(DbSnap.size()); Id != E; ++Id) {
    const SlotSnap &Snap = DbSnap[Id];
    if (Snap.Mapped)
      Db.set(Id, Snap.Data.data(), Snap.Data.size());
    else
      Db.reset(Id);
  }
  // Slots first written after the snapshot roll back to bottom.
  for (NameId Id = static_cast<NameId>(DbSnap.size()),
              E = static_cast<NameId>(Db.numSlots());
       Id < E; ++Id)
    Db.reset(Id);
}

size_t CheckpointManager::snapshotBytes() const {
  size_t Bytes = 0;
  for (const auto &Buf : RegionData)
    Bytes += Buf.size();
  for (const auto &Buf : ObjectData)
    Bytes += Buf.size();
  for (const SlotSnap &Snap : DbSnap)
    if (Snap.Mapped)
      Bytes += Snap.Data.size() * sizeof(float);
  return Bytes;
}
