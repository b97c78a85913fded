//===- core/DatabaseStore.h - The database store (pi) ----------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The database store pi of the operational semantics (Fig. 8): a mapping
/// from names to lists of values. au_extract appends feature-variable
/// values here; model outputs are put here before au_write_back copies them
/// into program variables. The store is isolated from program memory — all
/// transfer is explicit through the primitives.
///
/// Hot-path layout (DESIGN.md §7): names are interned once into dense
/// NameIds by a NameTable, and the store is a flat vector of slots indexed
/// by NameId. Every slot is a plain list plus a mapped flag. It keeps its
/// float buffer across reset(), so steady-state extract/append does zero
/// allocations.
///
/// The table is shared, not owned: a Session's store indexes its Engine's
/// one table (DESIGN.md §10), so an id interned anywhere on the engine
/// names the same slot here. A default-constructed store makes its own
/// table, and a copy shares its source's. Slots grow on the first write to
/// an id past their end; a read of such an id is bottom.
///
/// serialize() copies, as Rule SERIALIZE reads: the sources are
/// concatenated into a retained scratch list that is then swapped into the
/// combined slot. The lists the repo's programs serialize are a handful of
/// floats, so the copy costs less than any bookkeeping that would avoid it.
/// The string-keyed API is a thin shim that interns and forwards.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_DATABASESTORE_H
#define AU_CORE_DATABASESTORE_H

#include "core/NameTable.h"

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace au {

/// pi ::= Name -> list of Value. Copyable so tests and the executable
/// semantics can snapshot it wholesale; the copy shares the name table.
class DatabaseStore {
public:
  /// A store over a table of its own.
  DatabaseStore();
  /// A store over \p Names, shared with whoever else holds it.
  explicit DatabaseStore(std::shared_ptr<NameTable> Names);

  //===--------------------------------------------------------------------===//
  // Name interning
  //===--------------------------------------------------------------------===//

  /// Interns \p Name into the store's table (idempotent) and returns its
  /// dense handle. The handle APIs below are the hot path; intern once,
  /// outside the loop.
  NameId intern(std::string_view Name) { return Names->intern(Name); }

  /// The string a handle was interned from.
  const std::string &nameOf(NameId Id) const { return Names->name(Id); }

  //===--------------------------------------------------------------------===//
  // Handle-keyed primitives (hot path)
  //===--------------------------------------------------------------------===//

  /// Appends \p N values to the list under \p Id (Rule EXTRACT's concat).
  void append(NameId Id, const float *Values, size_t N);
  void append(NameId Id, float Value);

  /// The list under \p Id; empty when unmapped (bottom).
  const std::vector<float> &get(NameId Id) const { return slot(Id).Data; }

  /// Replaces the list under \p Id (copying variant reuses the slot's
  /// buffer; no allocation once capacity is warm).
  void set(NameId Id, const float *Values, size_t N);
  void set(NameId Id, std::vector<float> Values);

  /// Maps \p Id back to bottom (Rule TRAIN/TEST reset the model-input list
  /// after each au_NN). Keeps the slot's buffer capacity for the next
  /// append.
  void reset(NameId Id);

  bool contains(NameId Id) const { return slot(Id).Mapped; }

  /// Rule SERIALIZE over handles: stores the concatenation of the lists
  /// under \p Ids under the combined name (the strcat of the source names,
  /// interned once and cached per id-vector) and returns the combined
  /// handle. With \p Consume the source entries are mapped back to bottom
  /// after the copy (the runtime's serialize semantics); the combined entry
  /// itself is never consumed, even when it is one of its own sources.
  NameId serialize(const std::vector<NameId> &Ids, bool Consume = false);

  //===--------------------------------------------------------------------===//
  // String-keyed primitives (compatibility shims; intern and forward)
  //===--------------------------------------------------------------------===//

  void append(const std::string &Name, const std::vector<float> &Values);
  void append(const std::string &Name, float Value);
  const std::vector<float> &get(const std::string &Name) const;
  void set(const std::string &Name, std::vector<float> Values);
  void reset(const std::string &Name);
  bool contains(const std::string &Name) const;

  /// Rule SERIALIZE: concatenates the lists under \p Names into a single
  /// list stored under the strcat of the names, and returns that combined
  /// name.
  std::string serialize(const std::vector<std::string> &Names);
  /// Disambiguates serialize({"A", "B"}): a braced list of string literals
  /// would otherwise also match the NameId vector via its iterator-pair
  /// constructor.
  std::string serialize(std::initializer_list<const char *> Names);

  //===--------------------------------------------------------------------===//
  // Accounting
  //===--------------------------------------------------------------------===//

  /// Number of mapped (non-bottom) names.
  size_t numEntries() const;

  /// Total stored floats across all lists.
  size_t totalValues() const;

  /// Cumulative floats ever appended (monotone). This is the Table 2
  /// "Trace Size" accounting. Deliberately survives both reset() and
  /// clear(): it counts what the primitives moved over the execution, not
  /// what the store currently holds (tests rely on this).
  size_t lifetimeAppended() const { return Appended; }

  /// Maps every entry to bottom and releases the slot buffers. Interned
  /// names (and their ids) survive; lifetimeAppended() survives (see
  /// above). Used by tests; not a primitive.
  void clear();

  /// Number of slots: one past the highest id ever written (includes
  /// bottom slots).
  size_t numSlots() const { return Slots.size(); }

private:
  /// One arena slot. Invariant: an unmapped slot's list is empty, so get()
  /// needs no branch and bottom contributes nothing to a serialize.
  struct Slot {
    std::vector<float> Data;
    bool Mapped = false;
  };

  /// The slot under \p Id, growing the slot vector on the first write
  /// past its end; the const form returns Bottom there instead.
  Slot &slot(NameId Id);
  const Slot &slot(NameId Id) const;
  /// Cold half of slot(): resizes the slot vector to hold \p Id.
  void grow(NameId Id);

  /// What a read of a never-written id sees.
  static const Slot Bottom;

  /// Cold half of serialize(): combined-name interning on an id-vector
  /// cache miss.
  NameId combinedIdFor(const std::vector<NameId> &Ids);

  /// Interns a range of string-ish names; shared by the string-keyed
  /// serialize shims.
  template <typename Range> std::vector<NameId> internRange(const Range &R) {
    std::vector<NameId> Ids;
    Ids.reserve(R.size());
    for (const auto &N : R)
      Ids.push_back(intern(N));
    return Ids;
  }

  /// Cache: source-id vector -> combined id, so steady-state serialize
  /// neither hashes strings nor concatenates them.
  struct IdVecHash {
    size_t operator()(const std::vector<NameId> &V) const {
      size_t H = 0xcbf29ce484222325ull;
      for (NameId Id : V)
        H = (H ^ Id) * 0x100000001b3ull;
      return H;
    }
  };

  std::shared_ptr<NameTable> Names;
  std::vector<Slot> Slots;
  std::unordered_map<std::vector<NameId>, NameId, IdVecHash> CombinedIds;
  /// One-entry MRU over CombinedIds: the annotated loop serializes the same
  /// id-vector every iteration, so a short equality check beats re-hashing.
  std::vector<NameId> LastSerializeIds;
  NameId LastSerializeCombined = InvalidNameId;
  size_t Appended = 0;
  /// serialize() builds the concatenation here and swaps it into the
  /// combined slot, so the old combined list comes back as the next
  /// call's scratch and neither buffer is reallocated once warm.
  std::vector<float> SerializeScratch;
};

//===----------------------------------------------------------------------===//
// Inline hot path (DESIGN.md §7): the handle-keyed append/reset pair runs
// once per au_extract / au_serialize constituent, so it is defined here to
// inline into the primitive bodies.
//===----------------------------------------------------------------------===//

inline DatabaseStore::Slot &DatabaseStore::slot(NameId Id) {
  if (Id >= Slots.size()) [[unlikely]]
    grow(Id);
  return Slots[Id];
}

inline const DatabaseStore::Slot &DatabaseStore::slot(NameId Id) const {
  return Id < Slots.size() ? Slots[Id] : Bottom;
}

inline void DatabaseStore::append(NameId Id, const float *Values, size_t N) {
  Slot &S = slot(Id);
  S.Data.insert(S.Data.end(), Values, Values + N);
  S.Mapped = true;
  Appended += N;
}

inline void DatabaseStore::append(NameId Id, float Value) {
  Slot &S = slot(Id);
  S.Data.push_back(Value);
  S.Mapped = true;
  ++Appended;
}

inline void DatabaseStore::reset(NameId Id) {
  if (Id >= Slots.size())
    return; // Never written: already bottom.
  Slot &S = Slots[Id];
  S.Data.clear();
  S.Mapped = false;
}

inline NameId DatabaseStore::serialize(const std::vector<NameId> &Ids,
                                       bool Consume) {
  assert(!Ids.empty() && "serialize of no lists");
  if (Ids.size() == 1)
    return Ids[0]; // A single list serializes onto its own name.

  // Steady-state loops serialize the same id-vector every iteration: a
  // short equality check beats re-hashing it.
  NameId Combined =
      Ids == LastSerializeIds ? LastSerializeCombined : combinedIdFor(Ids);

  // Copy every source before anything is consumed or replaced, so a
  // duplicate source counts each time and a combined name among its own
  // sources contributes its old list.
  SerializeScratch.clear();
  for (NameId Id : Ids) {
    const std::vector<float> &L = get(Id);
    SerializeScratch.insert(SerializeScratch.end(), L.begin(), L.end());
  }
  if (Consume)
    for (NameId Id : Ids)
      reset(Id); // The swap below remaps Combined should it be a source.
  Slot &C = slot(Combined);
  C.Data.swap(SerializeScratch);
  C.Mapped = true;
  return Combined;
}

} // namespace au

#endif // AU_CORE_DATABASESTORE_H
