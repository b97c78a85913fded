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
/// NameIds by an embedded NameTable, and the store is a flat vector of
/// slots indexed by NameId. Every slot is a plain list plus a mapped flag.
/// It keeps its float buffer across reset(), so steady-state
/// extract/append does zero allocations.
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
#include <string>
#include <unordered_map>
#include <vector>

namespace au {

/// pi ::= Name -> list of Value. Copyable so tests and the executable
/// semantics can snapshot it wholesale.
class DatabaseStore {
public:
  /// Delegates interning of names the store creates *itself* (today only
  /// the combined names of serialize()) to an external owner. A Session
  /// installs itself here so combined names intern through the engine's
  /// master table and the store stays a positional mirror of it
  /// (DESIGN.md §10); a standalone store interns locally as before. The
  /// authority must return an id that is valid in this store by the time
  /// it returns (the session's name replay guarantees that).
  class InternAuthority {
  public:
    virtual ~InternAuthority();
    virtual NameId resolveName(std::string_view Name) = 0;
  };

  //===--------------------------------------------------------------------===//
  // Name interning
  //===--------------------------------------------------------------------===//

  /// Interns \p Name (idempotent) and returns its dense handle. The handle
  /// APIs below are the hot path; intern once, outside the loop. Note:
  /// interning directly into a Session-owned store bypasses the engine's
  /// master table and the session will detect the divergence — go through
  /// Session::intern instead.
  NameId intern(std::string_view Name);

  /// Installs (or clears, with null) the interning authority.
  void setInternAuthority(InternAuthority *A) { Authority = A; }

  const NameTable &names() const { return Names; }

  /// The string a handle was interned from.
  const std::string &nameOf(NameId Id) const { return Names.name(Id); }

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

  /// Number of slots (== names().size(); includes bottom slots).
  size_t numSlots() const { return Slots.size(); }

private:
  /// One arena slot. Invariant: an unmapped slot's list is empty, so get()
  /// needs no branch and bottom contributes nothing to a serialize.
  struct Slot {
    std::vector<float> Data;
    bool Mapped = false;
  };

  Slot &slot(NameId Id);
  const Slot &slot(NameId Id) const;

  /// Cold half of serialize(): combined-name interning on an id-vector
  /// cache miss (routed through the InternAuthority when one is set).
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

  NameTable Names;
  std::vector<Slot> Slots;
  InternAuthority *Authority = nullptr;
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
  assert(Id < Slots.size() && "NameId from a different store");
  return Slots[Id];
}

inline const DatabaseStore::Slot &DatabaseStore::slot(NameId Id) const {
  assert(Id < Slots.size() && "NameId from a different store");
  return Slots[Id];
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
  Slot &S = slot(Id);
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
    const std::vector<float> &L = slot(Id).Data;
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
