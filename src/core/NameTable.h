//===- core/NameTable.h - Interned feature/model names ---------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name interning for the primitive hot path. The operational semantics
/// (Fig. 8) keys the database store pi and the model store theta by strings;
/// paying a string hash (or worse, a string concatenation) on every
/// au_extract / au_serialize / au_NN call dominates the per-iteration
/// overhead once the model math is fast. A NameTable interns each name
/// exactly once into a dense NameId; all hot-path structures are then plain
/// vectors indexed by NameId, and the string APIs remain thin forwarding
/// shims that intern on entry.
///
/// All executions share one namespace of names (the one theta is keyed
/// by), so an Engine owns exactly one table and every Session's store
/// indexes it (DESIGN.md §10). The table therefore takes its own mutex:
/// every member is safe from any thread. Handle-keyed primitives never
/// touch it.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_NAMETABLE_H
#define AU_CORE_NAMETABLE_H

#include <cassert>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace au {

/// Dense handle for an interned name. Ids are stable for the lifetime of
/// their NameTable and start at 0, so they double as vector indices.
using NameId = uint32_t;

/// "This name was never interned."
inline constexpr NameId InvalidNameId = 0xffffffffu;

/// Bidirectional string <-> NameId interner. Interning is append-only:
/// names are never removed, so a NameId stays valid (and its string
/// reference stable) forever. Thread-safe; the mutex is innermost in the
/// Engine's lock order.
class NameTable {
public:
  /// Returns the id of \p Name, interning it first if needed.
  NameId intern(std::string_view Name) {
    std::lock_guard<std::mutex> L(M);
    auto It = Ids.find(Name);
    if (It != Ids.end())
      return It->second;
    NameId Id = static_cast<NameId>(Names.size());
    Names.emplace_back(Name);
    Ids.emplace(Names.back(), Id);
    return Id;
  }

  /// The id of \p Name, or InvalidNameId when it was never interned.
  NameId find(std::string_view Name) const {
    std::lock_guard<std::mutex> L(M);
    auto It = Ids.find(Name);
    return It == Ids.end() ? InvalidNameId : It->second;
  }

  /// The string a NameId was interned from. The reference stays valid
  /// after the lock drops: the deque never moves its strings.
  const std::string &name(NameId Id) const {
    std::lock_guard<std::mutex> L(M);
    assert(Id < Names.size() && "NameId out of range");
    return Names[Id];
  }

  /// Number of interned names (== the smallest unused NameId).
  size_t size() const {
    std::lock_guard<std::mutex> L(M);
    return Names.size();
  }

private:
  /// Transparent hashing so find/intern of a string_view never allocates.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view A, std::string_view B) const {
      return A == B;
    }
  };

  mutable std::mutex M;
  /// Deque, not vector: name() hands out references that the contract
  /// keeps stable across later interning, so growth must never move the
  /// strings.
  std::deque<std::string> Names;
  std::unordered_map<std::string, NameId, Hash, Eq> Ids;
};

} // namespace au

#endif // AU_CORE_NAMETABLE_H
