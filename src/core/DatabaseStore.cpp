//===- core/DatabaseStore.cpp - The database store (pi) -------------------===//

#include "core/DatabaseStore.h"

#include <cassert>

using namespace au;

static const std::vector<float> EmptyList;

DatabaseStore::InternAuthority::~InternAuthority() = default;

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

NameId DatabaseStore::intern(std::string_view Name) {
  NameId Id = Names.intern(Name);
  if (Id >= Slots.size())
    Slots.resize(Names.size());
  return Id;
}

//===----------------------------------------------------------------------===//
// Handle-keyed primitives (append/get/reset/serialize are inline in the
// header)
//===----------------------------------------------------------------------===//

void DatabaseStore::set(NameId Id, const float *Values, size_t N) {
  Slot &S = slot(Id);
  S.Data.assign(Values, Values + N);
  S.Mapped = true;
}

void DatabaseStore::set(NameId Id, std::vector<float> Values) {
  Slot &S = slot(Id);
  S.Data = std::move(Values);
  S.Mapped = true;
}

NameId DatabaseStore::combinedIdFor(const std::vector<NameId> &Ids) {
  auto It = CombinedIds.find(Ids);
  NameId Combined;
  if (It != CombinedIds.end()) {
    Combined = It->second;
  } else {
    std::string Name;
    for (NameId Id : Ids)
      Name += Names.name(Id);
    // With an authority installed (Session-owned stores), the combined
    // name interns through the engine's master table — resolveName replays
    // it into this store before returning, so the id indexes Slots here
    // exactly as a local intern would.
    Combined = Authority ? Authority->resolveName(Name) : intern(Name);
    assert(Combined < Slots.size() &&
           "intern authority returned an id unknown to this store");
    CombinedIds.emplace(Ids, Combined);
  }
  LastSerializeIds = Ids;
  LastSerializeCombined = Combined;
  return Combined;
}

//===----------------------------------------------------------------------===//
// String-keyed shims
//===----------------------------------------------------------------------===//

void DatabaseStore::append(const std::string &Name,
                           const std::vector<float> &Values) {
  append(intern(Name), Values.data(), Values.size());
}

void DatabaseStore::append(const std::string &Name, float Value) {
  append(intern(Name), &Value, 1);
}

const std::vector<float> &DatabaseStore::get(const std::string &Name) const {
  NameId Id = Names.find(Name);
  return Id == InvalidNameId ? EmptyList : get(Id);
}

void DatabaseStore::set(const std::string &Name, std::vector<float> Values) {
  set(intern(Name), std::move(Values));
}

void DatabaseStore::reset(const std::string &Name) {
  NameId Id = Names.find(Name);
  if (Id != InvalidNameId && Id < Slots.size())
    reset(Id);
}

bool DatabaseStore::contains(const std::string &Name) const {
  NameId Id = Names.find(Name);
  return Id != InvalidNameId && Id < Slots.size() && contains(Id);
}

std::string DatabaseStore::serialize(const std::vector<std::string> &Names_) {
  assert(!Names_.empty() && "serialize of no lists");
  return nameOf(serialize(internRange(Names_)));
}

std::string DatabaseStore::serialize(std::initializer_list<const char *> Ns) {
  assert(Ns.size() > 0 && "serialize of no lists");
  return nameOf(serialize(internRange(Ns)));
}

//===----------------------------------------------------------------------===//
// Accounting
//===----------------------------------------------------------------------===//

size_t DatabaseStore::numEntries() const {
  size_t N = 0;
  for (const Slot &S : Slots)
    N += S.Mapped;
  return N;
}

size_t DatabaseStore::totalValues() const {
  size_t N = 0;
  for (const Slot &S : Slots)
    N += S.Data.size(); // Bottom slots hold empty lists.
  return N;
}

void DatabaseStore::clear() {
  for (Slot &S : Slots)
    S = Slot();
}
