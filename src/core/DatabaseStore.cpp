//===- core/DatabaseStore.cpp - The database store (pi) -------------------===//

#include "core/DatabaseStore.h"

#include <cassert>

using namespace au;

const DatabaseStore::Slot DatabaseStore::Bottom{};

DatabaseStore::DatabaseStore() : Names(std::make_shared<NameTable>()) {}

DatabaseStore::DatabaseStore(std::shared_ptr<NameTable> T)
    : Names(std::move(T)) {
  assert(Names && "store without a name table");
}

//===----------------------------------------------------------------------===//
// Handle-keyed primitives (append/get/reset/serialize are inline in the
// header)
//===----------------------------------------------------------------------===//

void DatabaseStore::grow(NameId Id) {
  assert(Id < Names->size() && "NameId from a different name table");
  Slots.resize(static_cast<size_t>(Id) + 1);
}

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
      Name += Names->name(Id);
    Combined = intern(Name);
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

// A name never interned finds InvalidNameId, which lies past every slot
// vector and so reads (and resets) as bottom.

const std::vector<float> &DatabaseStore::get(const std::string &Name) const {
  return get(Names->find(Name));
}

void DatabaseStore::set(const std::string &Name, std::vector<float> Values) {
  set(intern(Name), std::move(Values));
}

void DatabaseStore::reset(const std::string &Name) {
  reset(Names->find(Name));
}

bool DatabaseStore::contains(const std::string &Name) const {
  return contains(Names->find(Name));
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
