#include "race/interner.hpp"

#include "common/error.hpp"

namespace cs31::race {

NameId Interner::id(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

const std::string& Interner::name(NameId id) const {
  if (id >= names_.size()) throw Error("interner: unknown name id " + std::to_string(id));
  return names_[id];
}

std::size_t Interner::bytes() const {
  // Estimate: the stored string (once — the table keys are views into
  // it) plus a hash-table node (view + id + bucket overhead). Strings
  // over the SSO threshold also own a heap block of `capacity + 1`.
  std::size_t total = sizeof(*this);
  constexpr std::size_t kNodeOverhead = 32;  // next ptr + hash + alignment
  for (const std::string& s : names_) {
    const std::size_t heap = s.capacity() >= sizeof(std::string) ? s.capacity() + 1 : 0;
    total += sizeof(std::string) + heap;
    total += kNodeOverhead + sizeof(std::string_view) + sizeof(NameId);
  }
  total += ids_.bucket_count() * sizeof(void*);
  return total;
}

NameId NameTables::intern(NameKind kind, std::string_view name) {
  std::scoped_lock lock(mutex_);
  return tables_[static_cast<std::size_t>(kind)].id(name);
}

const std::string& NameTables::name(NameKind kind, NameId id) const {
  std::scoped_lock lock(mutex_);
  return tables_[static_cast<std::size_t>(kind)].name(id);
}

std::size_t NameTables::size(NameKind kind) const {
  std::scoped_lock lock(mutex_);
  return tables_[static_cast<std::size_t>(kind)].size();
}

std::size_t NameTables::bytes() const {
  std::scoped_lock lock(mutex_);
  std::size_t total = 0;
  for (const Interner& table : tables_) total += table.bytes();
  return total;
}

}  // namespace cs31::race
