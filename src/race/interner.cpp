#include "race/interner.hpp"

#include "common/error.hpp"

namespace cs31::race {

NameId Interner::id(std::string_view name) {
  if (!block_indexed_) index_block();
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<NameId>(size());
  names_.push_back(std::make_unique<const std::string>(name));
  ids_.emplace(std::string_view(*names_.back()), id);
  return id;
}

NameId Interner::reserve(std::size_t count, NameFormat format) {
  require(count < ~NameId{0} - size(), "interner: too many names");
  if (count == 0) return static_cast<NameId>(size());
  if (size() == 0) {
    // Nothing interned yet, so no name of the block can collide with
    // one: keep the formatter and name ids only when they are read.
    block_size_ = count;
    block_format_ = std::move(format);
    block_indexed_ = false;
    return 0;
  }
  const NameId base = id(format(0));
  for (std::size_t i = 1; i < count; ++i) {
    if (id(format(i)) != base + i) {
      throw Error("interner: reserved name '" + format(i) +
                  "' overlaps the names already interned");
    }
  }
  return base;
}

NameId Interner::borrow(std::size_t count, NameSource source) {
  if (size() != 0 || count == 0) {
    return reserve(count, [source](std::size_t i) { return std::string(source(i)); });
  }
  const NameId base = reserve(count, NameFormat{});
  block_source_ = std::move(source);
  return base;
}

const std::string& Interner::name(NameId id) const {
  if (id >= size()) throw Error("interner: unknown name id " + std::to_string(id));
  if (id >= block_size_) return *names_[id - block_size_];
  if (block_source_) return block_source_(id);
  auto it = block_names_.find(id);
  if (it == block_names_.end()) it = block_names_.emplace(id, block_format_(id)).first;
  return it->second;
}

void Interner::index_block() {
  for (NameId id = 0; id < block_size_; ++id) ids_.emplace(std::string_view(name(id)), id);
  block_indexed_ = true;
}

std::size_t Interner::bytes() const {
  // Estimate: each stored string (once — the table keys are views into
  // it) plus a hash-table node (view + id + bucket overhead). Strings
  // over the SSO threshold also own a heap block of `capacity + 1`.
  // Reserved names count only once they have been formatted.
  std::size_t total = sizeof(*this);
  constexpr std::size_t kNodeOverhead = 32;  // next ptr + hash + alignment
  const auto add_name = [&total](const std::string& s) {
    const std::size_t heap = s.capacity() >= sizeof(std::string) ? s.capacity() + 1 : 0;
    total += sizeof(std::string) + heap;
    total += kNodeOverhead + sizeof(std::string_view) + sizeof(NameId);
  };
  for (const auto& s : names_) add_name(*s);
  for (const auto& [id, s] : block_names_) add_name(s);
  total += (ids_.bucket_count() + block_names_.bucket_count()) * sizeof(void*);
  return total;
}

NameId NameTables::intern(NameKind kind, std::string_view name) {
  std::scoped_lock lock(mutex_);
  return tables_[static_cast<std::size_t>(kind)].id(name);
}

NameId NameTables::reserve(NameKind kind, std::size_t count, NameFormat format) {
  std::scoped_lock lock(mutex_);
  return tables_[static_cast<std::size_t>(kind)].reserve(count, std::move(format));
}

NameId NameTables::borrow(NameKind kind, std::size_t count, NameSource source) {
  std::scoped_lock lock(mutex_);
  return tables_[static_cast<std::size_t>(kind)].borrow(count, std::move(source));
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
