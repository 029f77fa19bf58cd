// String interner for the race detector's shadow state. FastTrack-style
// compression only pays off if the per-access bookkeeping stops touching
// strings: the detector interns every variable, lock, channel, and
// access-site label to a dense uint32 id on first sight and keys all of
// its shadow tables by id. Names are resolved back to strings only when
// a RaceReport is materialized (races are rare; accesses are not).
//
// Ids are assigned in first-seen order, so a deterministic event stream
// (a replayed schedule, a seeded fuzz trace) always produces the same
// ids — and therefore byte-identical reports — run after run.
//
// A caller that names a whole family of variables up front (every cell
// of a traced Life grid) reserves them as one block instead. On a table
// with no names yet the block takes ids [0, count) and its names are
// formatted only when somebody reads one, or all at once on the first
// string lookup into that table, so ids stay one-to-one with names.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cs31::race {

/// Dense id of an interned name (variable, lock, channel, or site label).
using NameId = std::uint32_t;

/// The name of the `index`-th id of a reserved block. Must be a pure
/// function of the index and give distinct names for distinct indices.
using NameFormat = std::function<std::string(std::size_t index)>;

/// Same, for names that already live somewhere that outlives the
/// tables: the block hands out references to them and copies nothing.
using NameSource = std::function<const std::string&(std::size_t index)>;

class Interner {
 public:
  /// Id of `name`, interning it on first sight (ids count up from 0 in
  /// first-seen order).
  NameId id(std::string_view name);

  /// Take the next `count` ids for the names `format(0)` … `format(count
  /// - 1)` and return the first. On an empty table nothing is formatted
  /// now: the block keeps ids [0, count) and names them on read. On a
  /// table that holds names already, the block's names are interned in
  /// order at once, so a block whose names are already interned, in
  /// order, returns the same ids again; one that overlaps other names
  /// throws cs31::Error, because its ids could not be consecutive.
  NameId reserve(std::size_t count, NameFormat format);
  /// reserve over names the block reads in place (on an empty table;
  /// on another the names are interned as copies).
  NameId borrow(std::size_t count, NameSource source);

  /// The name behind an id (a reserved one is formatted on first read).
  /// The reference stays valid for the interner's lifetime. Throws
  /// cs31::Error on an unknown id.
  [[nodiscard]] const std::string& name(NameId id) const;

  /// Number of ids handed out, reserved ones included.
  [[nodiscard]] std::size_t size() const { return block_size_ + names_.size(); }

  /// Approximate heap footprint (table + names formatted so far), for
  /// the shadow-state accounting in bench_race_overhead.
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// Put every name of the reserved block into the lookup table.
  void index_block();

  // Each name is stored exactly once, in its own block (stable
  // addresses — a vector of strings would dangle the views on
  // reallocation); the lookup table keys string_views into that
  // storage, so the string API's hot lookup builds no temporary
  // std::string either. Interned names are ids block_size_ and up; the
  // lazily reserved block, if any, is ids [0, block_size_), formatted
  // into block_names_ on first read (name() is const, hence mutable; a
  // node map keeps each name in place) and indexed on the first string
  // lookup. Tables that only reserve blocks (an explorer run's)
  // allocate nothing until a name is read.
  std::unordered_map<std::string_view, NameId> ids_;
  std::vector<std::unique_ptr<const std::string>> names_;
  std::size_t block_size_ = 0;
  NameFormat block_format_;
  NameSource block_source_;  ///< set instead of block_format_ for borrowed names
  mutable std::unordered_map<NameId, std::string> block_names_;
  bool block_indexed_ = true;
};

/// The four name spaces a detector interns.
enum class NameKind : std::uint8_t { Var, Lock, Channel, Site };

/// One Interner per NameKind behind one mutex, so that a capture
/// context, the detector it feeds, and the race lists that detector
/// hands out can share a single copy of every name instead of each
/// interning its own. Safe from any thread.
class NameTables {
 public:
  NameId intern(NameKind kind, std::string_view name);

  /// Interner::reserve on one table.
  NameId reserve(NameKind kind, std::size_t count, NameFormat format);
  NameId borrow(NameKind kind, std::size_t count, NameSource source);

  /// The name behind an id. The reference stays valid for the tables'
  /// lifetime: names never move once interned. Throws cs31::Error on an
  /// unknown id.
  [[nodiscard]] const std::string& name(NameKind kind, NameId id) const;

  [[nodiscard]] std::size_t size(NameKind kind) const;

  /// Interner::bytes summed over the four tables.
  [[nodiscard]] std::size_t bytes() const;

 private:
  mutable std::mutex mutex_;
  std::array<Interner, 4> tables_;
};

}  // namespace cs31::race
