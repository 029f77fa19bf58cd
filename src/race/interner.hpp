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
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace cs31::race {

/// Dense id of an interned name (variable, lock, channel, or site label).
using NameId = std::uint32_t;

class Interner {
 public:
  /// Id of `name`, interning it on first sight (ids count up from 0 in
  /// first-seen order).
  NameId id(std::string_view name);

  /// The name behind an id. Throws cs31::Error on an unknown id.
  [[nodiscard]] const std::string& name(NameId id) const;

  /// Number of distinct names interned.
  [[nodiscard]] std::size_t size() const { return names_.size(); }

  /// Approximate heap footprint (table + stored names), for the
  /// shadow-state accounting in bench_race_overhead.
  [[nodiscard]] std::size_t bytes() const;

 private:
  // Each name is stored exactly once, in the deque (stable addresses —
  // a vector's reallocation would dangle the views); the lookup table
  // keys string_views into that storage, so the string API's hot lookup
  // builds no temporary std::string either.
  std::unordered_map<std::string_view, NameId> ids_;
  std::deque<std::string> names_;
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
