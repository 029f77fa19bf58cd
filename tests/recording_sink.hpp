// RecordingSink: an EventSink that writes every callback as one line of
// text, so two runs that dispatch the same events in the same order give
// equal strings. trace_capture_diff_test compares the two capture modes
// with it; trace_test compares a team join with joins one at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "race/detector.hpp"
#include "race/interner.hpp"

namespace cs31::test_support {

/// Serializes every EventSink callback into one canonical byte stream.
/// Two capture modes that dispatch the same events in the same order
/// produce equal strings; any reorder, drop, or duplicate shows up as a
/// first-diverging-line diff.
class RecordingSink final : public cs31::race::EventSink {
 public:
  [[nodiscard]] cs31::race::ThreadId register_thread() override {
    const auto t = next_++;
    line("root t" + std::to_string(t));
    return t;
  }
  [[nodiscard]] cs31::race::ThreadId fork(cs31::race::ThreadId parent) override {
    const auto child = next_++;
    line("fork t" + std::to_string(parent) + " -> t" + std::to_string(child));
    return child;
  }
  void join(cs31::race::ThreadId parent, cs31::race::ThreadId child) override {
    line("join t" + std::to_string(parent) + " <- t" + std::to_string(child));
  }
  void barrier(const std::vector<cs31::race::ThreadId>& waiters) override {
    std::string text = "barrier";
    for (const auto w : waiters) text += " t" + std::to_string(w);
    line(text);
  }

  // Ids index this sink's own name tables; each line prints the names.
  [[nodiscard]] cs31::race::NameId intern_var(std::string_view name) override {
    return names_.intern(Kind::Var, name);
  }
  [[nodiscard]] cs31::race::NameId intern_lock(std::string_view name) override {
    return names_.intern(Kind::Lock, name);
  }
  [[nodiscard]] cs31::race::NameId intern_channel(std::string_view name) override {
    return names_.intern(Kind::Channel, name);
  }
  [[nodiscard]] cs31::race::NameId intern_site(std::string_view label) override {
    return names_.intern(Kind::Site, label);
  }
  void acquire(cs31::race::ThreadId t, cs31::race::NameId lock) override {
    line("acquire t" + std::to_string(t) + " " + names_.name(Kind::Lock, lock));
  }
  void release(cs31::race::ThreadId t, cs31::race::NameId lock) override {
    line("release t" + std::to_string(t) + " " + names_.name(Kind::Lock, lock));
  }
  void channel_send(cs31::race::ThreadId t, cs31::race::NameId channel) override {
    line("send t" + std::to_string(t) + " " + names_.name(Kind::Channel, channel));
  }
  void channel_recv(cs31::race::ThreadId t, cs31::race::NameId channel) override {
    line("recv t" + std::to_string(t) + " " + names_.name(Kind::Channel, channel));
  }
  void read(cs31::race::ThreadId t, cs31::race::NameId var, cs31::race::NameId site) override {
    line("read t" + std::to_string(t) + " " + names_.name(Kind::Var, var) + " @ " +
         names_.name(Kind::Site, site));
  }
  void write(cs31::race::ThreadId t, cs31::race::NameId var, cs31::race::NameId site) override {
    line("write t" + std::to_string(t) + " " + names_.name(Kind::Var, var) + " @ " +
         names_.name(Kind::Site, site));
  }
  using EventSink::acquire, EventSink::release, EventSink::channel_send,
      EventSink::channel_recv, EventSink::read, EventSink::write;

  [[nodiscard]] const std::vector<cs31::race::RaceReport>& races() const override {
    return no_races_;
  }
  [[nodiscard]] bool race_free() const override { return true; }
  [[nodiscard]] std::uint64_t race_count() const override { return 0; }
  [[nodiscard]] std::uint64_t events() const override { return events_; }
  [[nodiscard]] std::size_t threads() const override { return next_; }
  [[nodiscard]] std::size_t shadow_bytes() const override { return stream_.size(); }
  [[nodiscard]] std::string summary() const override { return stream_; }

  [[nodiscard]] const std::string& stream() const { return stream_; }

 private:
  void line(const std::string& text) {
    stream_ += text;
    stream_ += '\n';
    ++events_;
  }

  using Kind = cs31::race::NameKind;

  cs31::race::NameTables names_;
  std::string stream_;
  std::uint64_t events_ = 0;
  cs31::race::ThreadId next_ = 1;  // thread 0 pre-registered, as in Detector
  std::vector<cs31::race::RaceReport> no_races_;
};

}  // namespace cs31::test_support
