#include "trace/metrics.hpp"

#include <sstream>

#include "common/error.hpp"

namespace cs31::trace {

using race::ThreadId;

MetricsSink::MetricsSink() : rows_(1) {}  // the constructing context's thread 0

ThreadMetrics& MetricsSink::row(ThreadId t) {
  require(t < rows_.size(), "metrics: unknown thread id");
  return rows_[t];
}

ThreadId MetricsSink::register_thread() {
  rows_.emplace_back();
  return static_cast<ThreadId>(rows_.size() - 1);
}

ThreadId MetricsSink::fork(ThreadId parent) {
  (void)row(parent);  // validate
  ++events_;
  rows_.emplace_back();
  return static_cast<ThreadId>(rows_.size() - 1);
}

void MetricsSink::join(ThreadId parent, ThreadId child) {
  (void)row(parent);  // validate
  (void)row(child);
  ++events_;
}

void MetricsSink::acquire(ThreadId t, race::NameId lock) {
  ++row(t).acquires;
  ++events_;
  require(lock < lock_names_.size(), "metrics: acquire of a lock id that was never interned");
  if (lock >= lock_acquires_.size()) lock_acquires_.resize(lock + 1, 0);
  ++lock_acquires_[lock];
}

void MetricsSink::release(ThreadId t, race::NameId lock) {
  (void)lock;
  ++row(t).releases;
  ++events_;
}

void MetricsSink::barrier(const std::vector<ThreadId>& waiters) {
  require(!waiters.empty(), "metrics: barrier needs at least one waiter");
  for (const ThreadId w : waiters) ++row(w).barriers;
  ++events_;
  ++barrier_cycles_;
}

void MetricsSink::channel_send(ThreadId t, race::NameId channel) {
  (void)channel;
  ++row(t).sends;
  ++events_;
}

void MetricsSink::channel_recv(ThreadId t, race::NameId channel) {
  (void)channel;
  ++row(t).recvs;
  ++events_;
}

void MetricsSink::read(ThreadId t, race::NameId var, race::NameId site) {
  (void)var;
  (void)site;
  ++row(t).reads;
  ++events_;
}

void MetricsSink::write(ThreadId t, race::NameId var, race::NameId site) {
  (void)var;
  (void)site;
  ++row(t).writes;
  ++events_;
}

race::NameId MetricsSink::intern_var(std::string_view name) {
  (void)name;
  return 0;
}

race::NameId MetricsSink::intern_lock(std::string_view name) {
  return lock_names_.id(name);
}

race::NameId MetricsSink::intern_channel(std::string_view name) {
  (void)name;
  return 0;
}

race::NameId MetricsSink::intern_site(std::string_view label) {
  (void)label;
  return 0;
}

const std::vector<race::RaceReport>& MetricsSink::races() const {
  static const std::vector<race::RaceReport> kNone;
  return kNone;
}

std::size_t MetricsSink::shadow_bytes() const {
  return rows_.size() * sizeof(ThreadMetrics) +
         lock_acquires_.size() * sizeof(std::uint64_t);
}

std::string MetricsSink::summary() const {
  std::ostringstream out;
  out << "per-thread event mix (" << rows_.size() << " threads, " << events_ << " events, "
      << barrier_cycles_ << " barrier cycles):\n";
  for (std::size_t t = 0; t < rows_.size(); ++t) {
    const ThreadMetrics& m = rows_[t];
    out << "  T" << t << ": " << m.reads << " reads, " << m.writes << " writes, "
        << m.acquires << " acquires, " << m.sends << " sends, " << m.recvs
        << " recvs, " << m.barriers << " barrier waits\n";
  }
  if (lock_acquires_.empty()) {
    out << "  no locks acquired\n";
  } else {
    out << "lock acquire counts (contention proxy):\n";
    for (std::size_t id = 0; id < lock_acquires_.size(); ++id) {
      out << "  " << lock_names_.name(static_cast<race::NameId>(id)) << ": "
          << lock_acquires_[id] << "\n";
    }
  }
  return out.str();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsSink::lock_acquires() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(lock_acquires_.size());
  for (std::size_t id = 0; id < lock_acquires_.size(); ++id) {
    out.emplace_back(std::string(lock_names_.name(static_cast<race::NameId>(id))),
                     lock_acquires_[id]);
  }
  return out;
}

}  // namespace cs31::trace
