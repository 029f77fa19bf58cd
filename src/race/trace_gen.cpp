#include "race/trace_gen.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cs31::race {
namespace {

const char* kind_name(TraceOp::Kind kind) {
  switch (kind) {
    case TraceOp::Kind::Fork: return "fork";
    case TraceOp::Kind::Join: return "join";
    case TraceOp::Kind::Acquire: return "lock";
    case TraceOp::Kind::Release: return "unlock";
    case TraceOp::Kind::Read: return "read";
    case TraceOp::Kind::Write: return "write";
    case TraceOp::Kind::Send: return "send";
    case TraceOp::Kind::Recv: return "recv";
    case TraceOp::Kind::Barrier: return "barrier";
  }
  return "?";
}

char object_prefix(TraceOp::Kind kind) {
  switch (kind) {
    case TraceOp::Kind::Acquire:
    case TraceOp::Kind::Release: return 'm';
    case TraceOp::Kind::Send:
    case TraceOp::Kind::Recv: return 'q';
    case TraceOp::Kind::Read:
    case TraceOp::Kind::Write: return 'v';
    default: return 't';  // Fork/Join name a thread
  }
}

}  // namespace

std::string TraceOp::to_string() const {
  std::ostringstream out;
  out << 't' << actor << ' ' << kind_name(kind);
  if (kind == Kind::Barrier) {
    out << " {";
    for (std::size_t i = 0; i < waiters.size(); ++i) {
      if (i > 0) out << ", ";
      out << 't' << waiters[i];
    }
    out << '}';
  } else {
    out << ' ' << object_prefix(kind) << object;
  }
  return out.str();
}

std::string Trace::to_string() const {
  std::ostringstream out;
  out << "# seed=" << seed << " ops=" << ops.size() << " threads=" << threads << '\n';
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out << '#' << i << ": " << ops[i].to_string() << '\n';
  }
  return out.str();
}

Trace generate_trace(std::uint64_t seed, TraceGenConfig config) {
  require(config.max_threads >= 1, "trace_gen: need at least the root thread");
  require(config.vars >= 1, "trace_gen: need at least one variable");
  common::SplitMix64 rng(seed);

  Trace trace;
  trace.seed = seed;
  trace.config = config;

  std::vector<std::uint32_t> live = {0};
  std::vector<std::vector<std::uint32_t>> held(config.max_threads);
  std::uint32_t total = 1;

  // Weighted op menu: reads/writes dominate (they are what detectors
  // disagree about), synchronization is frequent enough that many
  // accesses end up ordered, and fork/join keep the tree churning.
  enum class Pick { Read, Write, Acquire, Release, Fork, Join, Send, Recv, Barrier };
  struct Weighted {
    Pick pick;
    std::uint32_t weight;
  };
  const Weighted menu[] = {
      {Pick::Read, 28}, {Pick::Write, 22}, {Pick::Acquire, 10}, {Pick::Release, 10},
      {Pick::Fork, 6},  {Pick::Join, 4},   {Pick::Send, 6},     {Pick::Recv, 6},
      {Pick::Barrier, 8},
  };
  std::uint32_t total_weight = 0;
  for (const Weighted& w : menu) total_weight += w.weight;

  while (trace.ops.size() < config.ops) {
    const std::uint32_t actor = live[rng.below(live.size())];
    auto roll = static_cast<std::uint32_t>(rng.below(total_weight));
    Pick pick = Pick::Read;
    for (const Weighted& w : menu) {
      if (roll < w.weight) {
        pick = w.pick;
        break;
      }
      roll -= w.weight;
    }

    TraceOp op;
    op.actor = actor;
    switch (pick) {
      case Pick::Read:
      case Pick::Write:
        op.kind = pick == Pick::Read ? TraceOp::Kind::Read : TraceOp::Kind::Write;
        op.object = static_cast<std::uint32_t>(rng.below(config.vars));
        break;
      case Pick::Acquire: {
        if (config.locks == 0 || held[actor].size() >= config.max_locks_held) continue;
        op.kind = TraceOp::Kind::Acquire;
        op.object = static_cast<std::uint32_t>(rng.below(config.locks));
        held[actor].push_back(op.object);
        break;
      }
      case Pick::Release: {
        if (held[actor].empty()) continue;
        const auto idx = static_cast<std::uint32_t>(rng.below(held[actor].size()));
        op.kind = TraceOp::Kind::Release;
        op.object = held[actor][idx];
        held[actor].erase(held[actor].begin() + idx);
        break;
      }
      case Pick::Fork: {
        if (total >= config.max_threads) continue;
        op.kind = TraceOp::Kind::Fork;
        op.object = total;
        live.push_back(total);
        ++total;
        break;
      }
      case Pick::Join: {
        // Joinable: live, not the actor, not the root, holding nothing
        // (so the lock discipline stays clean after it goes dead).
        std::vector<std::uint32_t> candidates;
        for (const std::uint32_t t : live) {
          if (t != actor && t != 0 && held[t].empty()) candidates.push_back(t);
        }
        if (candidates.empty()) continue;
        const std::uint32_t child = candidates[rng.below(candidates.size())];
        op.kind = TraceOp::Kind::Join;
        op.object = child;
        live.erase(std::find(live.begin(), live.end(), child));
        break;
      }
      case Pick::Send:
      case Pick::Recv:
        if (config.channels == 0) continue;
        op.kind = pick == Pick::Send ? TraceOp::Kind::Send : TraceOp::Kind::Recv;
        op.object = static_cast<std::uint32_t>(rng.below(config.channels));
        break;
      case Pick::Barrier: {
        if (live.size() < 2) continue;
        // A barrier cycle among a shuffled subset of >= 2 live threads.
        std::vector<std::uint32_t> pool = live;
        for (std::size_t i = pool.size() - 1; i > 0; --i) {
          std::swap(pool[i], pool[rng.below(i + 1)]);
        }
        const auto size = static_cast<std::uint32_t>(2 + rng.below(pool.size() - 1));
        pool.resize(size);
        op.kind = TraceOp::Kind::Barrier;
        op.waiters = std::move(pool);
        break;
      }
    }
    trace.ops.push_back(std::move(op));
  }

  trace.threads = total;
  return trace;
}

void run_trace(const Trace& trace, EventSink& sink) {
  std::vector<ThreadId> tid(trace.threads, 0);
  tid[0] = 0;  // the sink pre-registers its root thread
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const TraceOp& op = trace.ops[i];
    if (op.actor >= tid.size()) {
      throw Error("trace op " + std::to_string(i) + ": bad actor");
    }
    const ThreadId actor = tid[op.actor];
    switch (op.kind) {
      case TraceOp::Kind::Fork:
        if (op.object >= tid.size()) {
          throw Error("trace op " + std::to_string(i) + ": bad child");
        }
        tid[op.object] = sink.fork(actor);
        break;
      case TraceOp::Kind::Join:
        sink.join(actor, tid[op.object]);
        break;
      case TraceOp::Kind::Acquire:
        sink.acquire(actor, 'm' + std::to_string(op.object));
        break;
      case TraceOp::Kind::Release:
        sink.release(actor, 'm' + std::to_string(op.object));
        break;
      case TraceOp::Kind::Read:
        sink.read(actor, 'v' + std::to_string(op.object), '#' + std::to_string(i));
        break;
      case TraceOp::Kind::Write:
        sink.write(actor, 'v' + std::to_string(op.object), '#' + std::to_string(i));
        break;
      case TraceOp::Kind::Send:
        sink.channel_send(actor, 'q' + std::to_string(op.object));
        break;
      case TraceOp::Kind::Recv:
        sink.channel_recv(actor, 'q' + std::to_string(op.object));
        break;
      case TraceOp::Kind::Barrier: {
        std::vector<ThreadId> waiters;
        waiters.reserve(op.waiters.size());
        for (const std::uint32_t w : op.waiters) waiters.push_back(tid[w]);
        sink.barrier(waiters);
        break;
      }
    }
  }
}

}  // namespace cs31::race
