#include "analyze/concur.hpp"

#include <algorithm>
#include <numeric>

namespace cs31::analyze {

namespace {

void add_edge(std::vector<OrderEdge>& edges, Resource from, Resource to,
              const ScriptOp* witness) {
  const auto same = [&](const OrderEdge& e) { return e.from == from && e.to == to; };
  if (std::none_of(edges.begin(), edges.end(), same)) edges.push_back({from, to, witness});
}

void sort_edges(std::vector<OrderEdge>& edges) {
  std::sort(edges.begin(), edges.end(), [](const OrderEdge& a, const OrderEdge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
}

/// The ids of `table` in name order, and each id's place in that order.
void rank_names(const std::vector<std::string>& table, std::span<std::uint32_t> by_name,
                std::span<std::uint32_t> rank) {
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(),
            [&table](std::uint32_t a, std::uint32_t b) { return table[a] < table[b]; });
  for (std::uint32_t r = 0; r < rank.size(); ++r) rank[by_name[r]] = r;
}

}  // namespace

std::string ScriptModel::resource_name(Resource r) const {
  if (r == barrier()) return "barrier";
  if (is_mutex(r)) return "mutex " + mutex_of_rank(r - mutex_resource(0));
  return "channel " + script->channels[channels_by_name[r - 1]];
}

bool ScriptModel::barrier_ordered(const ScriptOp& a, const ScriptOp& b) const {
  const ScriptOp& early = a.epoch <= b.epoch ? a : b;
  const ScriptOp& late = a.epoch <= b.epoch ? b : a;
  // `early` precedes its thread's (epoch+1)-th arrival; `late` follows
  // its thread's epoch-th. When cycle early.epoch+1 can complete (every
  // thread arrives that often), every schedule that executes `late`
  // orders `early` before it through the barrier's all-waiters edge.
  return early.epoch < late.epoch && early.epoch + 1 <= min_arrivals;
}

ScriptModel build_script_model(const race::Script& script) {
  ScriptModel model;
  model.script = &script;
  const std::size_t vars = script.vars.size(), mutexes = script.mutexes.size();
  const std::size_t channels = script.channels.size();
  model.facts.resize(2 * vars + 2 * mutexes + 4 * channels);
  std::size_t used = 0;
  const auto run = [&](std::size_t n) {
    used += n;
    return std::span<std::uint32_t>(model.facts).subspan(used - n, n);
  };
  model.vars_by_name = run(vars);
  model.mutexes_by_name = run(mutexes);
  model.channels_by_name = run(channels);
  model.mutex_rank = run(mutexes);
  model.channel_rank = run(channels);
  model.sends = run(channels);
  model.recvs = run(channels);
  model.var_owner = run(vars);
  rank_names(script.vars, model.vars_by_name, {});
  rank_names(script.mutexes, model.mutexes_by_name, model.mutex_rank);
  rank_names(script.channels, model.channels_by_name, model.channel_rank);
  std::fill(model.var_owner.begin(), model.var_owner.end(), ScriptModel::kNoOwner);
  model.threads.resize(script.threads.size());
  for (const auto& [t, i] : race::unmatched_unlocks(script)) {
    model.threads[t].unmatched_unlocks.push_back(static_cast<std::uint32_t>(i));
  }

  model.ops.reserve(script.total_ops());
  model.lock_pool.reserve(2 * script.total_ops());
  std::vector<std::uint32_t> held;  // mutex ids, acquisition order
  for (std::uint32_t t = 0; t < script.threads.size(); ++t) {
    ThreadScript& thread = model.threads[t];
    held.clear();
    std::uint32_t arrivals = 0;
    for (std::uint32_t i = 0; i < script.threads[t].size(); ++i) {
      const race::ScriptOp& parsed = script.threads[t][i];
      ScriptOp op{&parsed, t, i, arrivals,
                  static_cast<std::uint32_t>(model.lock_pool.size()),
                  static_cast<std::uint32_t>(held.size())};
      for (const std::uint32_t m : held) model.lock_pool.push_back(model.mutex_rank[m]);
      std::sort(model.lock_pool.begin() + op.locks_at, model.lock_pool.end());

      const std::uint32_t object = parsed.object;
      switch (parsed.verb) {
        case Verb::Lock:
          if (std::find(held.begin(), held.end(), object) != held.end()) {
            thread.self_relocks.push_back(i);
            // The walk stays lenient: past this point the thread is
            // statically stuck, but later ops still get the lockset
            // they would see if it somehow proceeded.
          } else {
            held.push_back(object);
          }
          break;
        case Verb::Unlock: {
          const auto it = std::find(held.begin(), held.end(), object);
          if (it != held.end()) held.erase(it);
          break;
        }
        case Verb::Send: ++model.sends[object]; break;
        case Verb::Recv: ++model.recvs[object]; break;
        case Verb::Barrier: ++arrivals; break;
        case Verb::Read:
        case Verb::Write:
          if (model.var_owner[object] == ScriptModel::kNoOwner) {
            model.var_owner[object] = t;
          } else if (model.var_owner[object] != t) {
            model.var_owner[object] = ScriptModel::kMany;
          }
          break;
      }
      model.ops.push_back(op);
    }
    thread.barrier_arrivals = arrivals;
  }
  for (std::size_t t = 0, at = 0; t < model.threads.size(); ++t) {
    model.threads[t].ops =
        std::span<const ScriptOp>(model.ops).subspan(at, script.threads[t].size());
    at += script.threads[t].size();
  }

  // Barrier arithmetic is over threads that appear in the schedule at
  // all — an empty script contributes no ops and no waiter (matching
  // replay()'s waiter set, which is derived from the interleaving).
  bool any = false;
  for (const ThreadScript& t : model.threads) {
    if (t.ops.empty()) continue;
    if (!any) {
      model.min_arrivals = model.max_arrivals = t.barrier_arrivals;
      any = true;
    } else {
      model.min_arrivals = std::min(model.min_arrivals, t.barrier_arrivals);
      model.max_arrivals = std::max(model.max_arrivals, t.barrier_arrivals);
    }
  }

  // The two order graphs. Lock-order: lock b while holding a. Wait-
  // order: the same edges, plus "resource behind a blocking op" edges
  // for channels (a send that cannot happen until an earlier lock /
  // recv / barrier completes) and the barrier (an arrival behind a
  // blocking op), plus "held across a blocking op" edges for locks
  // (the lock cannot be released until the blocking op completes).
  std::vector<Resource> blocking_before;  // resources, program order
  for (const ThreadScript& thread : model.threads) {
    blocking_before.clear();
    for (const ScriptOp& op : thread.ops) {
      const bool parked_possible = op.epoch > 0;  // waited at a barrier before this op
      const Resource barrier = model.barrier();
      switch (op.verb()) {
        case Verb::Lock: {
          const Resource lock = model.mutex_resource(model.mutex_rank[op.object()]);
          for (const std::uint32_t h : model.locks(op)) {
            add_edge(model.lock_order, model.mutex_resource(h), lock, &op);
            add_edge(model.wait_order, model.mutex_resource(h), lock, &op);
          }
          // A self-relock is a self-edge: the mutex waits on itself.
          if (std::find(thread.self_relocks.begin(), thread.self_relocks.end(), op.index) !=
              thread.self_relocks.end()) {
            add_edge(model.lock_order, lock, lock, &op);
            add_edge(model.wait_order, lock, lock, &op);
          }
          blocking_before.push_back(lock);
          break;
        }
        case Verb::Recv:
          for (const std::uint32_t h : model.locks(op)) {
            add_edge(model.wait_order, model.mutex_resource(h), model.channel(op.object()),
                     &op);
          }
          blocking_before.push_back(model.channel(op.object()));
          break;
        case Verb::Send:
          for (const Resource r : blocking_before) {
            add_edge(model.wait_order, model.channel(op.object()), r, &op);
          }
          if (parked_possible) {
            add_edge(model.wait_order, model.channel(op.object()), barrier, &op);
          }
          break;
        case Verb::Barrier:
          for (const std::uint32_t h : model.locks(op)) {
            add_edge(model.wait_order, model.mutex_resource(h), barrier, &op);
          }
          for (const Resource r : blocking_before) {
            // Skip the barrier self-edge two arrivals in one thread
            // would create: a deadlock involving ONLY the barrier is
            // exactly an arrival-count mismatch, which the dedicated
            // barrier-starvation check covers — the self-loop would
            // flag every multi-barrier program as a wait cycle.
            if (r != barrier) add_edge(model.wait_order, barrier, r, &op);
          }
          blocking_before.push_back(barrier);
          break;
        case Verb::Read:
        case Verb::Write:
        case Verb::Unlock:
          break;
      }
    }
  }
  sort_edges(model.lock_order);
  sort_edges(model.wait_order);
  return model;
}

// ---------------------------------------------------------------------
// Cycle detection: Tarjan SCCs over the (tiny) resource graph, on one
// block of per-node state.
// ---------------------------------------------------------------------

std::vector<std::vector<Resource>> cycle_components(const std::vector<OrderEdge>& edges) {
  std::vector<std::vector<Resource>> out;
  if (edges.empty()) return out;
  std::vector<Resource> nodes;
  nodes.reserve(2 * edges.size());
  for (const OrderEdge& e : edges) {
    nodes.push_back(e.from);
    nodes.push_back(e.to);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const std::size_t n = nodes.size();
  const auto id = [&nodes](Resource r) {
    return static_cast<std::uint32_t>(std::lower_bound(nodes.begin(), nodes.end(), r) -
                                      nodes.begin());
  };

  // The adjacency as offsets and targets, then each node's DFS index
  // and low link (0: unvisited), the SCC stack, and flags.
  constexpr std::uint32_t kOnStack = 1, kSelfLoop = 2;
  std::vector<std::uint32_t> block(n + 1 + edges.size() + 4 * n, 0);
  const auto run = [&block](std::size_t at, std::size_t count) {
    return std::span<std::uint32_t>(block).subspan(at, count);
  };
  const auto begin = run(0, n + 1), target = run(n + 1, edges.size());
  const auto index = run(n + 1 + edges.size(), n), low = run(2 * n + 1 + edges.size(), n);
  const auto stack = run(3 * n + 1 + edges.size(), n);
  const auto flags = run(4 * n + 1 + edges.size(), n);
  for (const OrderEdge& e : edges) {
    ++begin[id(e.from) + 1];
    if (e.from == e.to) flags[id(e.from)] |= kSelfLoop;
  }
  for (std::size_t v = 0; v < n; ++v) begin[v + 1] += begin[v];
  for (const OrderEdge& e : edges) {  // stack counts the targets placed so far
    const std::uint32_t v = id(e.from);
    target[begin[v] + stack[v]++] = id(e.to);
  }
  std::fill(stack.begin(), stack.end(), 0);

  std::uint32_t next = 1;
  std::size_t top = 0;
  const auto visit = [&](const auto& self, std::uint32_t v) -> void {
    index[v] = low[v] = next++;
    stack[top++] = v;
    flags[v] |= kOnStack;
    for (std::uint32_t k = begin[v]; k < begin[v + 1]; ++k) {
      const std::uint32_t w = target[k];
      if (index[w] == 0) {
        self(self, w);
        low[v] = std::min(low[v], low[w]);
      } else if ((flags[w] & kOnStack) != 0) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] != index[v]) return;
    std::size_t from = top;
    do {
      --from;
      flags[stack[from]] &= ~kOnStack;
    } while (stack[from] != v);
    if (top - from >= 2 || (flags[v] & kSelfLoop) != 0) {
      std::vector<Resource> members;
      members.reserve(top - from);
      for (std::size_t i = from; i < top; ++i) members.push_back(nodes[stack[i]]);
      std::sort(members.begin(), members.end());
      out.push_back(std::move(members));
    }
    top = from;
  };
  for (std::uint32_t v = 0; v < n; ++v) {
    if (index[v] == 0) visit(visit, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cs31::analyze
