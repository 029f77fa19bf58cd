#include "analyze/concur.hpp"

#include <algorithm>
#include <set>

namespace cs31::analyze {

namespace {

void add_edge(std::vector<OrderEdge>& edges, std::string from, std::string to,
              const ScriptOp* witness) {
  OrderEdge edge{std::move(from), std::move(to), witness};
  if (std::find(edges.begin(), edges.end(), edge) == edges.end()) {
    edges.push_back(std::move(edge));
  }
}

void sort_edges(std::vector<OrderEdge>& edges) {
  std::sort(edges.begin(), edges.end(), [](const OrderEdge& a, const OrderEdge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
}

}  // namespace

std::string mutex_resource(const std::string& name) { return "mutex " + name; }
std::string channel_resource(const std::string& name) { return "channel " + name; }
std::string barrier_resource() { return "barrier"; }

std::string ScriptOp::waits_on() const {
  switch (verb) {
    case Verb::Lock: return mutex_resource(object);
    case Verb::Recv: return channel_resource(object);
    default: return "";
  }
}

std::vector<const ScriptOp*> ScriptModel::accesses() const {
  std::vector<const ScriptOp*> out;
  for (const ThreadScript& t : threads) {
    for (const ScriptOp& op : t.ops) {
      if (op.verb == Verb::Read || op.verb == Verb::Write) {
        out.push_back(&op);
      }
    }
  }
  return out;
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
  model.threads.resize(script.threads.size());
  for (const auto& [t, i] : race::unmatched_unlocks(script)) {
    model.threads[t].unmatched_unlocks.push_back(i);
  }

  for (std::size_t t = 0; t < script.threads.size(); ++t) {
    ThreadScript& thread = model.threads[t];
    thread.tag = "t" + std::to_string(t);
    thread.ops.reserve(script.threads[t].size());

    std::vector<std::string> held;  // acquisition order
    std::size_t arrivals = 0;
    for (std::size_t i = 0; i < script.threads[t].size(); ++i) {
      const race::ScriptOp& parsed = script.threads[t][i];
      ScriptOp op;
      op.verb = parsed.verb;
      op.object = script.name(parsed);
      op.text = parsed.text;
      op.thread = t;
      op.index = i;
      op.epoch = arrivals;
      op.must_locks = held;
      std::sort(op.must_locks.begin(), op.must_locks.end());

      switch (op.verb) {
        case Verb::Lock:
          if (std::find(held.begin(), held.end(), op.object) != held.end()) {
            thread.self_relocks.push_back(i);
            // The walk stays lenient: past this point the thread is
            // statically stuck, but later ops still get the lockset
            // they would see if it somehow proceeded.
          } else {
            held.push_back(op.object);
          }
          break;
        case Verb::Unlock: {
          const auto it = std::find(held.begin(), held.end(), op.object);
          if (it != held.end()) held.erase(it);
          break;
        }
        case Verb::Send: model.sends[op.object] += 1; break;
        case Verb::Recv: model.recvs[op.object] += 1; break;
        case Verb::Barrier:
          ++arrivals;
          break;
        case Verb::Read:
        case Verb::Write: {
          auto& owners = model.var_threads[op.object];
          if (owners.empty() || owners.back() != t) owners.push_back(t);
          break;
        }
      }
      thread.ops.push_back(std::move(op));
    }
    thread.barrier_arrivals = arrivals;
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
  for (const ThreadScript& thread : model.threads) {
    std::vector<std::string> blocking_before;  // resources, program order
    for (const ScriptOp& op : thread.ops) {
      const bool parked_possible = op.epoch > 0;  // waited at a barrier before this op
      switch (op.verb) {
        case Verb::Lock:
          for (const std::string& h : op.must_locks) {
            add_edge(model.lock_order, mutex_resource(h), mutex_resource(op.object), &op);
            add_edge(model.wait_order, mutex_resource(h), mutex_resource(op.object), &op);
          }
          // A self-relock is a self-edge: the mutex waits on itself.
          if (std::find(thread.self_relocks.begin(), thread.self_relocks.end(),
                        op.index) != thread.self_relocks.end()) {
            add_edge(model.lock_order, mutex_resource(op.object),
                     mutex_resource(op.object), &op);
            add_edge(model.wait_order, mutex_resource(op.object),
                     mutex_resource(op.object), &op);
          }
          break;
        case Verb::Recv:
          for (const std::string& h : op.must_locks) {
            add_edge(model.wait_order, mutex_resource(h), channel_resource(op.object),
                     &op);
          }
          break;
        case Verb::Send:
          for (const std::string& r : blocking_before) {
            add_edge(model.wait_order, channel_resource(op.object), r, &op);
          }
          if (parked_possible) {
            add_edge(model.wait_order, channel_resource(op.object), barrier_resource(),
                     &op);
          }
          break;
        case Verb::Barrier:
          for (const std::string& h : op.must_locks) {
            add_edge(model.wait_order, mutex_resource(h), barrier_resource(), &op);
          }
          for (const std::string& r : blocking_before) {
            // Skip the barrier self-edge two arrivals in one thread
            // would create: a deadlock involving ONLY the barrier is
            // exactly an arrival-count mismatch, which the dedicated
            // barrier-starvation check covers — the self-loop would
            // flag every multi-barrier program as a wait cycle.
            if (r == barrier_resource()) continue;
            add_edge(model.wait_order, barrier_resource(), r, &op);
          }
          break;
        case Verb::Read:
        case Verb::Write:
          break;
        case Verb::Unlock:
          break;
      }
      if (op.blocks()) blocking_before.push_back(op.waits_on());
      if (op.verb == Verb::Barrier) blocking_before.push_back(barrier_resource());
    }
  }
  sort_edges(model.lock_order);
  sort_edges(model.wait_order);
  return model;
}

// ---------------------------------------------------------------------
// Cycle detection: Tarjan SCCs over the (tiny) resource graph.
// ---------------------------------------------------------------------

namespace {

struct Tarjan {
  const std::vector<std::string>& nodes;
  const std::vector<std::vector<std::size_t>>& adj;
  std::vector<int> index, low;
  std::vector<bool> on_stack;
  std::vector<std::size_t> stack;
  int next = 0;
  std::vector<std::vector<std::size_t>> components;

  Tarjan(const std::vector<std::string>& n, const std::vector<std::vector<std::size_t>>& a)
      : nodes(n), adj(a), index(n.size(), -1), low(n.size(), 0), on_stack(n.size(), false) {
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      if (index[v] < 0) visit(v);
    }
  }

  void visit(std::size_t v) {
    index[v] = low[v] = next++;
    stack.push_back(v);
    on_stack[v] = true;
    for (const std::size_t w : adj[v]) {
      if (index[w] < 0) {
        visit(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      std::vector<std::size_t> comp;
      for (;;) {
        const std::size_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        comp.push_back(w);
        if (w == v) break;
      }
      components.push_back(std::move(comp));
    }
  }
};

}  // namespace

std::vector<std::vector<std::string>> cycle_components(
    const std::vector<OrderEdge>& edges) {
  std::vector<std::string> nodes;
  for (const OrderEdge& e : edges) {
    nodes.push_back(e.from);
    nodes.push_back(e.to);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  const auto id = [&nodes](const std::string& name) {
    return static_cast<std::size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), name) - nodes.begin());
  };
  std::vector<std::vector<std::size_t>> adj(nodes.size());
  std::set<std::size_t> self_loops;
  for (const OrderEdge& e : edges) {
    adj[id(e.from)].push_back(id(e.to));
    if (e.from == e.to) self_loops.insert(id(e.from));
  }

  const Tarjan tarjan(nodes, adj);
  std::vector<std::vector<std::string>> out;
  for (const auto& comp : tarjan.components) {
    if (comp.size() < 2 && self_loops.count(comp.front()) == 0) continue;
    std::vector<std::string> names;
    names.reserve(comp.size());
    for (const std::size_t v : comp) names.push_back(nodes[v]);
    std::sort(names.begin(), names.end());
    out.push_back(std::move(names));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cs31::analyze
