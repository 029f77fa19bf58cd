#include "os/kernel.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace cs31::os {

std::string signal_name(Signal s) {
  switch (s) {
    case Signal::Chld: return "SIGCHLD";
    case Signal::Int: return "SIGINT";
    case Signal::Usr1: return "SIGUSR1";
    case Signal::Kill: return "SIGKILL";
  }
  return "?";
}

std::string state_name(ProcState s) {
  switch (s) {
    case ProcState::Ready: return "ready";
    case ProcState::Running: return "running";
    case ProcState::Blocked: return "blocked";
    case ProcState::Zombie: return "zombie";
    case ProcState::Reaped: return "reaped";
  }
  return "?";
}

ProgramBuilder& ProgramBuilder::print(std::string text) {
  Instr i; i.op = Instr::Op::Print; i.text = std::move(text);
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::compute(int ticks) {
  Instr i; i.op = Instr::Op::Compute; i.value = ticks;
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::fork(Program child) {
  Instr i; i.op = Instr::Op::Fork; i.body = std::move(child);
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::fork_both() {
  Instr i; i.op = Instr::Op::ForkBoth;
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::exec(Program replacement) {
  Instr i; i.op = Instr::Op::Exec; i.body = std::move(replacement);
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::wait() {
  Instr i; i.op = Instr::Op::Wait;
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::exit(int status) {
  Instr i; i.op = Instr::Op::Exit; i.value = status;
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::kill(Target target, Signal sig) {
  Instr i; i.op = Instr::Op::Kill; i.target = target; i.sig = sig;
  program_.push_back(std::move(i));
  return *this;
}
ProgramBuilder& ProgramBuilder::handler(Signal sig, Program body) {
  Instr i; i.op = Instr::Op::Handler; i.sig = sig; i.body = std::move(body);
  program_.push_back(std::move(i));
  return *this;
}

Kernel::Kernel(const KernelConfig& config) : config_(config) {
  require(config.time_slice >= 1, "time slice must be at least 1");
  // Synthetic init: adopts orphans, never runs.
  Pcb init;
  init.pid = kInitPid;
  init.ppid = 0;
  init.state = ProcState::Blocked;  // init just waits forever
  procs_[kInitPid] = std::move(init);
}

std::uint32_t Kernel::spawn(Program program) {
  Pcb p;
  p.pid = next_pid_++;
  p.ppid = kInitPid;
  p.program = std::move(program);
  procs_[kInitPid].children.push_back(p.pid);
  const std::uint32_t pid = p.pid;
  procs_[pid] = std::move(p);
  ready_queue_.push_back(pid);
  log(pid, "spawn");
  return pid;
}

Kernel::Pcb& Kernel::pcb(std::uint32_t pid) {
  const auto it = procs_.find(pid);
  if (it == procs_.end()) throw Error("no such pid " + std::to_string(pid));
  return it->second;
}

const Kernel::Pcb& Kernel::pcb(std::uint32_t pid) const {
  const auto it = procs_.find(pid);
  if (it == procs_.end()) throw Error("no such pid " + std::to_string(pid));
  return it->second;
}

void Kernel::log(std::uint32_t pid, std::string what) {
  events_.push_back(Event{time_, pid, std::move(what)});
}

void Kernel::terminate(Pcb& p, int status) {
  p.state = ProcState::Zombie;
  p.exit_status = status;
  log(p.pid, "exit:" + std::to_string(status));
  ready_queue_.erase(std::remove(ready_queue_.begin(), ready_queue_.end(), p.pid),
                     ready_queue_.end());
  if (running_ == p.pid) running_.reset();

  // Reparent orphans to init (which reaps them immediately, as real
  // init does).
  for (const std::uint32_t child_pid : p.children) {
    Pcb& child = pcb(child_pid);
    child.ppid = kInitPid;
    procs_[kInitPid].children.push_back(child_pid);
    if (child.state == ProcState::Zombie) {
      reap(procs_[kInitPid], child);
    }
  }
  p.children.clear();

  // Notify the parent.
  Pcb& parent = pcb(p.ppid);
  if (parent.pid == kInitPid) {
    reap(parent, p);
    return;
  }
  parent.pending.push_back(Signal::Chld);
  log(parent.pid, "signal:SIGCHLD");
  if (parent.state == ProcState::Blocked) {
    // Wake a blocked wait().
    parent.state = ProcState::Ready;
    ready_queue_.push_back(parent.pid);
  }
}

void Kernel::reap(Pcb& parent, Pcb& child) {
  child.state = ProcState::Reaped;
  parent.children.erase(
      std::remove(parent.children.begin(), parent.children.end(), child.pid),
      parent.children.end());
  log(parent.pid, "reap:" + std::to_string(child.pid));
}

bool Kernel::try_wait(Pcb& p) {
  for (const std::uint32_t child_pid : p.children) {
    Pcb& child = pcb(child_pid);
    if (child.state == ProcState::Zombie) {
      reap(p, child);
      return true;
    }
  }
  return false;
}

void Kernel::dispatch_signals(Pcb& p) {
  while (!p.pending.empty()) {
    const Signal sig = p.pending.front();
    p.pending.erase(p.pending.begin());
    if (sig == Signal::Kill) {
      terminate(p, -static_cast<int>(sig));
      return;
    }
    const auto it = p.handlers.find(sig);
    if (it != p.handlers.end()) {
      // Run the handler inline by splicing its body before the current
      // pc — the "interrupt, run handler, resume" picture from class.
      log(p.pid, "handler:" + signal_name(sig));
      p.program.insert(p.program.begin() + static_cast<std::ptrdiff_t>(p.pc),
                       it->second.begin(), it->second.end());
      continue;
    }
    // Default dispositions: SIGCHLD ignored, SIGINT terminates.
    if (sig == Signal::Int) {
      terminate(p, -2);
      return;
    }
  }
}

void Kernel::execute_instruction(Pcb& p) {
  if (p.compute_left > 0) {
    --p.compute_left;
    return;
  }
  if (p.pc >= p.program.size()) {
    terminate(p, 0);  // fell off the end, like returning from main
    return;
  }
  const Instr ins = p.program[p.pc];
  ++p.pc;
  switch (ins.op) {
    case Instr::Op::Print:
      output_.push_back(ins.text);
      log(p.pid, "print:" + ins.text);
      break;
    case Instr::Op::Compute:
      p.compute_left = ins.value > 0 ? ins.value - 1 : 0;
      break;
    case Instr::Op::Fork:
    case Instr::Op::ForkBoth: {
      Pcb child;
      child.pid = next_pid_++;
      child.ppid = p.pid;
      if (ins.op == Instr::Op::Fork) {
        child.program = ins.body;
      } else {
        child.program = p.program;  // both continue after the fork
        child.pc = p.pc;
      }
      p.children.push_back(child.pid);
      p.last_child = child.pid;
      const std::uint32_t cpid = child.pid;
      log(p.pid, "fork:" + std::to_string(cpid));
      procs_[cpid] = std::move(child);
      ready_queue_.push_back(cpid);
      break;
    }
    case Instr::Op::Exec:
      log(p.pid, "exec");
      p.program = ins.body;
      p.pc = 0;
      break;
    case Instr::Op::Wait:
      if (try_wait(p)) break;
      if (p.children.empty()) {
        log(p.pid, "wait:nochild");
        break;  // wait() returns -1 immediately
      }
      // Block and retry this wait when woken.
      --p.pc;
      p.state = ProcState::Blocked;
      log(p.pid, "block:wait");
      break;
    case Instr::Op::Exit:
      terminate(p, ins.value);
      break;
    case Instr::Op::Kill: {
      std::uint32_t target = p.pid;
      if (ins.target == Target::Parent) target = p.ppid;
      if (ins.target == Target::LastChild) {
        require(p.last_child != 0, "kill(LastChild) before any fork");
        target = p.last_child;
      }
      deliver(target, ins.sig);
      break;
    }
    case Instr::Op::Handler:
      p.handlers[ins.sig] = ins.body;
      log(p.pid, "sigaction:" + signal_name(ins.sig));
      break;
  }
}

void Kernel::deliver(std::uint32_t pid, Signal sig) {
  Pcb& p = pcb(pid);
  if (p.state == ProcState::Zombie || p.state == ProcState::Reaped) return;
  log(pid, "deliver:" + signal_name(sig));
  p.pending.push_back(sig);
  if (sig == Signal::Kill && p.state == ProcState::Blocked) {
    p.state = ProcState::Ready;
    ready_queue_.push_back(pid);
  }
}

std::optional<std::uint32_t> Kernel::pick_next() {
  while (!ready_queue_.empty()) {
    const std::uint32_t pid = ready_queue_.front();
    ready_queue_.erase(ready_queue_.begin());
    if (pcb(pid).state == ProcState::Ready) return pid;
  }
  return std::nullopt;
}

bool Kernel::tick() {
  ++time_;
  // Ensure someone is running.
  if (!running_ || pcb(*running_).state != ProcState::Running) {
    const std::optional<std::uint32_t> next = pick_next();
    if (!next) return false;
    if (running_ != next) ++context_switches_;
    running_ = next;
    pcb(*next).state = ProcState::Running;
    slice_left_ = config_.time_slice;
  }

  Pcb& p = pcb(*running_);
  dispatch_signals(p);
  if (p.state != ProcState::Running) {
    // A signal terminated or blocked it; pick someone else next tick.
    return !ready_queue_.empty() || (running_ && pcb(*running_).state == ProcState::Running);
  }

  execute_instruction(p);

  // The instruction may have blocked or terminated the process.
  if (running_ && pcb(*running_).state == ProcState::Running) {
    if (--slice_left_ == 0) {
      // Quantum expired: back of the queue.
      Pcb& cur = pcb(*running_);
      cur.state = ProcState::Ready;
      ready_queue_.push_back(cur.pid);
      running_.reset();
    }
  } else {
    running_.reset();
  }
  return true;
}

std::uint64_t Kernel::run(std::uint64_t max_ticks) {
  std::uint64_t ticks = 0;
  while (!idle()) {
    require(ticks < max_ticks, "kernel tick limit exceeded (runaway program?)");
    if (!tick()) break;
    ++ticks;
  }
  return ticks;
}

bool Kernel::idle() const {
  for (const auto& [pid, p] : procs_) {
    if (pid == kInitPid) continue;
    if (p.state == ProcState::Ready || p.state == ProcState::Running) return false;
  }
  return true;
}

ProcessInfo Kernel::info(std::uint32_t pid) const {
  const Pcb& p = pcb(pid);
  return ProcessInfo{p.pid, p.ppid, p.state, p.exit_status, p.children};
}

std::vector<ProcessInfo> Kernel::all_processes() const {
  std::vector<ProcessInfo> out;
  out.reserve(procs_.size());
  for (const auto& [pid, p] : procs_) {
    out.push_back(ProcessInfo{p.pid, p.ppid, p.state, p.exit_status, p.children});
  }
  return out;
}

std::string Kernel::hierarchy() const {
  std::ostringstream out;
  // Depth-first from init.
  std::vector<std::pair<std::uint32_t, int>> stack = {{kInitPid, 0}};
  while (!stack.empty()) {
    const auto [pid, depth] = stack.back();
    stack.pop_back();
    const Pcb& p = pcb(pid);
    for (int i = 0; i < depth; ++i) out << "  ";
    out << "pid " << pid << " [" << state_name(p.state) << "]\n";
    // Push children in reverse so they print in creation order.
    for (auto it = p.children.rbegin(); it != p.children.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  return out.str();
}

}  // namespace cs31::os
