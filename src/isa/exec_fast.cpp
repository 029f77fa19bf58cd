// The fast core's block-walk runner.
//
// drive() is the whole execution loop: look up (or lazily predecode)
// the block at eip, fire its handlers back to back, fix eip up at the
// walk's end, repeat. The identity contract with the switch
// interpreter hangs on three details here:
//
//  - st.eip is set to the op's own address *before* its handler runs,
//    and st.executed is incremented first, so a handler that throws
//    leaves exactly the state Machine::step() leaves when the same
//    instruction faults (count incremented, eip on the fault).
//  - An instruction budget can cut a block anywhere; the fixup then
//    parks eip on the first unexecuted instruction, which is where the
//    switch interpreter's per-step loop would stop.
//  - A store into the code range finishes its own instruction, then
//    stops the walk and flushes the block cache, so the next block is
//    predecoded from the freshly written bytes — per-step decode
//    semantics, recovered exactly when they matter.
#include "isa/exec_fast.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "isa/predecode.hpp"

namespace cs31::isa {

namespace {
// Same wall-clock polling stride as the switch interpreter's
// run_limited: a steady_clock read per instruction would dominate.
constexpr std::size_t kStride = 4096;
}  // namespace

std::size_t FastCore::drive(Machine& m, std::size_t budget, bool timed,
                            std::chrono::steady_clock::time_point deadline, bool& time_up) {
  predecode::ExecState st;
  st.regs = m.regs_.data();
  st.mem = m.memory_.data();
  st.mem_size = static_cast<std::uint32_t>(m.memory_.size());
  st.dirty = m.dirty_.data();
  st.flags = &m.flags_;
  st.code_base = m.image_.base;
  st.code_end = m.image_.base + static_cast<std::uint32_t>(m.image_.bytes.size());
  st.eip = m.eip_;
  st.executed = m.executed_;
  st.call_depth = m.call_depth_;
  st.halted = m.halted_;

  std::size_t done = 0;
  std::size_t next_poll = 0;  // poll the deadline when done >= next_poll
  try {
    while (!st.halted && done < budget) {
      if (timed && done >= next_poll) {
        if (std::chrono::steady_clock::now() >= deadline) {
          time_up = true;
          break;
        }
        next_poll = done + kStride;
      }
      const predecode::PredecodedBlock& b = m.code_cache_.obtain(st.eip, m.memory_.data());
      const std::size_t n = std::min(b.ops.size(), budget - done);
      st.stop = false;
      st.control = false;
      st.code_dirty = false;
      std::size_t ran = 0;
      bool stopped = false;
      for (std::size_t i = 0; i < n; ++i) {
        const predecode::DecodedOp& op = b.ops[i];
        st.eip = op.addr;
        ++st.executed;
        ++ran;
        op.fn(st, op);
        if (st.stop) {
          stopped = true;
          // Control handlers set eip themselves (and hlt / outermost
          // ret leave it on the instruction); a straight-line stop
          // (self-modifying store) resumes at the next instruction.
          if (!st.control) st.eip = op.addr + kInstrBytes;
          break;
        }
      }
      if (!stopped) {
        // Fell off the block's end (budget cut, image end, or a block
        // capped before an undecodable instruction): resume at the
        // first unexecuted address.
        st.eip = b.start + static_cast<std::uint32_t>(ran) * kInstrBytes;
      }
      done += ran;
      if (st.code_dirty) m.code_cache_.invalidate();
    }
  } catch (...) {
    m.eip_ = st.eip;
    m.executed_ = st.executed;
    m.call_depth_ = st.call_depth;
    m.halted_ = st.halted;
    throw;
  }
  m.eip_ = st.eip;
  m.executed_ = st.executed;
  m.call_depth_ = st.call_depth;
  m.halted_ = st.halted;
  return done;
}

std::size_t FastCore::run(Machine& m, std::size_t max_steps) {
  bool time_up = false;
  const std::size_t done = drive(m, max_steps, /*timed=*/false, {}, time_up);
  // Mirrors the interpreter's loop, which throws only when it would
  // need step max_steps+1 — a program halting on exactly the last
  // budgeted instruction returns normally.
  require(m.halted_, "instruction limit exceeded (runaway program?)");
  return done;
}

Machine::RunOutcome FastCore::run_limited(Machine& m, const Machine::RunLimits& limits) {
  const bool timed = limits.max_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timed ? limits.max_seconds : 0.0));
  const std::size_t budget = limits.max_instructions > 0
                                 ? limits.max_instructions
                                 : std::numeric_limits<std::size_t>::max();
  bool time_up = false;
  Machine::RunOutcome outcome;
  outcome.instructions = drive(m, budget, timed, deadline, time_up);
  // Same precedence as the interpreter's loop: a program that halts on
  // its last budgeted instruction is Halted, and an instruction stop is
  // reported even if the clock also ran out between polls.
  if (m.halted()) {
    outcome.reason = Machine::StopReason::Halted;
  } else if (time_up) {
    outcome.reason = Machine::StopReason::TimeLimit;
  } else {
    outcome.reason = Machine::StopReason::InstructionLimit;
  }
  return outcome;
}

}  // namespace cs31::isa
