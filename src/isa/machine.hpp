// Execution engine for the IA-32 subset: registers, EFLAGS condition
// codes, byte-addressed little-endian memory, and the x86 stack
// discipline (push/pop/call/ret/leave) that CS 31 spends a full week on.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/ia32.hpp"
#include "isa/predecode.hpp"

namespace cs31::isa {

class FastCore;

// Eflags lives in ia32.hpp (shared by both execution cores); machine.hpp
// re-exports it through that include for existing users.

/// A running machine: load an Image, then step or run. Memory size is
/// configurable; the stack starts at the top and grows down, exactly the
/// picture in the course's memory-regions diagrams.
class Machine {
 public:
  /// Create a machine with `mem_bytes` of memory (default 1 MiB).
  /// Throws cs31::Error for sizes below 4 KiB.
  explicit Machine(std::uint32_t mem_bytes = 1u << 20);

  /// Copy an image into memory and point EIP at its base (or at the
  /// `_start`/`main` symbol when present, preferring `_start`). Resets
  /// ESP/EBP to the top of memory. Throws when the image does not fit.
  /// The copy is skipped when the image equals the one already loaded.
  void load(const Image& image);

  /// load() for a caller done with `image`: the machine takes its bytes
  /// and symbols instead of copying them.
  void load(Image&& image);

  /// Throw load()'s "image does not fit in memory" error when `image`
  /// would not fit; lets a caller reject an image before loading it.
  void require_fits(const Image& image) const;

  /// Put the machine back in the state Machine(memory_size()) builds.
  /// Only the pages written since the last reset are zeroed, so a
  /// Machine kept per grading thread costs what each program touched,
  /// not a fresh memory.
  void reset();

  /// Execute one instruction. Returns false if halted (hlt, or ret with
  /// an empty call stack). Throws cs31::Error on memory faults
  /// ("segmentation violations"), bad operand shapes, or division of the
  /// instruction stream (EIP outside the loaded image). Always executes
  /// on the switch interpreter: single-stepping is the debugger's
  /// teaching view, and the reference semantics.
  bool step();

  /// Which execution core run()/run_limited() use. Both cores are
  /// bit-identical on all architectural state (the differential fuzz
  /// harness proves it); Predecoded is the default because it is ~an
  /// order of magnitude faster. Switch is the reference interpreter —
  /// tests pin the fast core against it, and memory-trace capture
  /// always uses it (the trace is defined by the reference's access
  /// order).
  enum class Core {
    Predecoded,  ///< predecoded blocks, function-pointer threaded dispatch
    Switch,      ///< per-step decode + switch (the teaching interpreter)
  };

  void set_core(Core core) { core_ = core; }
  [[nodiscard]] Core core() const { return core_; }

  /// Run until halt or `max_steps` (throws when exceeded).
  std::size_t run(std::size_t max_steps = 1000000);

  /// Why a limited run stopped.
  enum class StopReason {
    Halted,            ///< the program finished on its own
    InstructionLimit,  ///< max_instructions executed without halting
    TimeLimit,         ///< wall clock ran out first
  };

  /// Resource budget for run_limited. Zero means "unlimited" for either
  /// knob (but at least one must be set — an unlimited run of a runaway
  /// program would never return).
  struct RunLimits {
    std::size_t max_instructions = 1'000'000;  ///< 0 = unlimited
    double max_seconds = 0.0;                  ///< wall clock; 0 = unlimited
  };

  struct RunOutcome {
    StopReason reason = StopReason::Halted;
    std::size_t instructions = 0;  ///< executed by this run
  };

  /// Run until halt or a resource limit. Unlike run(), hitting a limit
  /// is an outcome, not an exception — a grading service reports a
  /// poison submission's infinite loop as `timeout`, it does not treat
  /// it as a caller mistake. The wall clock is checked every few
  /// thousand instructions, so max_seconds is a soft ceiling with
  /// microsecond-scale overshoot. Throws cs31::Error only for machine
  /// faults (bad memory, EIP off the image) and when both limits are 0.
  RunOutcome run_limited(const RunLimits& limits);

  [[nodiscard]] bool halted() const { return halted_; }

  // Register/flag/memory access (the debugger's "info registers" etc.).
  [[nodiscard]] std::uint32_t reg(Reg r) const;
  void set_reg(Reg r, std::uint32_t value);
  [[nodiscard]] Eflags flags() const { return flags_; }

  [[nodiscard]] std::uint32_t load32(std::uint32_t addr) const;
  void store32(std::uint32_t addr, std::uint32_t value);
  [[nodiscard]] std::uint8_t load8(std::uint32_t addr) const;
  void store8(std::uint32_t addr, std::uint8_t value);

  /// Effective address of a memory operand given current registers —
  /// the "address computation" homework drills.
  [[nodiscard]] std::uint32_t effective_address(const MemRef& m) const;

  /// Count of instructions executed since load().
  [[nodiscard]] std::size_t instructions_executed() const { return executed_; }

  /// One recorded data-memory access (stack traffic and explicit memory
  /// operands; instruction fetches are not data accesses).
  struct MemAccess {
    std::uint32_t address = 0;
    bool is_write = false;
  };

  /// Enable/disable recording of data accesses (off by default; the
  /// record feeds the cache simulator in cross-layer experiments).
  void set_trace_memory(bool enabled) { trace_memory_ = enabled; }
  [[nodiscard]] const std::vector<MemAccess>& memory_trace() const { return mem_trace_; }
  void clear_memory_trace() { mem_trace_.clear(); }

  [[nodiscard]] std::uint32_t memory_size() const {
    return static_cast<std::uint32_t>(memory_.size());
  }

  /// The image currently loaded (for disassembly in the debugger).
  [[nodiscard]] const Image& image() const { return image_; }

  /// Block-cache counters of the predecoded core (tests use these to
  /// observe invalidation on self-modifying stores and block reuse on
  /// mid-block jump entry).
  [[nodiscard]] const predecode::CacheStats& code_cache_stats() const {
    return code_cache_.stats();
  }

 private:
  friend class FastCore;

  [[nodiscard]] bool use_fast_core() const {
    // Memory-trace capture stays on the reference interpreter: the
    // trace's access order is defined by its exact read/write sequence.
    return core_ == Core::Predecoded && !trace_memory_;
  }
  [[nodiscard]] std::uint32_t read_operand(const Operand& o) const;
  void write_operand(const Operand& o, std::uint32_t value);
  void push(std::uint32_t value);
  [[nodiscard]] std::uint32_t pop();
  void set_logic_flags(std::uint32_t result);
  void set_add_flags(std::uint32_t a, std::uint32_t b, std::uint64_t wide);
  void set_sub_flags(std::uint32_t a, std::uint32_t b);
  /// Both load() overloads: copies or moves `image` into image_.
  template <typename ImageRef>
  void load_image(ImageRef&& image);
  /// Mark the pages holding bytes [addr, addr + len) dirty.
  void mark_dirty(std::uint32_t addr, std::uint32_t len);
  /// reset()'s target: default state around memory that is already zero.
  Machine(std::vector<std::uint8_t>&& memory, std::vector<std::uint8_t>&& dirty)
      : memory_(std::move(memory)), dirty_(std::move(dirty)) {}

  std::vector<std::uint8_t> memory_;
  /// One flag per predecode::kPageShift page: written since the last reset.
  std::vector<std::uint8_t> dirty_;
  std::array<std::uint32_t, 8> regs_{};
  std::uint32_t eip_ = 0;
  Eflags flags_;
  bool halted_ = true;
  std::size_t executed_ = 0;
  Image image_;
  std::uint32_t entry_ = 0;  ///< image_'s entry: `_start`, else `main`, else its base
  std::size_t call_depth_ = 0;
  Core core_ = Core::Predecoded;
  predecode::BlockCache code_cache_;
  bool trace_memory_ = false;
  // mutable so the const read path can record; tracing is observability,
  // not machine state.
  mutable std::vector<MemAccess> mem_trace_;
};

}  // namespace cs31::isa
