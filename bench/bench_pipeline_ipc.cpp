// Experiment E5 — "pipelining makes efficient use of CPU circuitry
// resulting in an improved instructions per cycle rate": time real
// MiniCpu traces on the sequential and pipelined machine models, across
// program shapes, forwarding, and branch penalties.
//
// Section two (E14) turns the same lens on the kit's own emulator: the
// ISA machine's two execution cores — the per-step switch interpreter
// and the predecoded threaded-dispatch core — timed on identical
// workloads (a tight hot loop, a seeded generated program, full maze
// solves), reported as instructions/second per core and timed through
// `measure` (the two cores interleaved, min per core). Single-threaded
// wall-clock on whatever host runs the bench; the *ratio* between the
// cores is the portable number, and `--perf-smoke` asserts its >= 5x
// floor (exit 1 below it).
//
// Usage: bench_pipeline_ipc [--perf-smoke] [--json[=DIR]] [--timestamp=T]
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "isa/machine.hpp"
#include "isa/maze.hpp"
#include "isa/program_gen.hpp"
#include "logic/cpu.hpp"
#include "logic/pipeline.hpp"

namespace {

using namespace cs31::logic;

std::vector<ExecRecord> trace_of_sum(unsigned elements) {
  MiniCpu cpu;
  for (unsigned i = 0; i < elements; ++i) cpu.set_mem(200 + i, 1);
  cpu.load_program(sample_sum_program(200, elements));
  cpu.run();
  return cpu.trace();
}

std::vector<ExecRecord> independent_trace(std::size_t n) {
  // Straight-line independent ALU work: the pipeline's best case.
  std::vector<ExecRecord> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i].wrote_reg = true;
    t[i].dest = static_cast<unsigned>(i % 8);
  }
  return t;
}

void row(const char* name, const std::vector<ExecRecord>& trace,
         const PipelineConfig& cfg) {
  const TimingResult seq = time_sequential(trace, cfg.stages);
  const TimingResult pipe = time_pipelined(trace, cfg);
  std::printf("%-26s %6zu %10zu %7.2f %10zu %7.2f %7zu %7zu %8.2fx\n", name,
              trace.size(), seq.cycles, seq.ipc(), pipe.cycles, pipe.ipc(),
              pipe.stall_cycles, pipe.flush_cycles, seq.time_ps() / pipe.time_ps());
}

// --- section two: the emulator's own execution cores -------------------

namespace isa = cs31::isa;

/// One long-lived machine per runner: each pass is `load` + `run`, the
/// regrade pattern. Reloading the identical image keeps the predecoded
/// block cache warm, so the timed region measures execution, not the
/// 64 KiB machine construction.
std::function<std::size_t()> image_runner(const isa::Image& image, isa::Machine::Core core) {
  auto m = std::make_shared<isa::Machine>(1u << 16);
  m->set_core(core);
  return [m, &image]() {
    m->load(image);
    return m->run(100'000'000);
  };
}

std::function<std::size_t()> maze_runner(const isa::Maze& maze, isa::Machine::Core core) {
  auto m = std::make_shared<isa::Machine>(1u << 16);
  m->set_core(core);
  // Resolve the per-floor entry points once; the run itself is tiny.
  auto entries = std::make_shared<std::vector<std::uint32_t>>();
  for (unsigned floor = 0; floor < maze.floors(); ++floor) {
    entries->push_back(maze.image().symbol("floor_" + std::to_string(floor)));
  }
  return [m, entries, &maze]() {
    std::size_t instructions = 0;
    for (unsigned floor = 0; floor < maze.floors(); ++floor) {
      m->load(maze.image());
      m->set_reg(isa::Reg::Eip, (*entries)[floor]);
      m->set_reg(isa::Reg::Eax, maze.solution(floor));
      instructions += m->run(100'000'000);
    }
    return instructions;
  };
}

/// The canonical student attack on the counting-loop floors: try every
/// guess 0..64 until %edi says "passed". Each wrong guess still runs
/// the whole summation loop, so this maze workload actually spends its
/// time emulating (~130 instructions per attempt) instead of in
/// per-attempt setup.
std::function<std::size_t()> maze_bruteforce_runner(const isa::Maze& maze,
                                                    isa::Machine::Core core) {
  auto m = std::make_shared<isa::Machine>(1u << 16);
  m->set_core(core);
  auto loop_floors = std::make_shared<std::vector<std::uint32_t>>();
  for (unsigned floor = 0; floor < maze.floors(); ++floor) {
    if (floor % 5 == 3) {  // the counting-loop archetype
      loop_floors->push_back(maze.image().symbol("floor_" + std::to_string(floor)));
    }
  }
  return [m, loop_floors, &maze]() {
    std::size_t instructions = 0;
    for (const std::uint32_t entry : *loop_floors) {
      for (std::uint32_t guess = 0; guess <= 64; ++guess) {
        m->load(maze.image());
        m->set_reg(isa::Reg::Eip, entry);
        m->set_reg(isa::Reg::Eax, guess);
        instructions += m->run(100'000'000);
        if (m->reg(isa::Reg::Edi) == 1) break;  // maze_pass reached
      }
    }
    return instructions;
  };
}

struct IsaWorkload {
  const char* name;
  std::function<std::size_t()> run_switch;
  std::function<std::size_t()> run_predecoded;
  bool in_floor;  // counted toward the >=5x assertion (emulation-bound rows)
};

/// A hand-written hot loop: one million executed instructions of pure
/// dispatch pressure, the fast core's best case.
isa::Image tight_loop_image() {
  return isa::assemble(R"(
_start:
    movl $200000, %ecx
spin:
    addl $3, %eax
    xorl %ebx, %eax
    imull $5, %edx
    decl %ecx
    jne spin
    hlt
)");
}

}  // namespace

int main(int argc, char** argv) {
  cs31::bench::JsonReport json("pipeline_ipc", argc, argv);
  json.workload("5-stage pipeline vs sequential IPC; switch vs predecoded emulator cores");
  json.config("stages", 5);
  const bool perf_smoke = json.perf_smoke();
  std::printf("==============================================================\n");
  std::printf("E5: pipelining vs sequential execution (5-stage model)\n");
  std::printf("    sequential cycle = sum of stages; pipelined = max stage\n");
  std::printf("==============================================================\n\n");
  std::printf("%-26s %6s %10s %7s %10s %7s %7s %7s %9s\n", "workload", "instr",
              "seq cyc", "IPC", "pipe cyc", "IPC", "stalls", "flush", "time gain");

  PipelineConfig fwd;                       // forwarding, 2-cycle branch penalty
  PipelineConfig no_fwd;
  no_fwd.forwarding = false;
  PipelineConfig cheap_branch;
  cheap_branch.branch_penalty = 1;

  row("independent ALU x1000", independent_trace(1000), fwd);
  row("sum loop n=16", trace_of_sum(16), fwd);
  row("sum loop n=64", trace_of_sum(64), fwd);
  row("sum loop n=250", trace_of_sum(250), fwd);
  row("sum loop n=250 (no fwd)", trace_of_sum(250), no_fwd);
  row("sum loop n=250 (bp=1)", trace_of_sum(250), cheap_branch);

  const auto trace = trace_of_sum(250);
  const double gain = time_sequential(trace, fwd.stages).time_ps() /
                      time_pipelined(trace, fwd).time_ps();
  std::printf(
      "\nshape check: pipelined IPC < 1 with hazards, > IPC_seq/5; time gain %.2fx\n"
      "(paper: pipelining presented as an efficiency win; no absolute numbers)\n",
      gain);
  json.metric("sum_loop_250_time_gain", gain);
  json.metric("sum_loop_250_pipelined_ipc", time_pipelined(trace, fwd).ipc());

  // --- E14: switch interpreter vs predecoded threaded-dispatch core ---

  std::printf("\n==============================================================\n");
  std::printf("E14: emulator cores — per-step switch vs predecoded dispatch\n");
  std::printf("    instructions/second, single thread, identical workloads\n");
  std::printf("==============================================================\n\n");
  std::printf("%-26s %14s %14s %9s\n", "workload", "switch i/s", "predec i/s", "speedup");

  const isa::Image tight = tight_loop_image();
  isa::ProgramGenConfig gen_cfg;
  gen_cfg.segments = 10;
  gen_cfg.functions = 3;
  gen_cfg.ops_per_block = 6;
  gen_cfg.max_trip = 50;
  const isa::Image generated = isa::assemble(isa::generate_program(7, gen_cfg).source);
  const isa::Maze maze(12);

  const IsaWorkload workloads[] = {
      {"tight hot loop x1M", image_runner(tight, isa::Machine::Core::Switch),
       image_runner(tight, isa::Machine::Core::Predecoded), true},
      {"generated program (seed 7)", image_runner(generated, isa::Machine::Core::Switch),
       image_runner(generated, isa::Machine::Core::Predecoded), true},
      {"maze brute-force, 2 floors", maze_bruteforce_runner(maze, isa::Machine::Core::Switch),
       maze_bruteforce_runner(maze, isa::Machine::Core::Predecoded), true},
      {"maze solve, 12 floors", maze_runner(maze, isa::Machine::Core::Switch),
       maze_runner(maze, isa::Machine::Core::Predecoded), false},
  };

  double min_speedup = 1e300;
  for (const IsaWorkload& w : workloads) {
    // A pass's instruction count is fixed; the first pass also warms
    // the predecode cache and pages in memory.
    const std::size_t switch_instrs = w.run_switch();
    const std::size_t predecoded_instrs = w.run_predecoded();
    const auto [switch_core, predecoded_core] =
        cs31::bench::measure(w.run_switch, w.run_predecoded);
    const double switch_ips = static_cast<double>(switch_instrs) / switch_core.min();
    const double predecoded_ips =
        static_cast<double>(predecoded_instrs) / predecoded_core.min();
    const double speedup = predecoded_ips / switch_ips;
    if (w.in_floor && speedup < min_speedup) min_speedup = speedup;
    std::printf("%-26s %14.3e %14.3e %8.2fx%s\n", w.name, switch_ips, predecoded_ips, speedup,
                w.in_floor ? "" : "  (reload-bound; informational)");
    // The `core=` dimension, encoded in the metric key (flat schema).
    std::string key = w.name;
    for (char& c : key) {
      if (c == ' ' || c == ',' || c == '(' || c == ')') c = '_';
    }
    json.metric(key + "[core=switch]_instr_per_s", switch_ips);
    json.metric(key + "[core=predecoded]_instr_per_s", predecoded_ips);
    json.metric(key + "_core_speedup", speedup);
    json.gate(!w.in_floor || speedup >= 5.0, w.name, speedup, 5.0,
              {{key + "[core=switch]", &switch_core},
               {key + "[core=predecoded]", &predecoded_core}});
  }
  json.metric("isa_core_min_speedup", min_speedup);
  json.config("isa_core_speedup_floor", 5);

  std::printf(
      "\nfloor check: predecoded core must be >= 5x the switch interpreter\n"
      "on every emulation-bound workload (min observed: %.2fx). Wall-clock\n"
      "on this host, single-threaded; the ratio, not the absolute i/s, is\n"
      "the contract. The 12-floor solve row is honest about its shape: a\n"
      "full solve executes only ~20 instructions per attempt, so it times\n"
      "the per-attempt reload, not the core — it reports, but is excluded\n"
      "from the floor.\n",
      min_speedup);

  const bool pipeline_ok = gain > 1.5;
  const bool isa_ok = min_speedup >= 5.0;
  if (perf_smoke && !isa_ok) {
    std::printf("PERF SMOKE FAIL: isa core speedup %.2fx below the 5x floor\n", min_speedup);
  }
  return (pipeline_ok && (!perf_smoke || isa_ok)) ? 0 : 1;
}
