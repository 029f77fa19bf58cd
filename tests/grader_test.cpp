// cs31::grader tests: the toolchain verdicts, the content-hash cache
// (determinism, accounting, collision soundness), the service's
// determinism contract — byte-identical report streams across worker
// counts, queue capacities and submitter threads, pinned to golden
// digests and verdicts — poison resilience, and the toolchain
// re-entrancy audit (concurrent compiles byte-identical to serial).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ccomp/codegen.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "grader/cache.hpp"
#include "grader/loadgen.hpp"
#include "grader/service.hpp"
#include "grader/submission.hpp"
#include "grader/toolchain.hpp"
#include "life/traced.hpp"

namespace cs31::grader {
namespace {

/// Fast deterministic budget for tests: poison spins cost ~20k emulated
/// instructions instead of the service default 2M.
ToolchainLimits test_limits() { return ToolchainLimits{20'000, 10.0}; }

/// FNV-1a over a sequence of fields, each closed by a 0xff separator
/// byte (which no body or id contains).
struct FieldDigest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::string_view field) {
    for (const char c : field) mix(static_cast<std::uint8_t>(c));
    mix(0xff);
  }
  void mix(std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  }
};

// --- content hash ------------------------------------------------------

TEST(Hash, DeterministicAndContentSensitive) {
  const std::string body = mini_c_body(7);
  EXPECT_EQ(content_hash(SubmissionKind::MiniC, body),
            content_hash(SubmissionKind::MiniC, body));
  EXPECT_NE(content_hash(SubmissionKind::MiniC, body),
            content_hash(SubmissionKind::MiniC, body + " "));
  // Same bytes under a different toolchain must not share a verdict.
  EXPECT_NE(content_hash(SubmissionKind::MiniC, body),
            content_hash(SubmissionKind::Assembly, body));
  EXPECT_EQ(hash_hex(content_hash(SubmissionKind::MiniC, body)).size(), 18u);
}

TEST(Hash, IgnoresTheSubmissionId) {
  Submission a{"alice/try1", SubmissionKind::Assembly, assembly_body(3)};
  Submission b{"bob/try9", SubmissionKind::Assembly, assembly_body(3)};
  EXPECT_EQ(content_hash(a), content_hash(b));
}

// --- toolchain verdicts ------------------------------------------------

TEST(Toolchain, MiniCCleanRunMatchesDirectExecution) {
  const std::string body = mini_c_body(1);
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_GT(v.instructions, 0u);
  EXPECT_EQ(v.result, cc::run_mini_c(body));
}

TEST(Toolchain, MiniCArgsDirectiveFeedsMain) {
  const std::string body = "// args: 30 12\nint main(int a, int b) { return a + b; }\n";
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.result, 42);
}

TEST(Toolchain, MiniCArgsDirectiveOnALaterLine) {
  // The first directive wins, wherever it sits; the rest of the body is
  // ordinary source.
  const std::string body =
      "int main(int a, int b) {\n"
      "  // args: 30 -12\n"
      "  return a + b;  // args: 1 1\n"
      "}\n";
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.result, 18);
}

TEST(Toolchain, MiniCWithoutArgsDirectiveCallsMainWithNone) {
  const Verdict none = run_toolchain(
      {"s", SubmissionKind::MiniC, "int main() { return 7; }  // args\n"}, test_limits());
  EXPECT_EQ(none.status, "ok") << none.to_json();
  EXPECT_EQ(none.result, 7);
  const Verdict missing = run_toolchain(
      {"s", SubmissionKind::MiniC, "int main(int a) { return a; }\n"}, test_limits());
  EXPECT_EQ(missing.status, "compile_error") << missing.to_json();
  EXPECT_EQ(missing.notes, std::vector<std::string>{"main() expects 1 argument(s), got 0"});
}

TEST(Toolchain, MiniCSyntaxErrorIsAVerdict) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::MiniC, poison_bad_mini_c()}, test_limits());
  EXPECT_EQ(v.status, "compile_error");
  EXPECT_EQ(v.score, 0);
  ASSERT_FALSE(v.notes.empty());
}

TEST(Toolchain, MiniCLintFindingsDeductButRun) {
  const std::string body =
      "int main() {\n  int x = 5;\n  x = 6;\n  return x;\n}\n";  // dead store on line 2
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok_with_findings") << v.to_json();
  EXPECT_LT(v.score, 100);
  EXPECT_GE(v.score, 60);
  EXPECT_EQ(v.result, 6);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes[0].find("dead-store"), std::string::npos) << v.notes[0];
}

TEST(Toolchain, MiniCPoisonSpinTimesOutDeterministically) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::MiniC, poison_spin_mini_c()}, test_limits());
  EXPECT_EQ(v.status, "timeout") << v.to_json();
  EXPECT_EQ(v.instructions, test_limits().max_instructions);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes[0].find("instruction budget"), std::string::npos);
}

TEST(Toolchain, AssemblyCleanRun) {
  // assembly_body sums base + iters + iters-1 + ... + 1.
  const Verdict v =
      run_toolchain({"s", SubmissionKind::Assembly, assembly_body(0)}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_EQ(v.result, 0 + 3 + 2 + 1);
}

TEST(Toolchain, AssemblySpinTimesOut) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::Assembly, poison_spin_assembly()}, test_limits());
  EXPECT_EQ(v.status, "timeout");
  EXPECT_EQ(v.score, 5);
}

TEST(Toolchain, AssemblySegfaultIsRuntimeError) {
  const std::string body =
      "_start:\n    movl $0, %eax\n    movl 2000000000(%eax), %ebx\n    hlt\n";
  const Verdict v = run_toolchain({"s", SubmissionKind::Assembly, body}, test_limits());
  EXPECT_EQ(v.status, "runtime_error") << v.to_json();
  EXPECT_EQ(v.score, 10);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes.back().find("segmentation"), std::string::npos) << v.notes.back();
}

TEST(Toolchain, LifeBarrieredScenarioIsRaceFree) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::LifeTrace, life_body(4, /*with_barrier=*/true)}, test_limits());
  EXPECT_EQ(v.status, "race_free") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_EQ(v.races, 0u);
  EXPECT_GT(v.events, 0u);
}

TEST(Toolchain, LifeForgottenBarrierIsCaught) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::LifeTrace, life_body(4, /*with_barrier=*/false)}, test_limits());
  EXPECT_EQ(v.status, "race_found") << v.to_json();
  EXPECT_GT(v.races, 0u);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes[0].find("race on"), std::string::npos);
}

TEST(Toolchain, LifeMalformedConfigIsInvalid) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::LifeTrace, poison_bad_life()}, test_limits());
  EXPECT_EQ(v.status, "invalid");
  EXPECT_EQ(v.score, 0);
}

TEST(Toolchain, ScriptCleanIsCertifiedRaceFree) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, script_body_clean(4)}, test_limits());
  EXPECT_EQ(v.status, "race_free") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_EQ(v.races, 0u);
  EXPECT_GT(v.result, 0) << "schedules replayed";
  EXPECT_GT(v.events, 0u);
}

TEST(Toolchain, ScriptForgottenLockIsCaughtAndExplained) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, script_body_racy(4)}, test_limits());
  EXPECT_EQ(v.status, "race_found") << v.to_json();
  EXPECT_EQ(v.score, 30);
  EXPECT_GT(v.races, 0u);
  // Both the static prediction and the dynamic confirmation ride along
  // as notes: the analyzer's candidate first, the explorer's site pair
  // last.
  bool static_note = false, dynamic_note = false;
  for (const std::string& note : v.notes) {
    if (note.find("static-race") != std::string::npos) static_note = true;
    if (note.find("race on c") != std::string::npos) dynamic_note = true;
  }
  EXPECT_TRUE(static_note) << v.to_json();
  EXPECT_TRUE(dynamic_note) << v.to_json();
}

TEST(Toolchain, ScriptAbbaNestIsADeadlockVerdict) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, script_body_deadlock(4)}, test_limits());
  EXPECT_EQ(v.status, "deadlock_found") << v.to_json();
  EXPECT_EQ(v.score, 20);
  bool cycle_note = false;
  for (const std::string& note : v.notes) {
    if (note.find("lock-order-cycle") != std::string::npos) cycle_note = true;
  }
  EXPECT_TRUE(cycle_note) << "static prediction missing: " << v.to_json();
}

TEST(Toolchain, ScriptMalformedOpIsInvalid) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, poison_bad_script()}, test_limits());
  EXPECT_EQ(v.status, "invalid") << v.to_json();
  EXPECT_EQ(v.score, 0);
  EXPECT_EQ(v.notes,
            std::vector<std::string>{"script op 't0 spin c': unknown verb 'spin'"});
}

/// A two-thread script body of `per_thread` private writes per thread.
std::string private_writes_body(std::size_t per_thread) {
  std::string body;
  for (const char* var : {"a", "b"}) {
    for (std::size_t i = 0; i < per_thread; ++i) {
      body += i == 0 ? "" : "; ";
      body += "write ";
      body += var;
    }
    body += '\n';
  }
  return body;
}

TEST(Toolchain, ScriptOpCapRejectsAHostileBodyPromptly) {
  // 2 x 16000 ops: the body is turned away on its op count, before the
  // script is parsed or explored.
  const auto begin = std::chrono::steady_clock::now();
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, private_writes_body(16000)}, test_limits());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  EXPECT_EQ(v.status, "invalid") << v.to_json();
  EXPECT_EQ(v.score, 0);
  EXPECT_EQ(v.notes, std::vector<std::string>{
                         "script submission: 32000 ops exceeds the cap of 512"});
  EXPECT_LT(seconds, 1.0);
}

TEST(Toolchain, ScriptOpCapAdmitsABodyAtTheCap) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, private_writes_body(kMaxScriptOps / 2)}, test_limits());
  EXPECT_EQ(v.status, "race_free") << v.to_json();
  EXPECT_EQ(v.events, kMaxScriptOps);

  const Verdict over = run_toolchain(
      {"s", SubmissionKind::Script, private_writes_body(kMaxScriptOps / 2) + "write c\n"},
      test_limits());
  EXPECT_EQ(over.status, "invalid") << over.to_json();
}

TEST(Toolchain, ScriptWideBodyVerdictIsBounded) {
  // 512 one-op threads writing one variable: one static-race diagnostic
  // per thread pair. The verdict quotes four of them and their total.
  std::string body;
  for (std::size_t t = 0; t < kMaxScriptOps; ++t) body += "write x\n";
  const Verdict v = run_toolchain({"s", SubmissionKind::Script, body}, test_limits());
  EXPECT_EQ(v.status, "race_found");
  EXPECT_LT(v.to_json().size(), 64u * 1024u);
  ASSERT_EQ(v.notes.size(), 9u);
  EXPECT_EQ(v.notes[4], "130816 static finding(s) in all");
}

// --- hostile mini-C nesting and Life sizes ------------------------------

/// `int main() { return <open * n> 1 <close * n>; }`
std::string nested_mini_c(const std::string& open, const std::string& close, std::size_t n) {
  std::string body = "int main() { return ";
  for (std::size_t i = 0; i < n; ++i) body += open;
  body += "1";
  for (std::size_t i = 0; i < n; ++i) body += close;
  return body + "; }\n";
}

/// A header-only Life scenario over an empty rows x cols grid.
std::string life_scenario(std::size_t threads, std::size_t rounds, std::size_t rows,
                          std::size_t cols) {
  return "threads=" + std::to_string(threads) + "\nrounds=" + std::to_string(rounds) + "\n" +
         std::to_string(rows) + " " + std::to_string(cols) + "\n0\n";
}

/// run_toolchain plus the seconds it took.
std::pair<Verdict, double> timed_grade(SubmissionKind kind, const std::string& body) {
  const auto begin = std::chrono::steady_clock::now();
  Verdict v = run_toolchain({"s", kind, body}, test_limits());
  return {std::move(v),
          std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count()};
}

TEST(Toolchain, MiniCNestingCapRejectsDeepBodiesPromptly) {
  // Each of these used to overflow the stack: the first two in the
  // recursive-descent parser, the flat chain in codegen and the AST's
  // destructor (the parser builds it without recursing).
  std::string chain = "int main() { return 1";
  for (int i = 0; i < 200000; ++i) chain += "+1";
  chain += "; }\n";
  for (const std::string& body :
       {nested_mini_c("-", "", 200000), nested_mini_c("(", ")", 100000), chain}) {
    const auto [v, seconds] = timed_grade(SubmissionKind::MiniC, body);
    EXPECT_EQ(v.status, "compile_error") << v.to_json();
    EXPECT_EQ(v.score, 0);
    EXPECT_EQ(v.notes, std::vector<std::string>{"line 1: nesting deeper than the cap of " +
                                                std::to_string(cc::kMaxNesting) + " levels"});
    EXPECT_LT(seconds, 1.0);
  }
}

TEST(Toolchain, MiniCNestingCapAdmitsABodyAtTheCap) {
  // The return statement is one level and each unary minus one more;
  // the flat chain's tree is one level taller than its '+' count.
  const std::size_t cap = static_cast<std::size_t>(cc::kMaxNesting);
  const Verdict negated =
      run_toolchain({"s", SubmissionKind::MiniC, nested_mini_c("-", "", cap - 1)}, test_limits());
  EXPECT_EQ(negated.status, "ok") << negated.to_json();
  EXPECT_EQ(negated.result, (cap - 1) % 2 == 0 ? 1 : -1);
  EXPECT_EQ(
      run_toolchain({"s", SubmissionKind::MiniC, nested_mini_c("-", "", cap)}, test_limits())
          .status,
      "compile_error");

  std::string chain = "int main() { return 1";
  for (std::size_t i = 0; i + 1 < cap; ++i) chain += "+1";
  const Verdict summed =
      run_toolchain({"s", SubmissionKind::MiniC, chain + "; }\n"}, test_limits());
  EXPECT_EQ(summed.status, "ok") << summed.to_json();
  EXPECT_EQ(summed.result, static_cast<std::int32_t>(cap));
  EXPECT_EQ(
      run_toolchain({"s", SubmissionKind::MiniC, chain + "+1; }\n"}, test_limits()).status,
      "compile_error");
}

TEST(Toolchain, LifeCapsRejectHostileBodiesPromptly) {
  // Without the caps the first took ~56 s and the second ~0.9 s, growing
  // linearly with rounds; the third's vector clocks grow with threads.
  const std::pair<std::string, std::string> cases[] = {
      {life_scenario(1, 1, 3000, 3000),
       "life scenario: a 3000x3000 grid exceeds the cap of 65536 cells"},
      {life_scenario(1, 20000, 8, 8),
       "life scenario: 20000 rounds of 64 cells exceeds the cap of 131072 cell-rounds"},
      {life_scenario(65, 1, 65, 1), "life scenario: 65 threads exceeds the cap of 64"},
  };
  for (const auto& [body, note] : cases) {
    const auto [v, seconds] = timed_grade(SubmissionKind::LifeTrace, body);
    EXPECT_EQ(v.status, "invalid") << v.to_json();
    EXPECT_EQ(v.notes, std::vector<std::string>{note});
    EXPECT_LT(seconds, 1.0);
  }
}

TEST(Toolchain, LifeZeroThreadsIsInvalid) {
  const Verdict v = run_toolchain({"s", SubmissionKind::LifeTrace, life_scenario(0, 1, 4, 4)},
                                  test_limits());
  EXPECT_EQ(v.status, "invalid") << v.to_json();
  EXPECT_EQ(v.score, 0);
  EXPECT_EQ(v.notes, std::vector<std::string>{"need at least one thread"});
}

TEST(Toolchain, LifeCapsAdmitBodiesAtEachCap) {
  const std::size_t rows = kMaxLifeCells / 256;
  const std::size_t rounds = kMaxLifeCellRounds / 64;
  const std::pair<std::string, std::string> at_and_over[] = {
      {life_scenario(2, 1, rows, 256), life_scenario(2, 1, rows + 1, 256)},
      {life_scenario(2, rounds, 8, 8), life_scenario(2, rounds + 1, 8, 8)},
      {life_scenario(kMaxLifeThreads, 1, kMaxLifeThreads, 1),
       life_scenario(kMaxLifeThreads + 1, 1, kMaxLifeThreads + 1, 1)},
  };
  for (const auto& [at, over] : at_and_over) {
    const Verdict admitted = run_toolchain({"s", SubmissionKind::LifeTrace, at}, test_limits());
    EXPECT_EQ(admitted.status, "race_free") << at << admitted.to_json();
    EXPECT_GT(admitted.events, 0u);
    EXPECT_EQ(run_toolchain({"s", SubmissionKind::LifeTrace, over}, test_limits()).status,
              "invalid")
        << over;
  }
}

TEST(Toolchain, ImageLargerThanMemoryIsACompileError) {
  // The grading Machine has 1 MiB; both bodies assemble past it. The
  // size is checked with the compile, so the verdict is the
  // submission's, not a grader_error escaping load().
  std::string mini_c = "int main() {\n  int x = 0;\n";
  for (int i = 0; i < 10000; ++i) mini_c += "  x = x + 1;\n";
  mini_c += "  return x;\n}\n";
  std::string assembly = "_start:\n";
  for (int i = 0; i < 70000; ++i) assembly += "    nop\n";
  assembly += "    hlt\n";
  for (const Submission& s : {Submission{"c", SubmissionKind::MiniC, mini_c},
                              Submission{"a", SubmissionKind::Assembly, assembly}}) {
    const Verdict v = run_toolchain(s, test_limits());
    EXPECT_EQ(v.status, "compile_error") << s.id << ": " << v.to_json();
    EXPECT_EQ(v.score, 0);
    EXPECT_EQ(v.instructions, 0u);
    ASSERT_FALSE(v.notes.empty());
    EXPECT_EQ(v.notes.back(), "image does not fit in memory");
  }
}

// --- one Machine per grading thread ----------------------------------------

TEST(Toolchain, ReusedMachineGradesLikeAFreshOne) {
  // A grading thread resets and reuses one Machine, so each program
  // here follows others that wrote far memory, the deep stack, faulted
  // or ran out of budget; the last reads those places back. Every
  // verdict must equal the one the same body gets on a new thread.
  const std::vector<Submission> sequence = {
      {"writer", SubmissionKind::Assembly,
       "_start:\n    movl $0, %eax\n    movl $1234, 600000(%eax)\n    movl %esp, %ebx\n"
       "    movl $5678, -40000(%ebx)\n    movl $1, %eax\n    hlt\n"},
      {"fault", SubmissionKind::Assembly,
       "_start:\n    movl $0, %eax\n    movl $77, 700000(%eax)\n    pushl $88\n"
       "    movl 2000000000(%eax), %ebx\n    hlt\n"},
      {"spin", SubmissionKind::Assembly, "_start:\n    pushl $99\n    jmp _start\n"},
      {"mini_c", SubmissionKind::MiniC, mini_c_body(3)},
      {"reader", SubmissionKind::Assembly,
       "_start:\n    movl $0, %eax\n    movl 600000(%eax), %ecx\n    addl 700000(%eax), %ecx\n"
       "    movl %esp, %ebx\n    addl -40000(%ebx), %ecx\n    addl -4(%ebx), %ecx\n"
       "    movl %ecx, %eax\n    hlt\n"},
  };
  std::vector<Verdict> reused;
  std::thread([&] {
    for (int pass = 0; pass < 2; ++pass) {
      for (const Submission& s : sequence) reused.push_back(run_toolchain(s, test_limits()));
    }
  }).join();
  ASSERT_EQ(reused.size(), 2 * sequence.size());
  EXPECT_EQ(reused[1].status, "runtime_error") << reused[1].to_json();
  EXPECT_EQ(reused[2].status, "timeout") << reused[2].to_json();
  EXPECT_EQ(reused[4].status, "ok") << reused[4].to_json();
  EXPECT_EQ(reused[4].result, 0);  // nothing left behind
  for (std::size_t i = 0; i < reused.size(); ++i) {
    Verdict fresh;
    const Submission& s = sequence[i % sequence.size()];
    std::thread([&] { fresh = run_toolchain(s, test_limits()); }).join();
    EXPECT_EQ(reused[i], fresh) << s.id << ": " << reused[i].to_json() << " vs "
                                << fresh.to_json();
  }
}

TEST(Toolchain, ScriptVerdictIsDeterministic) {
  for (const std::string& body :
       {script_body_clean(11), script_body_racy(11), script_body_deadlock(11)}) {
    const Verdict a = run_toolchain({"a", SubmissionKind::Script, body}, test_limits());
    const Verdict b = run_toolchain({"b", SubmissionKind::Script, body}, test_limits());
    EXPECT_EQ(a.to_json(), b.to_json());
  }
}

// How a script body splits into threads and ops: one thread per line
// with at least one op, ops separated by ';', each trimmed of spaces and
// tabs only (a '\r' stays in its op's label), empty ops and op-less
// lines dropped. Every verdict is pinned byte for byte.
TEST(Toolchain, ScriptBodySplitEdgeCasesArePinned) {
  struct Case {
    const char* name;
    std::string body;
    std::string json;
  };
  const std::vector<Case> cases = {
      {"crlf line endings",
       "write x; read y\r\nwrite y; read x\r\n",
       "{\"status\":\"race_found\",\"score\":30,\"result\":3,\"instructions\":0,\"events\":12,\"races\":2,\"notes\":[\"warning[static-race] line 1 in 't0': 'x' may race: 't0 write x' and 't1 read x\\u000d' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 read x\\u000d' (t1 op 2)\",\"warning[static-race] line 2 in 't0': 'y' may race: 't0 read y\\u000d' and 't1 write y' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write y' (t1 op 1)\",\"race on y: t0 read y\\u000d vs t1 write y\",\"race on x: t0 write x vs t1 read x\\u000d\"]}"},
      {"empty ops",
       "write x;; read x\n;;\nwrite x;\n",
       "{\"status\":\"race_found\",\"score\":30,\"result\":3,\"instructions\":0,\"events\":9,\"races\":2,\"notes\":[\"warning[static-race] line 1 in 't0': 'x' may race: 't0 write x' and 't1 write x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write x' (t1 op 1)\",\"warning[static-race] line 2 in 't0': 'x' may race: 't0 read x' and 't1 write x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write x' (t1 op 1)\",\"race on x: t0 write x vs t1 write x\",\"race on x: t0 read x vs t1 write x\"]}"},
      {"tab-only ops",
       "write x;\t;read x\n\t\nwrite x;\t\n",
       "{\"status\":\"race_found\",\"score\":30,\"result\":3,\"instructions\":0,\"events\":9,\"races\":2,\"notes\":[\"warning[static-race] line 1 in 't0': 'x' may race: 't0 write x' and 't1 write x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write x' (t1 op 1)\",\"warning[static-race] line 2 in 't0': 'x' may race: 't0 read x' and 't1 write x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write x' (t1 op 1)\",\"race on x: t0 write x vs t1 write x\",\"race on x: t0 read x vs t1 write x\"]}"},
      {"no final newline",
       "lock m; write x; unlock m\nlock m; write x; unlock m",
       "{\"status\":\"race_free\",\"score\":100,\"result\":1,\"instructions\":0,\"events\":6,\"races\":0,\"notes\":[\"note[guarded-by]: 'x' is consistently guarded by 'm' (never a race candidate under blocking semantics)\"]}"},
      {"whitespace-only lines",
       "  \n\t \nwrite x\n   \nread x\n \n",
       "{\"status\":\"race_found\",\"score\":30,\"result\":2,\"instructions\":0,\"events\":4,\"races\":1,\"notes\":[\"warning[static-race] line 1 in 't0': 'x' may race: 't0 write x' and 't1 read x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 read x' (t1 op 1)\",\"race on x: t0 write x vs t1 read x\"]}"},
      {"carriage-return-only line",
       "write x\r\n\r\nread x\r\n",
       "{\"status\":\"invalid\",\"score\":0,\"result\":0,\"instructions\":0,\"events\":0,\"races\":0,\"notes\":[\"script op 't1 \\u000d': missing a verb\"]}"},
      {"padded ops",
       "  write x ;\tread x\t\n write x",
       "{\"status\":\"race_found\",\"score\":30,\"result\":3,\"instructions\":0,\"events\":9,\"races\":2,\"notes\":[\"warning[static-race] line 1 in 't0': 'x' may race: 't0 write x' and 't1 write x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write x' (t1 op 1)\",\"warning[static-race] line 2 in 't0': 'x' may race: 't0 read x' and 't1 write x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\\n    note: second access: 't1 write x' (t1 op 1)\",\"race on x: t0 write x vs t1 write x\",\"race on x: t0 read x vs t1 write x\"]}"},
      {"no threads",
       "\n \n;\t;\n",
       "{\"status\":\"invalid\",\"score\":0,\"result\":0,\"instructions\":0,\"events\":0,\"races\":0,\"notes\":[\"script submission: no threads\"]}"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(run_toolchain({"s", SubmissionKind::Script, c.body}, test_limits()).to_json(),
              c.json)
        << c.name;
  }
}

TEST(Toolchain, VerdictJsonIsStable) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::Assembly, assembly_body(9)}, test_limits());
  EXPECT_EQ(v.to_json(), run_toolchain({"other-id", SubmissionKind::Assembly,
                                        assembly_body(9)}, test_limits())
                             .to_json());
  EXPECT_EQ(v.to_json().find("{\"status\":"), 0u);
}

// --- verdict cache -----------------------------------------------------

/// One lookup on its own copy of `s`: a stored miss takes the body.
std::string lookup(VerdictCache& cache, ContentHash hash, Submission s,
                   const std::function<Verdict()>& compute) {
  return cache.get_or_compute(hash, s, compute);
}

TEST(Cache, HitMissAccounting) {
  VerdictCache cache;
  const ContentHash h1 = 11, h2 = 22;
  const Submission a{"a", SubmissionKind::MiniC, "a"}, b{"b", SubmissionKind::MiniC, "b"};
  const auto verdict = [](int score) {
    Verdict v;
    v.status = "ok";
    v.score = score;
    return v;
  };
  int computed = 0;
  const auto make = [&](int score) {
    return [&, score] {
      ++computed;
      return verdict(score);
    };
  };
  EXPECT_EQ(lookup(cache, h1, a, make(100)), verdict(100).to_json());
  EXPECT_EQ(lookup(cache, h1, a, make(50)), verdict(100).to_json()) << "hit must not recompute";
  EXPECT_EQ(computed, 1) << "a hit called compute";
  EXPECT_EQ(lookup(cache, h2, b, make(70)), verdict(70).to_json());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.collapsed, 0u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(Cache, HashCollisionIsAMissThatKeepsTheStoredEntry) {
  // FNV-1a collisions can be built on purpose; one hash under two
  // bodies stands in for one. The second body must be graded on its own
  // bytes, and the first keeps its verdict.
  VerdictCache cache;
  const ContentHash shared = 0x5eed;
  const Submission alice{"alice", SubmissionKind::MiniC, "int main() { return 1; }\n"};
  const Submission mallory{"mallory", SubmissionKind::MiniC, "int main() { return 2; }\n"};
  const Submission as_asm{"asm", SubmissionKind::Assembly, alice.body};
  const auto grade = [](const Submission& s) {
    return [&s] { return run_toolchain(s, test_limits()); };
  };
  const auto json = [](const Submission& s) { return run_toolchain(s, test_limits()).to_json(); };
  ASSERT_NE(json(alice), json(mallory));
  ASSERT_NE(json(alice), json(as_asm));
  EXPECT_EQ(lookup(cache, shared, alice, grade(alice)), json(alice));
  EXPECT_EQ(lookup(cache, shared, mallory, grade(mallory)), json(mallory))
      << "a colliding body was served another body's verdict";
  EXPECT_EQ(lookup(cache, shared, as_asm, grade(as_asm)), json(as_asm))
      << "same bytes under another kind were served the mini-C verdict";
  EXPECT_EQ(lookup(cache, shared, alice, [] { return Verdict{}; }), json(alice))
      << "the collision overwrote the stored entry";
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Cache, ComputeExceptionBecomesCachedGraderError) {
  VerdictCache cache;
  const Submission s{"s", SubmissionKind::MiniC, "boom"};
  const std::string want = Verdict{.status = "grader_error", .notes = {"toolchain bug"}}.to_json();
  EXPECT_EQ(lookup(cache, 5, s, []() -> Verdict { throw std::runtime_error("toolchain bug"); }),
            want);
  // Later lookups get the same verdict — no retry storm.
  EXPECT_EQ(lookup(cache, 5, s, [] { return Verdict{}; }), want);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- the service: determinism, storms, poison --------------------------

std::string grade_stream(const LoadPlan& plan, GraderService::Options options) {
  GraderService service(options);
  service.submit_all(plan.submissions);
  service.wait_idle();
  return service.report_stream();
}

GraderService::Options test_options(std::size_t workers, std::size_t capacity = 64) {
  GraderService::Options options;
  options.workers = workers;
  options.queue_capacity = capacity;
  options.limits = test_limits();
  return options;
}

/// The report line the service must produce for `s`, built from a
/// serial, uncached run_toolchain call.
std::string serial_line(const Submission& s) {
  std::string line = "{\"id\":" + json_quote(s.id);
  line += ",\"kind\":" + json_quote(to_string(s.kind));
  line += ",\"hash\":" + json_quote(hash_hex(content_hash(s)));
  line += "," + run_toolchain(s, test_limits()).to_json().substr(1);
  return line;
}

TEST(Service, ReportStreamByteIdenticalAcrossWorkerCounts) {
  // The acceptance bar: same batch -> byte-identical stream for any
  // worker count and any queue capacity, and every line equal to a
  // serial uncached toolchain run.
  const LoadPlan plan = make_scenario("steady", 48, /*seed=*/3);
  const std::string reference = grade_stream(plan, test_options(1));
  ASSERT_FALSE(reference.empty());
  for (const std::size_t workers : {2u, 4u, 8u}) {
    EXPECT_EQ(grade_stream(plan, test_options(workers)), reference)
        << workers << " workers diverged";
  }
  EXPECT_EQ(grade_stream(plan, test_options(4, /*capacity=*/2)), reference)
      << "capacity-2 backpressured queue diverged";
  std::string serial;
  for (const Submission& s : plan.submissions) serial += serial_line(s) + "\n";
  EXPECT_EQ(serial, reference) << "the service diverged from serial run_toolchain";
}

TEST(Service, StreamCoversEverySubmissionInArrivalOrder) {
  const LoadPlan plan = make_scenario("steady", 30, 1);
  GraderService service(test_options(4));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"id\":" + json_quote(plan.submissions[i].id)), 0u)
        << "line " << i << " out of arrival order: " << lines[i];
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, plan.submissions.size());
  EXPECT_EQ(stats.graded, plan.submissions.size());
  std::uint64_t per_worker_total = 0;
  for (const std::uint64_t graded : stats.graded_per_worker) per_worker_total += graded;
  EXPECT_EQ(per_worker_total, stats.graded);
}

TEST(Service, DuplicateStormCollapsesToOneToolchainRun) {
  // N identical bodies -> 1 toolchain run, N reports identical except
  // for the envelope id.
  constexpr std::size_t kCount = 64;
  std::vector<Submission> storm;
  const std::string body = mini_c_body(12);
  for (std::size_t i = 0; i < kCount; ++i) {
    storm.push_back({"storm/" + std::to_string(i), SubmissionKind::MiniC, body});
  }
  GraderService service(test_options(4));
  service.submit_all(std::move(storm));
  service.wait_idle();
  const auto stats = service.stats();
  EXPECT_EQ(stats.graded, kCount);
  EXPECT_EQ(stats.toolchain_runs, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, kCount - 1);
  EXPECT_EQ(stats.cache.collapsed, 0u);
  // Identical verdicts: strip the id field (everything from "kind" on
  // must match byte-for-byte).
  const auto lines = service.report_lines();
  const auto tail = [](const std::string& line) {
    return line.substr(line.find("\"kind\""));
  };
  for (const std::string& line : lines) EXPECT_EQ(tail(line), tail(lines[0]));
}

TEST(Service, MixedStormStillCollapsesPerBody) {
  const LoadPlan plan = make_scenario("duplicate_storm", 96, 2);
  std::set<ContentHash> distinct;
  for (const Submission& s : plan.submissions) distinct.insert(content_hash(s));
  GraderService service(test_options(4));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto stats = service.stats();
  EXPECT_EQ(stats.graded, plan.submissions.size());
  EXPECT_EQ(stats.toolchain_runs, distinct.size());
  EXPECT_EQ(stats.cache.misses, distinct.size());
}

TEST(Service, ReportStreamIsPinned) {
  // gradebench's reference is run_toolchain itself, so only a pin can
  // catch a verdict change. The digest covers every scenario's stream
  // at three seeds; the mini-C lines pin the compile order (semantic
  // errors before the entry check, lint notes kept when main is missing
  // or the stub's `_start` label collides with a function of that name).
  // Both were captured from the earlier router-thread service, whose
  // mini-C path compiled every body twice.
  FieldDigest digest;
  for (const std::string& name : scenario_names()) {
    for (const std::uint32_t seed : {1u, 2u, 48611u}) {
      digest.add(grade_stream(make_scenario(name, 120, seed), test_options(2)));
    }
  }
  EXPECT_EQ(digest.h, 0x282763f882cb1e01ull);

  const std::vector<std::pair<std::string, std::string>> mini_c = {
    {"int main() { return 7; }\n",
     R"j({"status":"ok","score":100,"result":7,"instructions":8,"events":0,"races":0,"notes":[]})j"},
    {"// args: 30 12\nint main(int a, int b) { return a + b; }\n",
     R"j({"status":"ok","score":100,"result":42,"instructions":15,"events":0,"races":0,"notes":[]})j"},
    {"int main(int a, int b) { return a + b; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["main() expects 2 argument(s), got 0"]})j"},
    {"int f() { int x; return x; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[use-before-init] line 1 in 'f': 'x' is read before anything is assigned to it","program has no main()"]})j"},
    {"int _start() { int x; return x; }\nint main() { return _start(); }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[use-before-init] line 1 in '_start': 'x' is read before anything is assigned to it","line 18: duplicate label '_start'"]})j"},
    {"int _start() { return 1; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["program has no main()"]})j"},
    {"int main() { return 1 +; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 1: expected an expression, found ';'"]})j"},
    {"int f() { return y; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 1: use of undeclared variable 'y'"]})j"},
    {"int main() { return g(1); }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 1: call to unknown function 'g'"]})j"},
    {"int f(int a) { return a; }\nint main() { return f(1, 2); }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 2: 'f' expects 1 argument(s), got 2"]})j"},
    {"int main() {\n  int x = 5;\n  x = 6;\n  return x;\n}\n",
     R"j({"status":"ok_with_findings","score":95,"result":6,"instructions":13,"events":0,"races":0,"notes":["warning[dead-store] line 2 in 'main': the initial value of 'x' is never read"]})j"},
    {"int main() { while (1) { } return 0; }\n",
     R"j({"status":"timeout","score":5,"result":0,"instructions":20000,"events":0,"races":0,"notes":["warning[constant-condition] line 1 in 'main': condition is always true\n    note: the loop can only exit through a return inside its body","instruction budget exhausted (runaway loop?)"]})j"},
    {"",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["program has no functions"]})j"},
    {"int f() { return 1; }\nint f() { return 2; }\nint main() { return f(); }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 2: duplicate function 'f'"]})j"},
    {"// args: 5\nint main(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }\n",
     R"j({"status":"ok","score":100,"result":15,"instructions":148,"events":0,"races":0,"notes":[]})j"},
    {"int main(int a) { int a; return a; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["in 'main': duplicate variable 'a'"]})j"},
    {"int main(int a) { int x; return x + a; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[use-before-init] line 1 in 'main': 'x' is read before anything is assigned to it","main() expects 1 argument(s), got 0"]})j"},
    {"int main() { int x; return x; }\nint f() { return q; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 2: use of undeclared variable 'q'"]})j"},
    {"int main() { return 1; }\nint _start() { int u; return u; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[use-before-init] line 2 in '_start': 'u' is read before anything is assigned to it","line 18: duplicate label '_start'"]})j"},
    {"// args: 2\nint main() { int x; return x; }\n",
     R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[use-before-init] line 2 in 'main': 'x' is read before anything is assigned to it","main() expects 0 argument(s), got 1"]})j"},
  };
  for (const auto& [body, json] : mini_c) {
    EXPECT_EQ(run_toolchain({"edge", SubmissionKind::MiniC, body}, test_limits()).to_json(),
              json)
        << body;
  }
}

TEST(Service, ConcurrentSubmittersGradeEachBodyOnce) {
  // Four front-end threads push a duplicate storm straight onto the
  // workers' queues. Every copy of a body still reaches the one worker
  // that owns its hash, so each distinct body runs the toolchain once
  // and nothing ever waits on another thread's compute.
  const LoadPlan plan = make_scenario("duplicate_storm", 192, 3);
  std::set<ContentHash> distinct;
  std::map<std::string, std::string> expected;  // id -> single-submitter line
  for (const Submission& s : plan.submissions) distinct.insert(content_hash(s));
  {
    GraderService single(test_options(4));
    single.submit_all(plan.submissions);
    single.wait_idle();
    const auto lines = single.report_lines();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      expected[plan.submissions[i].id] = lines[i];
    }
  }
  ASSERT_EQ(expected.size(), plan.submissions.size()) << "ids must be unique";

  constexpr std::size_t kSubmitters = 4;
  GraderService service(test_options(4, /*capacity=*/4));
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = t; i < plan.submissions.size(); i += kSubmitters) {
        service.submit(plan.submissions[i]);
      }
    });
  }
  for (auto& th : submitters) th.join();
  service.wait_idle();

  const auto stats = service.stats();
  EXPECT_EQ(stats.graded, plan.submissions.size());
  EXPECT_EQ(stats.toolchain_runs, distinct.size());
  EXPECT_EQ(stats.cache.collapsed, 0u);
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  std::set<std::string> seen;
  for (const std::string& line : lines) {
    const std::size_t end = line.find(",\"kind\"");
    ASSERT_NE(end, std::string::npos) << line;
    const std::string id = line.substr(7, end - 8);  // between {"id":" and "
    ASSERT_TRUE(expected.contains(id)) << line;
    EXPECT_EQ(line, expected[id]);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), plan.submissions.size());
}

TEST(Service, RunsOneThreadPerWorker) {
  // No router or other helper thread: W workers are the whole pool.
  const auto threads = [] {
    const auto tasks = std::filesystem::directory_iterator("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc";
  const auto before = threads();
  for (const std::size_t workers : {1u, 3u}) {
    GraderService service(test_options(workers));
    EXPECT_EQ(threads() - before, static_cast<std::ptrdiff_t>(workers));
  }
}

TEST(Service, PoisonSubmissionsNeverTakeDownThePool) {
  // Spins, syntax errors, and malformed configs ride along with good
  // submissions; every single one must come back with a report and the
  // service must stay usable afterwards.
  const LoadPlan plan = make_scenario("poison", 48, 5);
  GraderService service(test_options(4, /*capacity=*/8));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  std::size_t timeouts = 0, invalids = 0, compile_errors = 0, good = 0;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    if (line.find("\"status\":\"timeout\"") != std::string::npos) ++timeouts;
    if (line.find("\"status\":\"invalid\"") != std::string::npos) ++invalids;
    if (line.find("\"status\":\"compile_error\"") != std::string::npos) ++compile_errors;
    if (line.find("\"status\":\"ok\"") != std::string::npos ||
        line.find("\"status\":\"ok_with_findings\"") != std::string::npos ||
        line.find("\"status\":\"race_free\"") != std::string::npos ||
        line.find("\"status\":\"race_found\"") != std::string::npos) {
      ++good;
    }
  }
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(invalids, 0u);
  EXPECT_GT(compile_errors, 0u);
  EXPECT_EQ(good, plan.submissions.size() - timeouts - invalids - compile_errors);
  // The pool survived: a fresh submission still grades.
  service.submit({"after/0", SubmissionKind::Assembly, assembly_body(1)});
  service.wait_idle();
  EXPECT_EQ(service.stats().graded, plan.submissions.size() + 1);
  EXPECT_NE(service.report_lines().back().find("\"status\":\"ok\""), std::string::npos);
}

TEST(Service, ScriptReviewBatchGradesEveryVerdictKind) {
  // The concurrency homework batch end to end: clean, racy, deadlocking,
  // and malformed scripts all come back with the right verdicts, and
  // the stream stays byte-identical across worker counts like every
  // other scenario.
  const LoadPlan plan = make_scenario("script_review", 24, 6);
  const std::string reference = grade_stream(plan, test_options(1));
  EXPECT_EQ(grade_stream(plan, test_options(4)), reference) << "4 workers diverged";
  GraderService service(test_options(4));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  std::size_t race_free = 0, race_found = 0, deadlock_found = 0, invalid = 0;
  for (const std::string& line : lines) {
    if (line.find("\"status\":\"race_free\"") != std::string::npos) ++race_free;
    if (line.find("\"status\":\"race_found\"") != std::string::npos) ++race_found;
    if (line.find("\"status\":\"deadlock_found\"") != std::string::npos) ++deadlock_found;
    if (line.find("\"status\":\"invalid\"") != std::string::npos) ++invalid;
  }
  EXPECT_GT(race_free, 0u);
  EXPECT_GT(race_found, 0u);
  EXPECT_GT(deadlock_found, 0u);
  EXPECT_GT(invalid, 0u);
  EXPECT_EQ(race_free + race_found + deadlock_found + invalid, lines.size());
}

TEST(Service, SingleWorkerCapacityOneBackpressures) {
  GraderService service(test_options(1, /*capacity=*/1));
  std::vector<Submission> batch;
  for (std::size_t i = 0; i < 16; ++i) {
    batch.push_back({"bp/" + std::to_string(i), SubmissionKind::MiniC, mini_c_body(i)});
  }
  service.submit_all(std::move(batch));
  service.wait_idle();
  EXPECT_EQ(service.stats().graded, 16u);
}

TEST(Service, BurstyPlanGradesEveryBurst) {
  const LoadPlan plan = make_scenario("bursty", 40, 4);
  std::size_t total = 0;
  for (const std::size_t burst : plan.bursts) total += burst;
  ASSERT_EQ(total, plan.submissions.size());
  GraderService service(test_options(2, /*capacity=*/4));
  std::size_t next = 0;
  for (const std::size_t burst : plan.bursts) {
    for (std::size_t i = 0; i < burst; ++i) {
      service.submit(plan.submissions[next++]);
    }
    service.wait_idle();  // the lull between deadline spikes
  }
  EXPECT_EQ(service.stats().graded, plan.submissions.size());
}

// --- toolchain re-entrancy audit (satellite: shared-state check) -------

TEST(Reentrancy, EightConcurrentCompileRunsMatchSerialByteForByte) {
  // The audit's executable form: 8 distinct submissions compiled and
  // executed from 8 threads at once must produce the same assembly text
  // and the same results as the serial pass. Any hidden shared state in
  // the lexer/parser/codegen/assembler/machine would show up here (and
  // under TSan in the sanitizer tier).
  constexpr std::size_t kThreads = 8;
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < kThreads; ++i) sources.push_back(mini_c_body(100 + i));

  std::vector<std::string> serial_asm(kThreads);
  std::vector<std::int32_t> serial_result(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    serial_asm[i] = cc::compile_to_assembly(sources[i]);
    serial_result[i] = cc::run_mini_c(sources[i]);
  }

  std::vector<std::string> threaded_asm(kThreads);
  std::vector<std::int32_t> threaded_result(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      threaded_asm[i] = cc::compile_to_assembly(sources[i]);
      threaded_result[i] = cc::run_mini_c(sources[i]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(threaded_asm[i], serial_asm[i]) << "source " << i;
    EXPECT_EQ(threaded_result[i], serial_result[i]) << "source " << i;
  }
}

TEST(Reentrancy, ConcurrentFullToolchainVerdictsMatchSerial) {
  // Same audit one level up: the whole grading toolchain (including
  // lint, the assembler, and traced Life) from 8 threads at once.
  const LoadPlan plan = make_scenario("steady", 8, 9);
  std::vector<Verdict> serial;
  serial.reserve(plan.submissions.size());
  for (const Submission& s : plan.submissions) {
    serial.push_back(run_toolchain(s, test_limits()));
  }
  std::vector<Verdict> threaded(plan.submissions.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < plan.submissions.size(); ++i) {
    threads.emplace_back(
        [&, i] { threaded[i] = run_toolchain(plan.submissions[i], test_limits()); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < plan.submissions.size(); ++i) {
    EXPECT_EQ(threaded[i].to_json(), serial[i].to_json()) << "submission " << i;
  }
}

// --- life_trace race reports -------------------------------------------

// A barrier-less 4-band glider: 144 distinct races over 432 racy
// accesses. Reports are built only when read; the goldens pin the bytes
// every reader sees.
constexpr const char* kGliderGrid = "8 8\n5\n0 1\n1 2\n2 0\n2 1\n2 2\n";

std::string race_golden(int i) {
  const int col = i;
  const int first_event = 173 + i;
  const int second_event = 197 + 2 * i;
  return "DATA RACE on `cur[0," + std::to_string(col) +
         "]`\n"
         "  first:  thread 4 read at \"step_region band 3\" (event " +
         std::to_string(first_event) +
         ", holding {})\n"
         "  second: thread 1 write at \"swap grids (serial thread)\" (event " +
         std::to_string(second_event) +
         ", holding {})\n"
         "  why:    read-write conflict: no fork/join, lock, barrier, or channel edge "
         "orders thread 4's read before thread 1's write; the two sides hold no lock in "
         "common";
}

TEST(LifeTraceReports, BarrierlessReportsMatchGoldens) {
  const life::TracedLifeResult result =
      life::traced_life_check(life::Grid::parse(kGliderGrid), 4, 2, /*use_barrier=*/false);
  ASSERT_EQ(result.races.size(), 144u);
  EXPECT_EQ(result.race_count, 432u);
  EXPECT_EQ(result.events, 648u);
  EXPECT_EQ(result.races.materialized(), 0u) << "nothing is built before it is read";
  for (int i = 0; i < 4; ++i) EXPECT_EQ(result.races[i].to_string(), race_golden(i));
  EXPECT_EQ(result.races.materialized(), 4u);

  const std::string report = result.report();
  FieldDigest digest;
  digest.add(report);
  EXPECT_EQ(report.size(), 48877u);
  EXPECT_EQ(digest.h, 0x9b6c534113071d94ull);
  EXPECT_EQ(report.substr(0, report.find('\n')),
            "144 distinct race(s), 432 racy access(es), over 648 events:");
}

TEST(LifeTraceReports, IndexOrderDoesNotChangeTheBytes) {
  const life::Grid grid = life::Grid::parse(kGliderGrid);
  const life::TracedLifeResult in_order = life::traced_life_check(grid, 4, 2, false);
  const life::TracedLifeResult shuffled = life::traced_life_check(grid, 4, 2, false);
  const std::vector<std::size_t> order = {143, 3, 77, 0, 2, 1, 142};
  for (const std::size_t i : order) (void)shuffled.races[i];
  for (std::size_t i = 0; i < in_order.races.size(); ++i) {
    EXPECT_EQ(shuffled.races[i].to_string(), in_order.races[i].to_string()) << i;
  }
  EXPECT_EQ(shuffled.report(), in_order.report());
}

TEST(LifeTraceReports, GraderNotesMatchGoldens) {
  const std::string header = "threads=4\nrounds=2\nbarrier=0\nrule=torus\n";
  const Submission s{"glider", SubmissionKind::LifeTrace, header + kGliderGrid};
  const Verdict v = run_toolchain(s, test_limits());
  const std::vector<std::string> notes = {
      "race on cur[0,0]: step_region band 3 vs swap grids (serial thread)",
      "race on cur[0,1]: step_region band 3 vs swap grids (serial thread)",
      "race on cur[0,2]: step_region band 3 vs swap grids (serial thread)",
      "race on cur[0,3]: step_region band 3 vs swap grids (serial thread)",
  };
  EXPECT_EQ(v.notes, notes);
  EXPECT_EQ(v.status, "race_found");
  EXPECT_EQ(v.races, 144u);
  EXPECT_EQ(v.events, 648u);
  EXPECT_EQ(v.result, 5);
}

// --- load generator ----------------------------------------------------

TEST(LoadGen, ScenariosAreDeterministicInSeed) {
  for (const std::string& name : scenario_names()) {
    const LoadPlan a = make_scenario(name, 24, 7);
    const LoadPlan b = make_scenario(name, 24, 7);
    ASSERT_EQ(a.submissions.size(), 24u) << name;
    EXPECT_EQ(a.bursts, b.bursts) << name;
    for (std::size_t i = 0; i < a.submissions.size(); ++i) {
      EXPECT_EQ(a.submissions[i].id, b.submissions[i].id) << name;
      EXPECT_EQ(a.submissions[i].body, b.submissions[i].body) << name;
    }
  }
  EXPECT_THROW((void)make_scenario("no-such-scenario", 4, 1), Error);
}

TEST(LoadGen, StreamIsPinned) {
  // gradebench's workloads are make_scenario's output, so the stream is
  // part of every benchmark's definition: id, kind and body of every
  // submission plus the bursts, over every scenario, three seeds and
  // three counts. The digest was computed before the generators were
  // rewritten; a change here changes what every workload measures.
  FieldDigest digest;
  for (const std::string& name : scenario_names()) {
    for (const std::uint32_t seed : {1u, 2u, 48611u}) {
      for (const std::size_t count : {1u, 24u, 97u}) {
        const LoadPlan plan = make_scenario(name, count, seed);
        for (const Submission& s : plan.submissions) {
          digest.add(s.id);
          digest.add(to_string(s.kind));
          digest.add(s.body);
        }
        for (const std::size_t burst : plan.bursts) digest.add(std::to_string(burst));
      }
    }
  }
  EXPECT_EQ(digest.h, 0x72a8d95fed5dbb1bull);
}

TEST(LoadGen, SteadyBodiesAreDistinct) {
  const LoadPlan plan = make_scenario("steady", 30, 1);
  std::set<ContentHash> hashes;
  for (const Submission& s : plan.submissions) hashes.insert(content_hash(s));
  EXPECT_EQ(hashes.size(), plan.submissions.size());
}

TEST(LoadGen, DuplicateStormIsMostlyDuplicates) {
  const LoadPlan plan = make_scenario("duplicate_storm", 128, 1);
  std::set<ContentHash> hashes;
  for (const Submission& s : plan.submissions) hashes.insert(content_hash(s));
  EXPECT_LT(hashes.size(), plan.submissions.size() / 8);
}

}  // namespace
}  // namespace cs31::grader
