#include "grader/loadgen.hpp"

#include <charconv>
#include <concepts>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cs31::grader {

namespace {

/// One reserved string that text and decimal numbers append to, so a
/// body or an id is built in place, with no temporaries.
struct Text {
  std::string out;

  explicit Text(std::size_t capacity) { out.reserve(capacity); }
  Text& operator<<(std::string_view text) {
    out += text;
    return *this;
  }
  template <std::unsigned_integral N>
  Text& operator<<(N n) {
    char digits[20];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, n).ptr);
    return *this;
  }
};

/// "<prefix>/<i>", with i zero-padded to at least five digits.
std::string submission_id(std::string_view prefix, std::size_t i) {
  char digits[20];
  const auto length = std::to_chars(digits, digits + sizeof digits, i).ptr - digits;
  Text id(16);
  id << prefix << "/";
  if (length < 5) id.out.append(static_cast<std::size_t>(5 - length), '0');
  id.out.append(digits, static_cast<std::size_t>(length));
  return std::move(id.out);
}

/// The steady mix: cycle kinds so every third submission exercises a
/// different toolchain path; one Life scenario in six drops the
/// barrier, so race_found verdicts appear at a steady background rate.
Submission steady_submission(std::size_t i, std::uint32_t seed) {
  const std::uint32_t variant = static_cast<std::uint32_t>(i) + seed * 7919u;
  Submission s;
  switch (i % 3) {
    case 0:
      s.kind = SubmissionKind::MiniC;
      s.body = mini_c_body(variant);
      break;
    case 1:
      s.kind = SubmissionKind::Assembly;
      s.body = assembly_body(variant);
      break;
    default:
      s.kind = SubmissionKind::LifeTrace;
      s.body = life_body(variant, /*with_barrier=*/i % 6 != 5);
      break;
  }
  s.id = submission_id(kind_name(s.kind), i);
  return s;
}

}  // namespace

std::string mini_c_body(std::uint32_t variant) {
  // Every variant is a distinct body (the raw variant number appears as
  // a literal), lint-clean, and loop-bounded: ~a dozen iterations of a
  // helper call, so a cold grade really costs a compile + execute.
  const std::uint32_t base = variant % 90000;
  const std::uint32_t iters = 8 + variant % 5;
  const std::uint32_t step = 1 + variant % 9;
  Text src(224);
  src << "int helper(int a, int b) { return a * 3 + b; }\n"
      << "int main() {\n"
      << "  int acc = " << base << ";\n"
      << "  int i = 0;\n"
      << "  while (i < " << iters << ") {\n"
      << "    acc = acc + helper(i, " << step << ");\n"
      << "    i = i + 1;\n"
      << "  }\n"
      << "  return acc;\n"
      << "}\n";
  return std::move(src.out);
}

std::string assembly_body(std::uint32_t variant) {
  const std::uint32_t base = variant % 90000;
  const std::uint32_t iters = 3 + variant % 6;
  Text src(144);
  src << "_start:\n"
      << "    movl $" << base << ", %eax\n"
      << "    movl $" << iters << ", %ecx\n"
      << "again:\n"
      << "    addl %ecx, %eax\n"
      << "    decl %ecx\n"
      << "    cmpl $0, %ecx\n"
      << "    jne again\n"
      << "    hlt\n";
  return std::move(src.out);
}

std::string life_body(std::uint32_t variant, bool with_barrier) {
  // An 8x8 soup with ~14 live cells placed by the variant-seeded PRNG;
  // 2 or 4 bands, 2 rounds. Enough cells that the barrier-less variant
  // reliably races on the band boundaries.
  common::Xorshift32 rng(variant * 2654435761u + 1);
  const std::uint32_t rows = 8, cols = 8;
  const std::uint64_t cells = 14;
  Text body(128);
  body << "threads=" << (variant % 2 == 0 ? 2u : 4u) << "\n"
       << "rounds=2\n"
       << "barrier=" << (with_barrier ? "1" : "0") << "\n"
       << "rule=torus\n"
       << rows << " " << cols << "\n"
       << cells << "\n";
  for (std::uint64_t i = 0; i < cells; ++i) {
    // Column first: the order these workloads have always been drawn in.
    const std::uint32_t col = rng.below(cols);
    const std::uint32_t row = rng.below(rows);
    body << row << " " << col << "\n";
  }
  return std::move(body.out);
}

std::string poison_spin_assembly() {
  return "_start:\n    jmp _start\n";
}

std::string poison_spin_mini_c() {
  // Not a constant condition (the analyzer would flag that); the loop
  // body just never makes progress.
  return "int main() {\n  int i = 0;\n  while (i < 2) {\n    i = i * 1;\n  }\n  return i;\n}\n";
}

std::string poison_bad_life() {
  return "threads=two\nrounds=1\n8 8\n0\n";
}

std::string poison_bad_mini_c() {
  return "int main() {\n  return 1 +;\n}\n";
}

std::string script_body_clean(std::uint32_t variant) {
  // The variant lands in the counter's name, so every body is distinct
  // (distinct content hashes) while the shape — and the verdict — stays
  // fixed: one consistent guard, race_free, full marks.
  const std::uint64_t c = variant % 90000;
  Text body(96);
  body << "lock m; read c" << c << "; write c" << c << "; unlock m\n"
       << "lock m; read c" << c << "; write c" << c << "; unlock m\n";
  return std::move(body.out);
}

std::string script_body_racy(std::uint32_t variant) {
  // Thread 1 forgets the lock on its write — the classic lost-update
  // homework bug. The static pass flags the candidate and exploration
  // confirms it (verdict "race_found").
  const std::uint64_t c = variant % 90000;
  Text body(64);
  body << "lock m; read c" << c << "; write c" << c << "; unlock m\n"
       << "write c" << c << "\n";
  return std::move(body.out);
}

std::string script_body_deadlock(std::uint32_t variant) {
  // ABBA: opposite nesting orders on the same two mutexes. The static
  // pass reports the lock-order cycle; blocking-aware exploration
  // reaches the stuck state (verdict "deadlock_found").
  const std::uint64_t d = variant % 90000;
  Text body(96);
  body << "lock a; lock b; write d" << d << "; unlock b; unlock a\n"
       << "lock b; lock a; read d" << d << "; unlock a; unlock b\n";
  return std::move(body.out);
}

std::string poison_bad_script() {
  return "lock m; spin c; unlock m\n";
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> kNames = {"steady", "bursty", "duplicate_storm",
                                                  "poison", "script_review"};
  return kNames;
}

LoadPlan make_scenario(const std::string& name, std::size_t count, std::uint32_t seed) {
  require(count > 0, "load scenario needs at least one submission");
  LoadPlan plan;
  plan.submissions.reserve(count);
  common::Xorshift32 rng(seed * 69069u + 12345u);

  if (name == "steady") {
    for (std::size_t i = 0; i < count; ++i) {
      plan.submissions.push_back(steady_submission(i, seed));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  if (name == "bursty") {
    for (std::size_t i = 0; i < count; ++i) {
      plan.submissions.push_back(steady_submission(i, seed));
    }
    // Deadline spikes: bursts between 1 and ~count/4 submissions, so a
    // driver alternates queue-saturating waves with near-idle gaps.
    std::size_t remaining = count;
    const std::uint32_t max_burst =
        static_cast<std::uint32_t>(count / 4 > 1 ? count / 4 : 1);
    while (remaining > 0) {
      const std::size_t burst = 1 + rng.below(max_burst);
      const std::size_t take = burst < remaining ? burst : remaining;
      plan.bursts.push_back(take);
      remaining -= take;
    }
    return plan;
  }

  if (name == "duplicate_storm") {
    // A handful of distinct bodies — everyone submits the starter code.
    const std::size_t distinct = count / 32 > 0 ? count / 32 : 1;
    std::vector<Submission> bodies;
    bodies.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      bodies.push_back(steady_submission(i, seed));
    }
    for (std::size_t i = 0; i < count; ++i) {
      Submission s = bodies[rng.below(static_cast<std::uint32_t>(distinct))];
      s.id = submission_id("storm", i);
      plan.submissions.push_back(std::move(s));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  if (name == "poison") {
    for (std::size_t i = 0; i < count; ++i) {
      if (i % 8 == 7) {
        Submission s;
        switch ((i / 8) % 4) {
          case 0:
            s.kind = SubmissionKind::Assembly;
            s.body = poison_spin_assembly();
            break;
          case 1:
            s.kind = SubmissionKind::MiniC;
            s.body = poison_spin_mini_c();
            break;
          case 2:
            s.kind = SubmissionKind::LifeTrace;
            s.body = poison_bad_life();
            break;
          default:
            s.kind = SubmissionKind::MiniC;
            s.body = poison_bad_mini_c();
            break;
        }
        s.id = submission_id("poison", i);
        plan.submissions.push_back(std::move(s));
        continue;
      }
      plan.submissions.push_back(steady_submission(i, seed));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  if (name == "script_review") {
    // The concurrency homework batch: clean / racy / deadlocking shapes
    // in rotation, with a grammar-rejected script every eighth slot so
    // the pool proves it reports `invalid` without stalling the batch.
    for (std::size_t i = 0; i < count; ++i) {
      Submission s;
      s.kind = SubmissionKind::Script;
      const std::uint32_t variant = static_cast<std::uint32_t>(i) + seed * 7919u;
      if (i % 8 == 7) {
        s.body = poison_bad_script();
      } else {
        switch (i % 3) {
          case 0: s.body = script_body_clean(variant); break;
          case 1: s.body = script_body_racy(variant); break;
          default: s.body = script_body_deadlock(variant); break;
        }
      }
      s.id = submission_id("script", i);
      plan.submissions.push_back(std::move(s));
    }
    plan.bursts.push_back(count);
    return plan;
  }

  throw Error("unknown load scenario '" + name + "' (see scenario_names())");
}

}  // namespace cs31::grader
