#include "ccomp/codegen.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "ccomp/optimizer.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "isa/machine.hpp"

namespace cs31::cc {

namespace {

using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

const Operand kEax = Operand::of_reg(Reg::Eax);
const Operand kEbx = Operand::of_reg(Reg::Ebx);
const Operand kEsp = Operand::of_reg(Reg::Esp);
const Operand kEbp = Operand::of_reg(Reg::Ebp);

Operand imm(std::int64_t v) { return Operand::immediate(static_cast<std::int32_t>(v)); }

/// A callable function: its parameter count and its label.
struct Callee {
  std::string_view name;
  std::size_t arity = 0;
  isa::Listing::Label label = 0;
};

class Generator {
 public:
  Generator(const ProgramAst& program, isa::Listing& out) : program_(program), out_(out) {
    callees_.reserve(program.functions.size());
    for (const Function& fn : program.functions) {
      callees_.push_back({fn.name, fn.params.size(), out_.name(fn.name)});
    }
    std::sort(callees_.begin(), callees_.end(),
              [](const Callee& a, const Callee& b) { return a.name < b.name; });
  }

  void run() {
    // main first so the Machine's entry-point heuristic lands on it.
    for (const Function& fn : program_.functions) {
      if (fn.name == "main") emit_function(fn);
    }
    for (const Function& fn : program_.functions) {
      if (fn.name != "main") emit_function(fn);
    }
  }

 private:
  [[noreturn]] void fail(int line, const std::string& what) const {
    throw Error("line " + std::to_string(line) + ": " + what);
  }

  const Callee* callee(std::string_view name) const {
    const auto it = std::lower_bound(
        callees_.begin(), callees_.end(), name,
        [](const Callee& c, std::string_view n) { return c.name < n; });
    return it != callees_.end() && it->name == name ? &*it : nullptr;
  }

  isa::Listing::Label fresh_label(const char* stem) {
    return out_.name(".L" + (stem + std::to_string(label_counter_++)));
  }

  void emit(Mnemonic op, const Operand& src, const Operand& dst) {
    isa::Instruction ins;
    ins.op = op;
    ins.src = src;
    ins.dst = dst;
    out_.add(ins);
  }
  void emit(Mnemonic op, const Operand& dst) { emit(op, Operand::none(), dst); }
  void emit(Mnemonic op) { emit(op, Operand::none(), Operand::none()); }
  void emit_jump(Mnemonic op, isa::Listing::Label target) { out_.add_jump(op, target); }
  void emit_label(isa::Listing::Label label) { out_.place(label); }

  // ---- frame layout ----

  void collect_locals(const Stmt& stmt, std::vector<std::string_view>& locals) const {
    switch (stmt.kind) {
      case Stmt::Kind::Decl:
        locals.push_back(stmt.name);
        break;
      case Stmt::Kind::Block:
        for (const StmtPtr& s : stmt.body) collect_locals(*s, locals);
        break;
      case Stmt::Kind::If:
        if (stmt.then_branch) collect_locals(*stmt.then_branch, locals);
        if (stmt.else_branch) collect_locals(*stmt.else_branch, locals);
        break;
      case Stmt::Kind::While:
        if (stmt.loop_body) collect_locals(*stmt.loop_body, locals);
        break;
      default:
        break;
    }
  }

  Operand slot(const std::string& name, int line) const {
    const auto it = offsets_.find(name);
    if (it == offsets_.end()) fail(line, "use of undeclared variable '" + name + "'");
    isa::MemRef m;
    m.disp = it->second;
    m.base = Reg::Ebp;
    return Operand::memory(m);
  }

  // ---- expressions (result in %eax) ----

  void emit_bool_from_flags(Mnemonic jcc) {
    const auto yes = fresh_label("true");
    const auto end = fresh_label("end");
    emit_jump(jcc, yes);
    emit(Mnemonic::Mov, imm(0), kEax);
    emit_jump(Mnemonic::Jmp, end);
    emit_label(yes);
    emit(Mnemonic::Mov, imm(1), kEax);
    emit_label(end);
  }

  void emit_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::IntLit:
        emit(Mnemonic::Mov, imm(e.value), kEax);
        return;
      case Expr::Kind::Var:
        emit(Mnemonic::Mov, slot(e.name, e.line), kEax);
        return;
      case Expr::Kind::Assign:
        emit_expr(*e.rhs);
        emit(Mnemonic::Mov, kEax, slot(e.name, e.line));
        return;
      case Expr::Kind::Unary:
        emit_expr(*e.lhs);
        switch (e.un_op) {
          case UnOp::Neg: emit(Mnemonic::Neg, kEax); return;
          case UnOp::BitNot: emit(Mnemonic::Not, kEax); return;
          case UnOp::LogicalNot:
            emit(Mnemonic::Cmp, imm(0), kEax);
            emit_bool_from_flags(Mnemonic::Je);
            return;
        }
        return;
      case Expr::Kind::Binary:
        emit_binary(e);
        return;
      case Expr::Kind::Call: {
        const Callee* fn = callee(e.name);
        if (fn == nullptr) fail(e.line, "call to unknown function '" + e.name + "'");
        if (fn->arity != e.args.size()) {
          fail(e.line, "'" + e.name + "' expects " + std::to_string(fn->arity) +
                           " argument(s), got " + std::to_string(e.args.size()));
        }
        // cdecl: push right-to-left, caller cleans up.
        for (auto arg = e.args.rbegin(); arg != e.args.rend(); ++arg) {
          emit_expr(**arg);
          emit(Mnemonic::Push, kEax);
        }
        emit_jump(Mnemonic::Call, fn->label);
        if (!e.args.empty()) emit(Mnemonic::Add, imm(4 * e.args.size()), kEsp);
        return;
      }
    }
  }

  void emit_binary(const Expr& e) {
    // Short-circuit forms first: they must not evaluate rhs eagerly.
    if (e.bin_op == BinOp::LogicalAnd || e.bin_op == BinOp::LogicalOr) {
      const bool is_and = e.bin_op == BinOp::LogicalAnd;
      const Mnemonic to_shortcut = is_and ? Mnemonic::Je : Mnemonic::Jne;
      const auto shortcut = fresh_label(is_and ? "false" : "trueor");
      const auto end = fresh_label("end");
      emit_expr(*e.lhs);
      emit(Mnemonic::Cmp, imm(0), kEax);
      emit_jump(to_shortcut, shortcut);
      emit_expr(*e.rhs);
      emit(Mnemonic::Cmp, imm(0), kEax);
      emit_jump(to_shortcut, shortcut);
      emit(Mnemonic::Mov, imm(is_and ? 1 : 0), kEax);
      emit_jump(Mnemonic::Jmp, end);
      emit_label(shortcut);
      emit(Mnemonic::Mov, imm(is_and ? 0 : 1), kEax);
      emit_label(end);
      return;
    }

    // lhs -> stack, rhs -> %ebx, lhs back -> %eax.
    emit_expr(*e.lhs);
    emit(Mnemonic::Push, kEax);
    emit_expr(*e.rhs);
    emit(Mnemonic::Mov, kEax, kEbx);
    emit(Mnemonic::Pop, kEax);
    const auto compare = [&](Mnemonic jcc) {
      emit(Mnemonic::Cmp, kEbx, kEax);
      emit_bool_from_flags(jcc);
    };
    switch (e.bin_op) {
      case BinOp::Add: emit(Mnemonic::Add, kEbx, kEax); return;
      case BinOp::Sub: emit(Mnemonic::Sub, kEbx, kEax); return;
      case BinOp::Mul: emit(Mnemonic::Imul, kEbx, kEax); return;
      case BinOp::BitAnd: emit(Mnemonic::And, kEbx, kEax); return;
      case BinOp::BitOr: emit(Mnemonic::Or, kEbx, kEax); return;
      case BinOp::BitXor: emit(Mnemonic::Xor, kEbx, kEax); return;
      case BinOp::Shl: emit(Mnemonic::Shl, kEbx, kEax); return;
      case BinOp::Shr: emit(Mnemonic::Sar, kEbx, kEax); return;  // arithmetic, as C ints
      case BinOp::Lt: compare(Mnemonic::Jl); return;
      case BinOp::Gt: compare(Mnemonic::Jg); return;
      case BinOp::Le: compare(Mnemonic::Jle); return;
      case BinOp::Ge: compare(Mnemonic::Jge); return;
      case BinOp::Eq: compare(Mnemonic::Je); return;
      case BinOp::Ne: compare(Mnemonic::Jne); return;
      case BinOp::LogicalAnd:
      case BinOp::LogicalOr:
        return;  // handled above
    }
  }

  // ---- statements ----

  /// Does this statement return on every path through it? Used to elide
  /// jumps and fall-off padding that could never execute, so compiled
  /// images come out clean under the unreachable-block lint.
  static bool stmt_returns(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::Return:
        return true;
      case Stmt::Kind::Block:
        for (const StmtPtr& s : stmt.body) {
          if (stmt_returns(*s)) return true;
        }
        return false;
      case Stmt::Kind::If:
        return stmt.else_branch != nullptr && stmt_returns(*stmt.then_branch) &&
               stmt_returns(*stmt.else_branch);
      default:
        return false;  // a While's condition may be false on entry
    }
  }

  void emit_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::ExprStmt:
        emit_expr(*stmt.expr);
        return;
      case Stmt::Kind::Decl:
        if (stmt.expr) {
          emit_expr(*stmt.expr);
          emit(Mnemonic::Mov, kEax, slot(stmt.name, stmt.line));
        }
        return;
      case Stmt::Kind::Return:
        if (stmt.expr) {
          emit_expr(*stmt.expr);
        } else {
          emit(Mnemonic::Mov, imm(0), kEax);
        }
        emit_jump(Mnemonic::Jmp, return_label_);
        return;
      case Stmt::Kind::If: {
        const auto else_label = fresh_label("else");
        const auto end = fresh_label("end");
        emit_expr(*stmt.expr);
        emit(Mnemonic::Cmp, imm(0), kEax);
        emit_jump(Mnemonic::Je, else_label);
        emit_stmt(*stmt.then_branch);
        // No jump over the else arm when the then arm already returned.
        if (!stmt_returns(*stmt.then_branch)) emit_jump(Mnemonic::Jmp, end);
        emit_label(else_label);
        if (stmt.else_branch) emit_stmt(*stmt.else_branch);
        emit_label(end);
        return;
      }
      case Stmt::Kind::While: {
        const auto cond = fresh_label("cond");
        const auto end = fresh_label("end");
        emit_label(cond);
        emit_expr(*stmt.expr);
        emit(Mnemonic::Cmp, imm(0), kEax);
        emit_jump(Mnemonic::Je, end);
        emit_stmt(*stmt.loop_body);
        // A body that returns on every path never takes the back edge.
        if (!stmt_returns(*stmt.loop_body)) emit_jump(Mnemonic::Jmp, cond);
        emit_label(end);
        return;
      }
      case Stmt::Kind::Block:
        for (const StmtPtr& s : stmt.body) {
          emit_stmt(*s);
          if (stmt_returns(*s)) return;  // the rest can never execute
        }
        return;
    }
  }

  void emit_function(const Function& fn) {
    // Frame layout: params at 8(%ebp), 12(%ebp), ...; locals at
    // -4(%ebp), -8(%ebp), ... (function-scope, classic C89 style).
    offsets_.clear();
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      if (!offsets_.try_emplace(fn.params[i], 8 + 4 * static_cast<int>(i)).second) {
        throw Error("line " + std::to_string(fn.line) + ": duplicate parameter '" +
                    fn.params[i] + "'");
      }
    }
    locals_.clear();
    for (const StmtPtr& s : fn.body) collect_locals(*s, locals_);
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      if (!offsets_.try_emplace(locals_[i], -4 * static_cast<int>(i + 1)).second) {
        throw Error("in '" + fn.name + "': duplicate variable '" + std::string(locals_[i]) +
                    "'");
      }
    }

    return_label_ = out_.name(".Lret_" + fn.name);
    emit_label(callee(fn.name)->label);
    emit(Mnemonic::Push, kEbp);
    emit(Mnemonic::Mov, kEsp, kEbp);
    if (!locals_.empty()) emit(Mnemonic::Sub, imm(4 * locals_.size()), kEsp);
    bool falls_off = true;
    for (const StmtPtr& s : fn.body) {
      emit_stmt(*s);
      if (stmt_returns(*s)) {
        falls_off = false;
        break;
      }
    }
    if (falls_off) {
      emit(Mnemonic::Mov, imm(0), kEax);  // implicit return 0 when falling off the end
    }
    emit_label(return_label_);
    emit(Mnemonic::Leave);
    emit(Mnemonic::Ret);
  }

  const ProgramAst& program_;
  isa::Listing& out_;
  std::vector<Callee> callees_;  // sorted by name
  std::map<std::string_view, int> offsets_;
  std::vector<std::string_view> locals_;
  isa::Listing::Label return_label_ = 0;
  int label_counter_ = 0;
};

/// Throw unless the program has a main that takes `args.size()` ints.
void require_entry(const ProgramAst& program, const std::vector<std::int32_t>& args) {
  const Function* main_fn = nullptr;
  for (const Function& fn : program.functions) {
    if (fn.name == "main") main_fn = &fn;
  }
  require(main_fn != nullptr, "program has no main()");
  if (main_fn->params.size() != args.size()) {
    throw Error("main() expects " + std::to_string(main_fn->params.size()) +
                " argument(s), got " + std::to_string(args.size()));
  }
}

}  // namespace

isa::Listing lower(const ProgramAst& program) {
  isa::Listing listing;
  // Room for a small program and its stub, so few grow on the way.
  listing.lines.reserve(128);
  listing.names.reserve(32);
  Generator(program, listing).run();
  return listing;
}

std::string generate(const ProgramAst& program) { return isa::render(lower(program)); }

std::string compile_to_assembly(const std::string& source, bool optimize_first) {
  ProgramAst program = parse(source);
  if (optimize_first) optimize(program);
  return generate(program);
}

isa::Image compile(const std::string& source) {
  return isa::assemble(lower(parse(source)));
}

void append_entry_stub(isa::Listing& listing, const ProgramAst& program,
                       const std::vector<std::int32_t>& args) {
  require_entry(program, args);
  listing.place(listing.name("_start"));
  for (auto it = args.rbegin(); it != args.rend(); ++it) {
    isa::Instruction push;
    push.op = Mnemonic::Push;
    push.dst = imm(*it);
    listing.add(push);
  }
  listing.add_jump(Mnemonic::Call, listing.name("main"));
  isa::Instruction hlt;
  hlt.op = Mnemonic::Hlt;
  listing.add(hlt);
}

std::string entry_stub(const ProgramAst& program, const std::vector<std::int32_t>& args) {
  isa::Listing stub;
  append_entry_stub(stub, program, args);
  return isa::render(stub);
}

namespace {

isa::Image compile_with_entry_impl(const std::string& source,
                                   const std::vector<std::int32_t>& args,
                                   bool optimize_first) {
  ProgramAst program = parse(source);
  if (optimize_first) optimize(program);
  // The entry checks come before codegen's own errors.
  require_entry(program, args);
  isa::Listing listing = lower(program);
  append_entry_stub(listing, program, args);
  return isa::assemble(listing);
}

}  // namespace

isa::Image compile_with_entry(const std::string& source,
                              const std::vector<std::int32_t>& args) {
  return compile_with_entry_impl(source, args, false);
}

std::int32_t run_mini_c(const std::string& source, const std::vector<std::int32_t>& args,
                        bool optimize_first) {
  isa::Machine machine;
  machine.load(compile_with_entry_impl(source, args, optimize_first));
  machine.run(5'000'000);
  return static_cast<std::int32_t>(machine.reg(isa::Reg::Eax));
}

}  // namespace cs31::cc
