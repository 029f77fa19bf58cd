#include "ccomp/codegen.hpp"

#include <map>
#include <sstream>

#include "ccomp/optimizer.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "isa/machine.hpp"

namespace cs31::cc {

namespace {

struct Signature {
  std::size_t arity = 0;
};

class Generator {
 public:
  explicit Generator(const ProgramAst& program) : program_(program) {
    for (const Function& fn : program.functions) {
      signatures_[fn.name] = Signature{fn.params.size()};
    }
  }

  std::string run() {
    // main first so the Machine's entry-point heuristic lands on it.
    for (const Function& fn : program_.functions) {
      if (fn.name == "main") emit_function(fn);
    }
    for (const Function& fn : program_.functions) {
      if (fn.name != "main") emit_function(fn);
    }
    return out_.str();
  }

 private:
  [[noreturn]] void fail(int line, const std::string& what) const {
    throw Error("line " + std::to_string(line) + ": " + what);
  }

  std::string fresh_label(const std::string& stem) {
    return ".L" + stem + std::to_string(label_counter_++);
  }

  void emit(const std::string& text) { out_ << "    " << text << '\n'; }
  void emit_label(const std::string& label) { out_ << label << ":\n"; }

  // ---- frame layout ----

  void collect_locals(const Stmt& stmt, std::vector<std::string>& locals) const {
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

  std::string slot(const std::string& name, int line) const {
    const auto it = offsets_.find(name);
    if (it == offsets_.end()) fail(line, "use of undeclared variable '" + name + "'");
    return std::to_string(it->second) + "(%ebp)";
  }

  // ---- expressions (result in %eax) ----

  void emit_bool_from_flags(const char* jcc) {
    const std::string yes = fresh_label("true");
    const std::string end = fresh_label("end");
    emit(std::string(jcc) + " " + yes);
    emit("movl $0, %eax");
    emit("jmp " + end);
    emit_label(yes);
    emit("movl $1, %eax");
    emit_label(end);
  }

  void emit_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::IntLit:
        emit("movl $" + std::to_string(e.value) + ", %eax");
        return;
      case Expr::Kind::Var:
        emit("movl " + slot(e.name, e.line) + ", %eax");
        return;
      case Expr::Kind::Assign:
        emit_expr(*e.rhs);
        emit("movl %eax, " + slot(e.name, e.line));
        return;
      case Expr::Kind::Unary:
        emit_expr(*e.lhs);
        switch (e.un_op) {
          case UnOp::Neg: emit("negl %eax"); return;
          case UnOp::BitNot: emit("notl %eax"); return;
          case UnOp::LogicalNot:
            emit("cmpl $0, %eax");
            emit_bool_from_flags("je");
            return;
        }
        return;
      case Expr::Kind::Binary:
        emit_binary(e);
        return;
      case Expr::Kind::Call: {
        const auto it = signatures_.find(e.name);
        if (it == signatures_.end()) fail(e.line, "call to unknown function '" + e.name + "'");
        if (it->second.arity != e.args.size()) {
          fail(e.line, "'" + e.name + "' expects " + std::to_string(it->second.arity) +
                           " argument(s), got " + std::to_string(e.args.size()));
        }
        // cdecl: push right-to-left, caller cleans up.
        for (auto arg = e.args.rbegin(); arg != e.args.rend(); ++arg) {
          emit_expr(**arg);
          emit("pushl %eax");
        }
        emit("call " + e.name);
        if (!e.args.empty()) {
          emit("addl $" + std::to_string(4 * e.args.size()) + ", %esp");
        }
        return;
      }
    }
  }

  void emit_binary(const Expr& e) {
    // Short-circuit forms first: they must not evaluate rhs eagerly.
    if (e.bin_op == BinOp::LogicalAnd || e.bin_op == BinOp::LogicalOr) {
      const bool is_and = e.bin_op == BinOp::LogicalAnd;
      const std::string shortcut = fresh_label(is_and ? "false" : "trueor");
      const std::string end = fresh_label("end");
      emit_expr(*e.lhs);
      emit("cmpl $0, %eax");
      emit(std::string(is_and ? "je " : "jne ") + shortcut);
      emit_expr(*e.rhs);
      emit("cmpl $0, %eax");
      emit(std::string(is_and ? "je " : "jne ") + shortcut);
      emit(std::string("movl $") + (is_and ? "1" : "0") + ", %eax");
      emit("jmp " + end);
      emit_label(shortcut);
      emit(std::string("movl $") + (is_and ? "0" : "1") + ", %eax");
      emit_label(end);
      return;
    }

    // lhs -> stack, rhs -> %ebx, lhs back -> %eax.
    emit_expr(*e.lhs);
    emit("pushl %eax");
    emit_expr(*e.rhs);
    emit("movl %eax, %ebx");
    emit("popl %eax");
    switch (e.bin_op) {
      case BinOp::Add: emit("addl %ebx, %eax"); return;
      case BinOp::Sub: emit("subl %ebx, %eax"); return;
      case BinOp::Mul: emit("imull %ebx, %eax"); return;
      case BinOp::BitAnd: emit("andl %ebx, %eax"); return;
      case BinOp::BitOr: emit("orl %ebx, %eax"); return;
      case BinOp::BitXor: emit("xorl %ebx, %eax"); return;
      case BinOp::Shl: emit("shll %ebx, %eax"); return;
      case BinOp::Shr: emit("sarl %ebx, %eax"); return;  // arithmetic, as C ints
      case BinOp::Lt: emit("cmpl %ebx, %eax"); emit_bool_from_flags("jl"); return;
      case BinOp::Gt: emit("cmpl %ebx, %eax"); emit_bool_from_flags("jg"); return;
      case BinOp::Le: emit("cmpl %ebx, %eax"); emit_bool_from_flags("jle"); return;
      case BinOp::Ge: emit("cmpl %ebx, %eax"); emit_bool_from_flags("jge"); return;
      case BinOp::Eq: emit("cmpl %ebx, %eax"); emit_bool_from_flags("je"); return;
      case BinOp::Ne: emit("cmpl %ebx, %eax"); emit_bool_from_flags("jne"); return;
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
          emit("movl %eax, " + slot(stmt.name, stmt.line));
        }
        return;
      case Stmt::Kind::Return:
        if (stmt.expr) {
          emit_expr(*stmt.expr);
        } else {
          emit("movl $0, %eax");
        }
        emit("jmp " + return_label_);
        return;
      case Stmt::Kind::If: {
        const std::string else_label = fresh_label("else");
        const std::string end = fresh_label("end");
        emit_expr(*stmt.expr);
        emit("cmpl $0, %eax");
        emit("je " + else_label);
        emit_stmt(*stmt.then_branch);
        // No jump over the else arm when the then arm already returned.
        if (!stmt_returns(*stmt.then_branch)) emit("jmp " + end);
        emit_label(else_label);
        if (stmt.else_branch) emit_stmt(*stmt.else_branch);
        emit_label(end);
        return;
      }
      case Stmt::Kind::While: {
        const std::string cond = fresh_label("cond");
        const std::string end = fresh_label("end");
        emit_label(cond);
        emit_expr(*stmt.expr);
        emit("cmpl $0, %eax");
        emit("je " + end);
        emit_stmt(*stmt.loop_body);
        // A body that returns on every path never takes the back edge.
        if (!stmt_returns(*stmt.loop_body)) emit("jmp " + cond);
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
      if (offsets_.contains(fn.params[i])) {
        throw Error("line " + std::to_string(fn.line) + ": duplicate parameter '" +
                    fn.params[i] + "'");
      }
      offsets_[fn.params[i]] = 8 + 4 * static_cast<int>(i);
    }
    std::vector<std::string> locals;
    for (const StmtPtr& s : fn.body) collect_locals(*s, locals);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      if (offsets_.contains(locals[i])) {
        throw Error("in '" + fn.name + "': duplicate variable '" + locals[i] + "'");
      }
      offsets_[locals[i]] = -4 * static_cast<int>(i + 1);
    }

    return_label_ = ".Lret_" + fn.name;
    emit_label(fn.name);
    emit("pushl %ebp");
    emit("movl %esp, %ebp");
    if (!locals.empty()) {
      emit("subl $" + std::to_string(4 * locals.size()) + ", %esp");
    }
    bool falls_off = true;
    for (const StmtPtr& s : fn.body) {
      emit_stmt(*s);
      if (stmt_returns(*s)) {
        falls_off = false;
        break;
      }
    }
    if (falls_off) {
      emit("movl $0, %eax");  // implicit return 0 when falling off the end
    }
    emit_label(return_label_);
    emit("leave");
    emit("ret");
  }

  const ProgramAst& program_;
  std::map<std::string, Signature> signatures_;
  std::map<std::string, int> offsets_;
  std::string return_label_;
  std::ostringstream out_;
  int label_counter_ = 0;
};

}  // namespace

std::string generate(const ProgramAst& program) { return Generator(program).run(); }

std::string compile_to_assembly(const std::string& source, bool optimize_first) {
  ProgramAst program = parse(source);
  if (optimize_first) optimize(program);
  return generate(program);
}

isa::Image compile(const std::string& source) {
  return isa::assemble(compile_to_assembly(source));
}

std::string entry_stub(const ProgramAst& program, const std::vector<std::int32_t>& args) {
  const Function* main_fn = nullptr;
  for (const Function& fn : program.functions) {
    if (fn.name == "main") main_fn = &fn;
  }
  require(main_fn != nullptr, "program has no main()");
  if (main_fn->params.size() != args.size()) {
    throw Error("main() expects " + std::to_string(main_fn->params.size()) +
                " argument(s), got " + std::to_string(args.size()));
  }
  std::ostringstream stub;
  stub << "_start:\n";
  for (auto it = args.rbegin(); it != args.rend(); ++it) {
    stub << "    pushl $" << *it << "\n";
  }
  stub << "    call main\n    hlt\n";
  return stub.str();
}

namespace {

isa::Image compile_with_entry_impl(const std::string& source,
                                   const std::vector<std::int32_t>& args,
                                   bool optimize_first) {
  ProgramAst program = parse(source);
  if (optimize_first) optimize(program);
  const std::string stub = entry_stub(program, args);
  return isa::assemble(generate(program) + stub);
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
