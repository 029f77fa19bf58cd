#include "analyze/cfg.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/error.hpp"

namespace cs31::analyze {

// ---------------------------------------------------------------------------
// Mini-C
// ---------------------------------------------------------------------------

std::vector<int> CBlock::succs() const {
  switch (term) {
    case Term::Jump: return next >= 0 ? std::vector<int>{next} : std::vector<int>{};
    case Term::Cond:
      if (on_true == on_false) return {on_true};
      return {on_true, on_false};
    case Term::Return: return next >= 0 ? std::vector<int>{next} : std::vector<int>{};
    case Term::Exit: return {};
  }
  return {};
}

namespace {

/// Builder for one function's CFG. Lowering mirrors the code
/// generator's shapes (ccomp/codegen.cpp): If and While conditions
/// become branch chains, && and || short-circuit, ! swaps the targets.
class CBuilder {
 public:
  explicit CBuilder(const cc::Function& fn) { cfg_.fn = &fn; }

  CFuncCfg build() {
    const cc::Function& fn = *cfg_.fn;
    new_block();  // 0: entry
    new_block();  // 1: exit
    cfg_.blocks[1].term = CBlock::Term::Exit;

    int cur = 0;
    for (const cc::StmtPtr& s : fn.body) cur = lower_stmt(*s, cur);
    // Falling off the end: a plain Jump edge into the exit — the
    // missing-return check keys on exactly this edge shape.
    seal_jump(cur, 1);

    link_preds();
    return std::move(cfg_);
  }

 private:
  int new_block() {
    cfg_.blocks.emplace_back();
    return static_cast<int>(cfg_.blocks.size()) - 1;
  }

  void seal_jump(int block, int target) {
    CBlock& b = cfg_.blocks[static_cast<std::size_t>(block)];
    b.term = CBlock::Term::Jump;
    b.next = target;
  }

  /// Record the home block of a control statement once (the first block
  /// of its condition chain).
  void claim(const cc::Stmt* stmt, int block) {
    cfg_.home.emplace(stmt, block);  // emplace: first claim wins
  }

  /// Lower one statement starting in `cur`; returns the block where
  /// control continues afterwards.
  int lower_stmt(const cc::Stmt& stmt, int cur) {
    switch (stmt.kind) {
      case cc::Stmt::Kind::ExprStmt:
      case cc::Stmt::Kind::Decl:
        cfg_.blocks[static_cast<std::size_t>(cur)].stmts.push_back(&stmt);
        cfg_.home.emplace(&stmt, cur);
        return cur;
      case cc::Stmt::Kind::Block: {
        int b = cur;
        for (const cc::StmtPtr& s : stmt.body) b = lower_stmt(*s, b);
        return b;
      }
      case cc::Stmt::Kind::Return: {
        CBlock& b = cfg_.blocks[static_cast<std::size_t>(cur)];
        b.term = CBlock::Term::Return;
        b.owner = &stmt;
        b.next = 1;  // exit
        claim(&stmt, cur);
        // Statements after a return land in a fresh block with no
        // in-edges — the unreachable check finds it.
        return new_block();
      }
      case cc::Stmt::Kind::If: {
        const int then_blk = new_block();
        const int join = new_block();
        int else_blk = join;
        if (stmt.else_branch) else_blk = new_block();
        lower_cond(*stmt.expr, &stmt, cur, then_blk, else_blk);
        claim(&stmt, cur);
        const int then_end = lower_stmt(*stmt.then_branch, then_blk);
        seal_jump(then_end, join);
        if (stmt.else_branch) {
          const int else_end = lower_stmt(*stmt.else_branch, else_blk);
          seal_jump(else_end, join);
        }
        return join;
      }
      case cc::Stmt::Kind::While: {
        const int header = new_block();
        const int body = new_block();
        const int after = new_block();
        seal_jump(cur, header);
        lower_cond(*stmt.expr, &stmt, header, body, after);
        claim(&stmt, header);
        const int body_end = lower_stmt(*stmt.loop_body, body);
        seal_jump(body_end, header);  // back edge
        return after;
      }
    }
    return cur;
  }

  /// Lower a condition into `cur`, branching to `on_true`/`on_false`
  /// with the short-circuit structure made explicit as edges.
  void lower_cond(const cc::Expr& e, const cc::Stmt* owner, int cur, int on_true,
                  int on_false) {
    if (e.kind == cc::Expr::Kind::Binary &&
        (e.bin_op == cc::BinOp::LogicalAnd || e.bin_op == cc::BinOp::LogicalOr)) {
      const int rhs_blk = new_block();
      if (e.bin_op == cc::BinOp::LogicalAnd) {
        lower_cond(*e.lhs, owner, cur, rhs_blk, on_false);
      } else {
        lower_cond(*e.lhs, owner, cur, on_true, rhs_blk);
      }
      lower_cond(*e.rhs, owner, rhs_blk, on_true, on_false);
      return;
    }
    if (e.kind == cc::Expr::Kind::Unary && e.un_op == cc::UnOp::LogicalNot) {
      lower_cond(*e.lhs, owner, cur, on_false, on_true);
      return;
    }
    CBlock& b = cfg_.blocks[static_cast<std::size_t>(cur)];
    b.term = CBlock::Term::Cond;
    b.owner = owner;
    b.cond = &e;
    b.on_true = on_true;
    b.on_false = on_false;
  }

  void link_preds() {
    for (int i = 0; i < static_cast<int>(cfg_.blocks.size()); ++i) {
      for (const int s : cfg_.blocks[static_cast<std::size_t>(i)].succs()) {
        cfg_.blocks[static_cast<std::size_t>(s)].preds.push_back(i);
      }
    }
  }

  CFuncCfg cfg_;
};

void collect_statements(const cc::Stmt& stmt, std::vector<const cc::Stmt*>& out) {
  if (stmt.kind == cc::Stmt::Kind::Block) {
    for (const cc::StmtPtr& s : stmt.body) collect_statements(*s, out);
    return;
  }
  out.push_back(&stmt);
  if (stmt.kind == cc::Stmt::Kind::If) {
    collect_statements(*stmt.then_branch, out);
    if (stmt.else_branch) collect_statements(*stmt.else_branch, out);
  } else if (stmt.kind == cc::Stmt::Kind::While) {
    collect_statements(*stmt.loop_body, out);
  }
}

}  // namespace

CFuncCfg build_cfg(const cc::Function& fn) { return CBuilder(fn).build(); }

std::vector<const cc::Stmt*> all_statements(const cc::Function& fn) {
  std::vector<const cc::Stmt*> out;
  for (const cc::StmtPtr& s : fn.body) collect_statements(*s, out);
  return out;
}

// ---------------------------------------------------------------------------
// Teaching ISA
// ---------------------------------------------------------------------------

namespace {

using isa::Mnemonic;

bool is_cond_jump(Mnemonic m) {
  switch (m) {
    case Mnemonic::Je: case Mnemonic::Jne: case Mnemonic::Jg: case Mnemonic::Jge:
    case Mnemonic::Jl: case Mnemonic::Jle: case Mnemonic::Ja: case Mnemonic::Jae:
    case Mnemonic::Jb: case Mnemonic::Jbe: case Mnemonic::Js: case Mnemonic::Jns:
      return true;
    default:
      return false;
  }
}

bool ends_block(Mnemonic m) {
  return m == Mnemonic::Jmp || m == Mnemonic::Ret || m == Mnemonic::Hlt ||
         is_cond_jump(m);
}

}  // namespace

int IsaCfg::block_containing(std::uint32_t addr) const {
  for (int i = 0; i < static_cast<int>(blocks.size()); ++i) {
    const IsaBlock& b = blocks[static_cast<std::size_t>(i)];
    if (b.instrs.empty()) continue;
    const std::uint32_t end = b.instrs.back().addr + isa::kInstrBytes;
    if (addr >= b.start && addr < end) return i;
  }
  return -1;
}

std::string IsaCfg::label_for(std::uint32_t addr) const {
  // Prefer real routine names over compiler-local ".L" labels — a
  // finding inside main's loop should say "main", not ".Lcond0".
  std::string best;
  std::uint32_t best_addr = 0;
  bool best_local = false;
  for (const auto& [name, sym_addr] : image->symbols) {
    if (sym_addr > addr) continue;
    const bool local = !name.empty() && name.front() == '.';
    const bool better = best.empty() || (best_local && !local) ||
                        (best_local == local && sym_addr >= best_addr);
    if (better) {
      best = name;
      best_addr = sym_addr;
      best_local = local;
    }
  }
  if (!best.empty()) return best;
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", addr);
  return buf;
}

IsaCfg build_cfg(const isa::Image& image) {
  IsaCfg cfg;
  cfg.image = &image;
  const std::uint32_t base = image.base;
  const std::size_t count = image.instruction_count();
  require(image.bytes.size() == count * isa::kInstrBytes,
          "image size is not a whole number of instructions");

  std::vector<isa::Instruction> code;
  code.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    code.push_back(isa::decode(image.bytes.data() + i * isa::kInstrBytes));
  }

  const auto in_image = [&](std::uint32_t addr) {
    return addr >= base && addr < base + count * isa::kInstrBytes &&
           (addr - base) % isa::kInstrBytes == 0;
  };

  // Entry: the Machine::load heuristic.
  cfg.entry = base;
  if (image.symbols.contains("_start")) cfg.entry = image.symbols.at("_start");
  else if (image.symbols.contains("main")) cfg.entry = image.symbols.at("main");

  // Leaders: entry, every jump/call target, every symbol, and the
  // instruction after any control transfer.
  std::set<std::uint32_t> leaders = {cfg.entry};
  std::set<std::uint32_t> jump_targets;
  std::set<std::uint32_t> call_targets;
  for (const auto& [name, addr] : image.symbols) {
    if (in_image(addr)) leaders.insert(addr);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const isa::Instruction& ins = code[i];
    const std::uint32_t addr = base + static_cast<std::uint32_t>(i * isa::kInstrBytes);
    const std::uint32_t next = addr + isa::kInstrBytes;
    if (ins.op == Mnemonic::Jmp || is_cond_jump(ins.op)) {
      if (!in_image(ins.target)) {
        throw Error("jump target outside the image at " + std::to_string(addr));
      }
      leaders.insert(ins.target);
      jump_targets.insert(ins.target);
      if (in_image(next)) leaders.insert(next);
    } else if (ins.op == Mnemonic::Call) {
      if (!in_image(ins.target)) {
        throw Error("call target outside the image at " + std::to_string(addr));
      }
      leaders.insert(ins.target);
      call_targets.insert(ins.target);
      if (in_image(next)) leaders.insert(next);
    } else if (ins.op == Mnemonic::Ret || ins.op == Mnemonic::Hlt) {
      if (in_image(next)) leaders.insert(next);
    }
  }

  // Carve blocks.
  for (const std::uint32_t leader : leaders) {
    if (!in_image(leader)) continue;
    IsaBlock block;
    block.start = leader;
    for (std::uint32_t addr = leader; in_image(addr); addr += isa::kInstrBytes) {
      if (addr != leader && leaders.contains(addr)) break;
      const isa::Instruction& ins = code[(addr - base) / isa::kInstrBytes];
      block.instrs.push_back({addr, ins});
      if (ends_block(ins.op)) break;
    }
    cfg.block_at[leader] = static_cast<int>(cfg.blocks.size());
    cfg.blocks.push_back(std::move(block));
  }

  // Edges.
  for (int i = 0; i < static_cast<int>(cfg.blocks.size()); ++i) {
    IsaBlock& b = cfg.blocks[static_cast<std::size_t>(i)];
    const IsaInstr& last = b.instrs.back();
    const std::uint32_t next = last.addr + isa::kInstrBytes;
    const auto add_edge = [&](std::uint32_t target) {
      const auto it = cfg.block_at.find(target);
      if (it == cfg.block_at.end()) return;
      b.succs.push_back(it->second);
      cfg.blocks[static_cast<std::size_t>(it->second)].preds.push_back(i);
    };
    if (last.ins.op == Mnemonic::Jmp) {
      add_edge(last.ins.target);
    } else if (is_cond_jump(last.ins.op)) {
      add_edge(last.ins.target);
      if (in_image(next)) add_edge(next);
    } else if (last.ins.op == Mnemonic::Ret || last.ins.op == Mnemonic::Hlt) {
      // no successors
    } else {
      // Plain fallthrough (including call: the callee returns here).
      if (in_image(next)) add_edge(next);
    }
  }

  cfg.call_targets.assign(call_targets.begin(), call_targets.end());

  // Roots: entry, call targets, and labels nothing jumps to. Labels
  // starting with '.' are compiler-local (the generator's ".Lend"/".Lret"
  // family); control never arrives at them from outside, so they are
  // not roots even when an optimization left them un-jumped.
  std::set<std::uint32_t> root_addrs = {cfg.entry};
  for (const std::uint32_t t : call_targets) root_addrs.insert(t);
  for (const auto& [name, addr] : image.symbols) {
    if (!name.empty() && name.front() == '.') continue;
    if (in_image(addr) && !jump_targets.contains(addr)) root_addrs.insert(addr);
  }
  for (const std::uint32_t addr : root_addrs) {
    IsaRoot root;
    root.addr = addr;
    root.is_call_target = call_targets.contains(addr);
    root.name = cfg.label_for(addr);
    cfg.roots.push_back(std::move(root));
  }
  return cfg;
}

std::vector<int> function_blocks(const IsaCfg& cfg, std::uint32_t root) {
  std::vector<int> order;
  const auto it = cfg.block_at.find(root);
  if (it == cfg.block_at.end()) return order;
  std::set<int> seen = {it->second};
  order.push_back(it->second);
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const int s : cfg.blocks[static_cast<std::size_t>(order[head])].succs) {
      if (seen.insert(s).second) order.push_back(s);
    }
  }
  return order;
}

bool function_returns(const IsaCfg& cfg, std::uint32_t root) {
  for (const int b : function_blocks(cfg, root)) {
    const IsaBlock& block = cfg.blocks[static_cast<std::size_t>(b)];
    if (!block.instrs.empty() && block.instrs.back().ins.op == Mnemonic::Ret) return true;
  }
  return false;
}

}  // namespace cs31::analyze
