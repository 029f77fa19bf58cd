#include "isa/debugger.hpp"

#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace cs31::isa {

Debugger::Debugger(Machine& machine) : machine_(machine) {}

void Debugger::break_at(std::uint32_t address) {
  const Image& img = machine_.image();
  require(address >= img.base && address < img.base + img.bytes.size(),
          "breakpoint outside the loaded program");
  require((address - img.base) % kInstrBytes == 0, "breakpoint not on an instruction");
  breakpoints_.insert(address);
}

void Debugger::break_at(const std::string& label) {
  break_at(machine_.image().symbol(label));
}

void Debugger::delete_breakpoint(std::uint32_t address) {
  breakpoints_.erase(address);
}

StopReason Debugger::cont(std::size_t max_steps) {
  if (machine_.halted()) return StopReason::NotRunning;
  for (std::size_t i = 0; i < max_steps; ++i) {
    if (!machine_.step()) return StopReason::Halted;
    if (breakpoints_.contains(machine_.reg(Reg::Eip))) return StopReason::Breakpoint;
  }
  throw Error("continue exceeded the step limit (runaway program?)");
}

StopReason Debugger::stepi(std::size_t n) {
  if (machine_.halted()) return StopReason::NotRunning;
  for (std::size_t i = 0; i < n; ++i) {
    if (!machine_.step()) return StopReason::Halted;
  }
  return breakpoints_.contains(machine_.reg(Reg::Eip)) ? StopReason::Breakpoint
                                                       : StopReason::Step;
}

std::string Debugger::info_registers() const {
  std::ostringstream out;
  static constexpr Reg kOrder[] = {Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx,
                                   Reg::Esp, Reg::Ebp, Reg::Esi, Reg::Edi, Reg::Eip};
  for (Reg r : kOrder) {
    const std::uint32_t v = machine_.reg(r);
    out << std::left << std::setw(6) << reg_name(r).substr(1) << "0x" << std::hex << v
        << std::dec << "\t" << static_cast<std::int32_t>(v) << '\n';
  }
  const Eflags f = machine_.flags();
  out << "eflags [";
  if (f.cf) out << " CF";
  if (f.zf) out << " ZF";
  if (f.sf) out << " SF";
  if (f.of) out << " OF";
  out << " ]\n";
  return out.str();
}

std::vector<std::uint32_t> Debugger::examine(std::uint32_t addr, std::size_t count) const {
  std::vector<std::uint32_t> words;
  words.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    words.push_back(machine_.load32(addr + static_cast<std::uint32_t>(4 * i)));
  }
  return words;
}

std::string Debugger::disas(int before, int after) const {
  require(before >= 0 && after >= 0, "disas window must be nonnegative");
  const Image& img = machine_.image();
  const std::uint32_t eip = machine_.reg(Reg::Eip);
  const std::vector<DisasmLine> all = disassemble(img);
  std::ostringstream out;
  for (const DisasmLine& line : all) {
    const std::int64_t delta =
        (static_cast<std::int64_t>(line.address) - static_cast<std::int64_t>(eip)) /
        static_cast<std::int64_t>(kInstrBytes);
    if (delta < -before || delta > after) continue;
    if (!line.label.empty()) out << line.label << ":\n";
    out << (line.address == eip ? "=> " : "   ") << "0x" << std::hex << line.address
        << std::dec << ":\t" << line.text << '\n';
  }
  return out.str();
}

std::vector<Debugger::Frame> Debugger::backtrace(std::size_t max_frames) const {
  std::vector<Frame> frames;
  const Image& img = machine_.image();

  auto function_of = [&](std::uint32_t pc) -> std::string {
    std::string best;
    std::uint32_t best_addr = 0;
    for (const auto& [name, addr] : img.symbols) {
      // Skip local labels (".L...") — they are not functions.
      if (!name.empty() && name[0] == '.') continue;
      if (addr <= pc && addr >= best_addr) {
        best = name;
        best_addr = addr;
      }
    }
    return best.empty() ? "??" : best;
  };

  std::uint32_t pc = machine_.reg(Reg::Eip);
  std::uint32_t ebp = machine_.reg(Reg::Ebp);
  for (std::size_t i = 0; i < max_frames; ++i) {
    frames.push_back(Frame{pc, ebp, function_of(pc)});
    // Next frame: saved EBP at [ebp], return address at [ebp+4].
    if (ebp == 0 || ebp + 8 > machine_.memory_size()) break;
    const std::uint32_t saved_ebp = machine_.load32(ebp);
    const std::uint32_t ret = machine_.load32(ebp + 4);
    // The chain ends when the return address leaves the program or the
    // saved EBP stops growing (we initialized EBP = stack top).
    if (ret < img.base || ret >= img.base + img.bytes.size()) break;
    if (saved_ebp <= ebp) break;
    pc = ret;
    ebp = saved_ebp;
  }
  return frames;
}

namespace {

std::vector<std::string> tokenize(const std::string& command) {
  std::istringstream in(command);
  std::vector<std::string> tokens;
  std::string t;
  while (in >> t) tokens.push_back(t);
  return tokens;
}

}  // namespace

std::string Debugger::execute(const std::string& command) {
  const std::vector<std::string> tok = tokenize(command);
  require(!tok.empty(), "empty command");
  const std::string& cmd = tok[0];

  if (const auto it = extra_commands_.find(cmd); it != extra_commands_.end()) {
    if (tok.size() != 1) throw Error("usage: " + cmd);
    return it->second();
  }

  auto parse_addr_or_reg = [&](const std::string& text) -> std::uint32_t {
    if (!text.empty() && text[0] == '$') return machine_.reg(parse_reg("%" + text.substr(1)));
    if (text.rfind("0x", 0) == 0) {
      return static_cast<std::uint32_t>(std::stoul(text.substr(2), nullptr, 16));
    }
    // Fall back to a label.
    return machine_.image().symbol(text);
  };

  auto stop_text = [](StopReason r) -> std::string {
    switch (r) {
      case StopReason::Breakpoint: return "Breakpoint hit.\n";
      case StopReason::Step: return "";
      case StopReason::Halted: return "Program exited.\n";
      case StopReason::NotRunning: return "The program is not running.\n";
    }
    return "";
  };

  if (cmd == "break" || cmd == "b") {
    require(tok.size() == 2, "usage: break <label|0xaddr>");
    const std::uint32_t addr = parse_addr_or_reg(tok[1]);
    break_at(addr);
    std::ostringstream out;
    out << "Breakpoint at 0x" << std::hex << addr << '\n';
    return out.str();
  }
  if (cmd == "delete") {
    require(tok.size() == 2, "usage: delete <0xaddr>");
    delete_breakpoint(parse_addr_or_reg(tok[1]));
    return "";
  }
  if (cmd == "continue" || cmd == "c") {
    return stop_text(cont());
  }
  if (cmd == "stepi" || cmd == "si") {
    std::size_t n = 1;
    if (tok.size() == 2) n = std::stoul(tok[1]);
    const StopReason r = stepi(n);
    return stop_text(r) + disas(0, 0);
  }
  if (cmd == "info" && tok.size() == 2 && tok[1] == "registers") {
    return info_registers();
  }
  if (cmd == "print" || cmd == "p") {
    require(tok.size() == 2 && tok[1].size() > 1 && tok[1][0] == '$',
            "usage: print $reg");
    const std::uint32_t v = machine_.reg(parse_reg("%" + tok[1].substr(1)));
    std::ostringstream out;
    out << "$ = " << static_cast<std::int32_t>(v) << " (0x" << std::hex << v << ")\n";
    return out.str();
  }
  if (cmd.rfind("x/", 0) == 0) {
    require(tok.size() == 2, "usage: x/<n>w <addr>");
    const std::string spec = cmd.substr(2);
    require(!spec.empty() && spec.back() == 'w', "only word (w) examine is supported");
    const std::size_t n = std::stoul(spec.substr(0, spec.size() - 1));
    const std::uint32_t addr = parse_addr_or_reg(tok[1]);
    const std::vector<std::uint32_t> words = examine(addr, n);
    std::ostringstream out;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (i % 4 == 0) {
        if (i != 0) out << '\n';
        out << "0x" << std::hex << (addr + 4 * i) << ":";
      }
      out << "\t0x" << std::hex << words[i];
    }
    out << '\n';
    return out.str();
  }
  if (cmd == "disas" || cmd == "disassemble") {
    return disas();
  }
  if (cmd == "backtrace" || cmd == "bt") {
    std::ostringstream out;
    const std::vector<Frame> frames = backtrace();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      out << "#" << i << "  0x" << std::hex << frames[i].pc << std::dec << " in "
          << frames[i].function << " (ebp=0x" << std::hex << frames[i].ebp << std::dec
          << ")\n";
    }
    return out.str();
  }
  throw Error("unknown debugger command '" + cmd + "'");
}

void Debugger::register_command(const std::string& name,
                                std::function<std::string()> handler) {
  static const std::set<std::string> kReserved = {
      "break", "b", "delete", "continue", "c",     "stepi", "si",
      "info",  "print", "p",  "x",        "disas", "disassemble",
      "backtrace", "bt"};
  if (kReserved.contains(name)) {
    throw Error("'" + name + "' is a built-in debugger command");
  }
  extra_commands_[name] = std::move(handler);
}

}  // namespace cs31::isa
