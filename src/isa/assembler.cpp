#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace cs31::isa {

namespace {

constexpr std::size_t npos = std::string_view::npos;

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool is_label_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// Throw `before + text + after`, for messages that quote the source;
/// callers reach it only once a check has failed.
[[noreturn]] void fail(std::string before, std::string_view text, const char* after) {
  before += text;
  throw Error(before + after);
}

std::string at_line(int line) { return "line " + std::to_string(line) + ": "; }

std::int32_t parse_int(std::string_view text) {
  require(!text.empty(), "empty integer");
  const bool neg = text[0] == '-';
  std::size_t i = neg ? 1 : 0;
  require(i < text.size(), "integer with no digits");
  const bool hex = text.substr(i, 2) == "0x" || text.substr(i, 2) == "0X";
  if (hex) {
    i += 2;
    require(i < text.size(), "hex integer with no digits");
  }
  const int radix = hex ? 16 : 10;
  std::int64_t v = 0;
  for (; i < text.size(); ++i) {
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
    int d = 16;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = 10 + c - 'a';
    if (d >= radix) fail(hex ? "bad hex digit in '" : "bad digit in '", text, "'");
    v = v * radix + d;
    require(v <= 0xFFFFFFFFll, "integer out of 32-bit range");
  }
  return static_cast<std::int32_t>(neg ? -v : v);
}

/// Split "a, b" at the top-level commas (commas inside parens belong to
/// the (base,index,scale) operand form) into trimmed views; an empty
/// last part is dropped. Returns the part count, which may exceed 3.
std::size_t split_operands(std::string_view text, std::string_view (&parts)[3]) {
  std::size_t n = 0, begin = 0;
  const auto add = [&](std::string_view part) {
    if (n < 3) parts[n] = part;
    ++n;
  };
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') --depth;
    if (text[i] == ',' && depth == 0) {
      add(trim(text.substr(begin, i - begin)));
      begin = i + 1;
    }
  }
  if (const std::string_view last = trim(text.substr(begin)); !last.empty()) add(last);
  return n;
}

Operand operand(std::string_view raw) {
  const std::string_view text = trim(raw);
  require(!text.empty(), "empty operand");
  if (text[0] == '$') return Operand::immediate(parse_int(text.substr(1)));
  if (text[0] == '%') return Operand::of_reg(parse_reg_view(text));
  // Memory: disp(base,index,scale) with every part optional except that
  // at least one must appear.
  const std::size_t open = text.find('(');
  MemRef m;
  if (open == npos) {
    m.disp = parse_int(text);  // absolute address
    return Operand::memory(m);
  }
  const std::string_view disp = trim(text.substr(0, open));
  if (!disp.empty()) m.disp = parse_int(disp);
  if (text.back() != ')') fail("missing ')' in memory operand '", text, "'");
  const std::string_view inner = text.substr(open + 1, text.size() - open - 2);
  std::string_view parts[3];
  std::string_view rest = inner;
  for (std::size_t n = 0;; ++n) {
    if (n == 3) fail("too many parts in memory operand '", text, "'");
    const std::size_t comma = rest.find(',');
    parts[n] = trim(rest.substr(0, comma));
    if (comma == npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (!parts[0].empty()) m.base = parse_reg_view(parts[0]);
  if (!parts[1].empty()) m.index = parse_reg_view(parts[1]);
  if (!parts[2].empty()) {
    const std::int32_t s = parse_int(parts[2]);
    require(s == 1 || s == 2 || s == 4 || s == 8, "scale must be 1, 2, 4, or 8");
    m.scale = static_cast<std::uint8_t>(s);
  }
  if (!m.base && !m.index) fail("memory operand '", text, "' names no register");
  return Operand::memory(m);
}

struct MnemonicTableEntry {
  std::string_view name;
  Mnemonic op;
  int operands;  // expected operand count
};

constexpr MnemonicTableEntry kTable[] = {
    {"movl", Mnemonic::Mov, 2},  {"addl", Mnemonic::Add, 2},   {"subl", Mnemonic::Sub, 2},
    {"imull", Mnemonic::Imul, 2}, {"andl", Mnemonic::And, 2},  {"orl", Mnemonic::Or, 2},
    {"xorl", Mnemonic::Xor, 2},  {"notl", Mnemonic::Not, 1},   {"negl", Mnemonic::Neg, 1},
    {"incl", Mnemonic::Inc, 1},  {"decl", Mnemonic::Dec, 1},   {"shll", Mnemonic::Shl, 2},
    {"shrl", Mnemonic::Shr, 2},  {"sarl", Mnemonic::Sar, 2},   {"leal", Mnemonic::Lea, 2},
    {"cmpl", Mnemonic::Cmp, 2},  {"testl", Mnemonic::Test, 2}, {"pushl", Mnemonic::Push, 1},
    {"popl", Mnemonic::Pop, 1},  {"call", Mnemonic::Call, 1},  {"ret", Mnemonic::Ret, 0},
    {"leave", Mnemonic::Leave, 0}, {"jmp", Mnemonic::Jmp, 1},  {"je", Mnemonic::Je, 1},
    {"jne", Mnemonic::Jne, 1},   {"jg", Mnemonic::Jg, 1},      {"jge", Mnemonic::Jge, 1},
    {"jl", Mnemonic::Jl, 1},     {"jle", Mnemonic::Jle, 1},    {"ja", Mnemonic::Ja, 1},
    {"jae", Mnemonic::Jae, 1},   {"jb", Mnemonic::Jb, 1},      {"jbe", Mnemonic::Jbe, 1},
    {"js", Mnemonic::Js, 1},     {"jns", Mnemonic::Jns, 1},    {"nop", Mnemonic::Nop, 0},
    {"hlt", Mnemonic::Hlt, 0},
};

// A listing looks its instructions up by mnemonic, so the table is in
// enum order.
constexpr bool table_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].op != static_cast<Mnemonic>(i)) return false;
  }
  return std::size(kTable) == static_cast<std::size_t>(Mnemonic::Hlt) + 1;
}
static_assert(table_in_enum_order());

bool is_jump_or_call(Mnemonic m) {
  return (m >= Mnemonic::Jmp && m <= Mnemonic::Jns) || m == Mnemonic::Call;
}

/// Pass 1's check and binding of one label, shared by both inputs.
void bind_label(Image& image, int line, std::string_view label, std::uint32_t addr) {
  if (label.empty()) throw Error(at_line(line) + "empty label");
  if (!std::all_of(label.begin(), label.end(), is_label_char)) {
    fail(at_line(line) + "bad label '", label, "'");
  }
  if (!image.symbols.try_emplace(std::string(label), addr).second) {
    fail(at_line(line) + "duplicate label '", label, "'");
  }
}

[[noreturn]] void operand_count_error(const MnemonicTableEntry& entry, std::size_t n) {
  throw Error(std::string(entry.name) + " expects " + std::to_string(entry.operands) +
              " operand(s), got " + std::to_string(n));
}

/// Walk the source line by line with `#` comments stripped, handing
/// each label to `on_label(line, label)` and the instruction after the
/// labels, if any, to `on_instruction(line, mnemonic, operand_text)`.
template <typename OnLabel, typename OnInstruction>
void scan(std::string_view source, OnLabel on_label, OnInstruction on_instruction) {
  for (int number = 1; !source.empty(); ++number) {
    const std::size_t eol = source.find('\n');
    std::string_view line = source.substr(0, eol);
    source.remove_prefix(eol == npos ? source.size() : eol + 1);
    line = trim(line.substr(0, line.find('#')));
    // Possibly several labels then one instruction on a line.
    for (std::size_t colon; (colon = line.find(':')) != npos;) {
      on_label(number, trim(line.substr(0, colon)));
      line = trim(line.substr(colon + 1));
    }
    if (line.empty()) continue;
    const std::size_t sp = line.find_first_of(" \t");
    const std::string_view rest = sp == npos ? std::string_view{} : trim(line.substr(sp + 1));
    on_instruction(number, line.substr(0, sp), rest);
  }
}

}  // namespace

Operand parse_operand(const std::string& text) { return operand(text); }

std::uint32_t Image::symbol(std::string_view name) const {
  const auto it = symbols.find(name);
  if (it == symbols.end()) fail("undefined symbol '", name, "'");
  return it->second;
}

Image assemble(const std::string& source, std::uint32_t base) {
  Image image;
  image.base = base;

  // Pass 1: bind labels to addresses and count instructions.
  std::uint32_t addr = base;
  scan(
      source,
      [&](int line, std::string_view label) { bind_label(image, line, label, addr); },
      [&](int, std::string_view, std::string_view) { addr += kInstrBytes; });

  // Pass 2: encode each instruction in place, labels resolved.
  image.bytes.resize(addr - base);
  std::uint8_t* out = image.bytes.data();
  scan(
      source, [](int, std::string_view) {},
      [&](int line, std::string_view mnemonic, std::string_view rest) {
        const auto entry = std::find_if(std::begin(kTable), std::end(kTable),
                                        [&](const auto& e) { return e.name == mnemonic; });
        if (entry == std::end(kTable)) {
          fail(at_line(line) + "unknown mnemonic '", mnemonic, "'");
        }
        Instruction ins;
        ins.op = entry->op;
        try {
          if (is_jump_or_call(entry->op)) {
            require(!rest.empty(), "jump needs a target");
            if (rest[0] == '%' || rest[0] == '$' ||
                std::isdigit(static_cast<unsigned char>(rest[0]))) {
              throw Error("jump target must be a label in this subset");
            }
            ins.target = image.symbol(rest);
          } else {
            std::string_view ops[3];
            const std::size_t n = split_operands(rest, ops);
            if (n != static_cast<std::size_t>(entry->operands)) {
              operand_count_error(*entry, n);
            }
            if (n == 2) ins.src = operand(ops[0]);
            if (n >= 1) ins.dst = operand(ops[n - 1]);
          }
        } catch (const Error& e) {
          throw Error(at_line(line) + e.what());
        }
        encode(ins, out);
        out += kInstrBytes;
      });
  return image;
}

Image assemble(const Listing& listing, std::uint32_t base) {
  Image image;
  image.base = base;
  const auto name_of = [&](Listing::Label label) -> const std::string& {
    if (label >= listing.names.size()) throw Error("listing label out of range");
    return listing.names[label];
  };

  // Pass 1: bind labels to addresses, remembering each placed Label's
  // address so pass 2 resolves a target without a name lookup.
  constexpr std::uint32_t kUnplaced = 0xFFFFFFFFu;
  std::vector<std::uint32_t> placed(listing.names.size(), kUnplaced);
  std::uint32_t addr = base;
  for (std::size_t i = 0; i < listing.lines.size(); ++i) {
    const Listing::Line& line = listing.lines[i];
    if (!line.is_label) {
      addr += kInstrBytes;
      continue;
    }
    bind_label(image, static_cast<int>(i + 1), name_of(line.label), addr);
    placed[line.label] = addr;
  }

  // Pass 2: encode each instruction in place, targets resolved.
  image.bytes.resize(addr - base);
  std::uint8_t* out = image.bytes.data();
  for (std::size_t i = 0; i < listing.lines.size(); ++i) {
    const Listing::Line& line = listing.lines[i];
    if (line.is_label) continue;
    Instruction ins = line.ins;
    try {
      if (is_jump_or_call(ins.op)) {
        // Targets bind by name, as in text: an unplaced Label (the
        // entry stub's `main`) resolves to the placed label so named.
        ins.target = placed[line.label] != kUnplaced ? placed[line.label]
                                                     : image.symbol(name_of(line.label));
      } else {
        const MnemonicTableEntry& entry = kTable[static_cast<std::size_t>(ins.op)];
        const std::size_t n = (ins.src.kind != Operand::Kind::None ? 1 : 0) +
                              (ins.dst.kind != Operand::Kind::None ? 1 : 0);
        if (n != static_cast<std::size_t>(entry.operands)) operand_count_error(entry, n);
      }
      encode(ins, out);
    } catch (const Error& e) {
      throw Error(at_line(static_cast<int>(i + 1)) + e.what());
    }
    out += kInstrBytes;
  }
  return image;
}

std::string render(const Listing& listing) {
  std::string out;
  out.reserve(20 * listing.lines.size());
  for (const Listing::Line& line : listing.lines) {
    if (line.is_label) {
      out += listing.names.at(line.label);
      out += ":\n";
      continue;
    }
    out += "    ";
    out += mnemonic_name(line.ins.op);
    if (is_jump_or_call(line.ins.op)) {
      out += ' ';
      out += listing.names.at(line.label);
    } else {
      append_operands(out, line.ins);
    }
    out += '\n';
  }
  return out;
}

std::vector<DisasmLine> disassemble(const Image& image) {
  // Reverse symbol table for labeling.
  std::map<std::uint32_t, std::string> by_addr;
  for (const auto& [name, a] : image.symbols) by_addr[a] = name;

  std::vector<DisasmLine> out;
  for (std::size_t off = 0; off + kInstrBytes <= image.bytes.size(); off += kInstrBytes) {
    DisasmLine line;
    line.address = image.base + static_cast<std::uint32_t>(off);
    const Instruction ins = decode(image.bytes.data() + off);
    line.text = to_string(ins);
    // Swap hex targets for label names when known.
    if (const auto it = by_addr.find(ins.target);
        it != by_addr.end() &&
        ((ins.op >= Mnemonic::Jmp && ins.op <= Mnemonic::Jns) || ins.op == Mnemonic::Call)) {
      line.text = mnemonic_name(ins.op) + " " + it->second;
    }
    if (const auto it = by_addr.find(line.address); it != by_addr.end()) {
      line.label = it->second;
    }
    out.push_back(line);
  }
  return out;
}

}  // namespace cs31::isa
