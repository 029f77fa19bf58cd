#include "ccomp/lexer.hpp"

#include <cctype>

#include "common/error.hpp"

namespace cs31::cc {

std::string token_name(TokKind kind) {
  switch (kind) {
    case TokKind::End: return "end of input";
    case TokKind::IntLit: return "integer literal";
    case TokKind::Ident: return "identifier";
    case TokKind::KwInt: return "'int'";
    case TokKind::KwIf: return "'if'";
    case TokKind::KwElse: return "'else'";
    case TokKind::KwWhile: return "'while'";
    case TokKind::KwFor: return "'for'";
    case TokKind::KwReturn: return "'return'";
    case TokKind::KwVoid: return "'void'";
    case TokKind::Plus: return "'+'";
    case TokKind::Minus: return "'-'";
    case TokKind::Star: return "'*'";
    case TokKind::Percent: return "'%'";
    case TokKind::Slash: return "'/'";
    case TokKind::Amp: return "'&'";
    case TokKind::Pipe: return "'|'";
    case TokKind::Caret: return "'^'";
    case TokKind::Tilde: return "'~'";
    case TokKind::Bang: return "'!'";
    case TokKind::Less: return "'<'";
    case TokKind::Greater: return "'>'";
    case TokKind::LessEq: return "'<='";
    case TokKind::GreaterEq: return "'>='";
    case TokKind::EqEq: return "'=='";
    case TokKind::BangEq: return "'!='";
    case TokKind::AmpAmp: return "'&&'";
    case TokKind::PipePipe: return "'||'";
    case TokKind::Assign: return "'='";
    case TokKind::LParen: return "'('";
    case TokKind::RParen: return "')'";
    case TokKind::LBrace: return "'{'";
    case TokKind::RBrace: return "'}'";
    case TokKind::Semi: return "';'";
    case TokKind::Comma: return "','";
    case TokKind::Shl: return "'<<'";
    case TokKind::Shr: return "'>>'";
  }
  return "?";
}

std::vector<Token> lex(const std::string& source) {
  std::vector<Token> tokens;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto push = [&](TokKind kind) {
    Token t;
    t.kind = kind;
    t.line = line;
    tokens.push_back(t);
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') { ++line; ++i; continue; }
    if (std::isspace(static_cast<unsigned char>(c))) { ++i; continue; }
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t v = 0;
      while (i < n && std::isdigit(static_cast<unsigned char>(source[i]))) {
        v = v * 10 + (source[i] - '0');
        if (v > 2147483647) {
          throw Error("line " + std::to_string(line) + ": integer literal overflows int");
        }
        ++i;
      }
      Token t;
      t.kind = TokKind::IntLit;
      t.value = static_cast<std::int32_t>(v);
      t.line = line;
      tokens.push_back(t);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_')) {
        word.push_back(source[i++]);
      }
      Token t;
      t.line = line;
      if (word == "int") t.kind = TokKind::KwInt;
      else if (word == "if") t.kind = TokKind::KwIf;
      else if (word == "else") t.kind = TokKind::KwElse;
      else if (word == "while") t.kind = TokKind::KwWhile;
      else if (word == "for") t.kind = TokKind::KwFor;
      else if (word == "return") t.kind = TokKind::KwReturn;
      else if (word == "void") t.kind = TokKind::KwVoid;
      else {
        t.kind = TokKind::Ident;
        t.text = word;
      }
      tokens.push_back(t);
      continue;
    }

    auto two = [&](char next) { return i + 1 < n && source[i + 1] == next; };
    switch (c) {
      case '+': push(TokKind::Plus); ++i; break;
      case '-': push(TokKind::Minus); ++i; break;
      case '*': push(TokKind::Star); ++i; break;
      case '%': push(TokKind::Percent); ++i; break;
      case '/': push(TokKind::Slash); ++i; break;
      case '~': push(TokKind::Tilde); ++i; break;
      case '^': push(TokKind::Caret); ++i; break;
      case '(': push(TokKind::LParen); ++i; break;
      case ')': push(TokKind::RParen); ++i; break;
      case '{': push(TokKind::LBrace); ++i; break;
      case '}': push(TokKind::RBrace); ++i; break;
      case ';': push(TokKind::Semi); ++i; break;
      case ',': push(TokKind::Comma); ++i; break;
      case '&':
        if (two('&')) { push(TokKind::AmpAmp); i += 2; }
        else { push(TokKind::Amp); ++i; }
        break;
      case '|':
        if (two('|')) { push(TokKind::PipePipe); i += 2; }
        else { push(TokKind::Pipe); ++i; }
        break;
      case '<':
        if (two('=')) { push(TokKind::LessEq); i += 2; }
        else if (two('<')) { push(TokKind::Shl); i += 2; }
        else { push(TokKind::Less); ++i; }
        break;
      case '>':
        if (two('=')) { push(TokKind::GreaterEq); i += 2; }
        else if (two('>')) { push(TokKind::Shr); i += 2; }
        else { push(TokKind::Greater); ++i; }
        break;
      case '=':
        if (two('=')) { push(TokKind::EqEq); i += 2; }
        else { push(TokKind::Assign); ++i; }
        break;
      case '!':
        if (two('=')) { push(TokKind::BangEq); i += 2; }
        else { push(TokKind::Bang); ++i; }
        break;
      default:
        throw Error("line " + std::to_string(line) + ": stray character '" +
                    std::string(1, c) + "'");
    }
  }
  push(TokKind::End);
  return tokens;
}

}  // namespace cs31::cc
