#include "ccomp/parser.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace cs31::cc {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ProgramAst parse_program() {
    ProgramAst program;
    std::set<std::string> names;
    while (peek().kind != TokKind::End) {
      Function fn = parse_function();
      if (names.contains(fn.name)) {
        throw Error("line " + std::to_string(fn.line) + ": duplicate function '" + fn.name +
                    "'");
      }
      names.insert(fn.name);
      program.functions.push_back(std::move(fn));
    }
    require(!program.functions.empty(), "program has no functions");
    return program;
  }

 private:
  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  Token eat(TokKind kind) {
    const Token& t = peek();
    if (t.kind != kind) {
      throw Error("line " + std::to_string(t.line) + ": expected " + token_name(kind) +
                  ", found " + token_name(t.kind));
    }
    ++pos_;
    return t;
  }

  bool eat_if(TokKind kind) {
    if (peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("line " + std::to_string(peek().line) + ": " + what);
  }

  // Nesting, held to kMaxNesting. depth_ counts the statements and
  // operands open on the parser's own stack; a Nest guards each
  // recursive descent. A left-associative chain (1+1+...+1) deepens the
  // tree without recursing, so every expression parse also leaves its
  // tree height in height_, and each node built checks it.
  int depth_ = 0;
  int height_ = 0;

  int check_nesting(int level) const {
    if (level > kMaxNesting) {
      fail("nesting deeper than the cap of " + std::to_string(kMaxNesting) + " levels");
    }
    return level;
  }

  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) { parser_.check_nesting(++parser_.depth_); }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  Function parse_function() {
    Function fn;
    fn.line = peek().line;
    if (!eat_if(TokKind::KwInt)) {
      eat(TokKind::KwVoid);
      fn.returns_void = true;
    }
    fn.name = eat(TokKind::Ident).text;
    eat(TokKind::LParen);
    if (!eat_if(TokKind::RParen)) {
      if (peek().kind == TokKind::KwVoid && peek(1).kind == TokKind::RParen) {
        eat(TokKind::KwVoid);
      } else {
        do {
          eat(TokKind::KwInt);
          fn.params.push_back(eat(TokKind::Ident).text);
        } while (eat_if(TokKind::Comma));
      }
      eat(TokKind::RParen);
    }
    eat(TokKind::LBrace);
    while (!eat_if(TokKind::RBrace)) {
      fn.body.push_back(parse_statement());
    }
    return fn;
  }

  StmtPtr parse_statement() {
    const Nest nest(*this);
    auto stmt = std::make_unique<Stmt>();
    stmt->line = peek().line;
    switch (peek().kind) {
      case TokKind::KwInt: {
        eat(TokKind::KwInt);
        stmt->kind = Stmt::Kind::Decl;
        stmt->name = eat(TokKind::Ident).text;
        if (eat_if(TokKind::Assign)) stmt->expr = parse_expression();
        eat(TokKind::Semi);
        return stmt;
      }
      case TokKind::KwIf: {
        eat(TokKind::KwIf);
        stmt->kind = Stmt::Kind::If;
        eat(TokKind::LParen);
        stmt->expr = parse_expression();
        eat(TokKind::RParen);
        stmt->then_branch = parse_statement();
        if (eat_if(TokKind::KwElse)) stmt->else_branch = parse_statement();
        return stmt;
      }
      case TokKind::KwWhile: {
        eat(TokKind::KwWhile);
        stmt->kind = Stmt::Kind::While;
        eat(TokKind::LParen);
        stmt->expr = parse_expression();
        eat(TokKind::RParen);
        stmt->loop_body = parse_statement();
        return stmt;
      }
      case TokKind::KwFor: {
        // Desugar: for (init; cond; step) body
        //   => { init; while (cond) { body; step; } }
        eat(TokKind::KwFor);
        eat(TokKind::LParen);
        StmtPtr init;
        if (!eat_if(TokKind::Semi)) {
          init = std::make_unique<Stmt>();
          init->line = peek().line;
          if (eat_if(TokKind::KwInt)) {
            init->kind = Stmt::Kind::Decl;
            init->name = eat(TokKind::Ident).text;
            if (eat_if(TokKind::Assign)) init->expr = parse_expression();
          } else {
            init->kind = Stmt::Kind::ExprStmt;
            init->expr = parse_expression();
          }
          eat(TokKind::Semi);
        }
        ExprPtr cond;
        if (peek().kind == TokKind::Semi) {
          cond = std::make_unique<Expr>();
          cond->kind = Expr::Kind::IntLit;
          cond->value = 1;
        } else {
          cond = parse_expression();
        }
        eat(TokKind::Semi);
        ExprPtr step;
        if (peek().kind != TokKind::RParen) step = parse_expression();
        eat(TokKind::RParen);
        StmtPtr body = parse_statement();

        auto loop_body = std::make_unique<Stmt>();
        loop_body->kind = Stmt::Kind::Block;
        loop_body->line = stmt->line;
        loop_body->body.push_back(std::move(body));
        if (step) {
          auto step_stmt = std::make_unique<Stmt>();
          step_stmt->kind = Stmt::Kind::ExprStmt;
          step_stmt->line = stmt->line;
          step_stmt->expr = std::move(step);
          loop_body->body.push_back(std::move(step_stmt));
        }
        auto loop = std::make_unique<Stmt>();
        loop->kind = Stmt::Kind::While;
        loop->line = stmt->line;
        loop->expr = std::move(cond);
        loop->loop_body = std::move(loop_body);

        stmt->kind = Stmt::Kind::Block;
        if (init) stmt->body.push_back(std::move(init));
        stmt->body.push_back(std::move(loop));
        return stmt;
      }
      case TokKind::KwReturn: {
        eat(TokKind::KwReturn);
        stmt->kind = Stmt::Kind::Return;
        if (peek().kind != TokKind::Semi) stmt->expr = parse_expression();
        eat(TokKind::Semi);
        return stmt;
      }
      case TokKind::LBrace: {
        eat(TokKind::LBrace);
        stmt->kind = Stmt::Kind::Block;
        while (!eat_if(TokKind::RBrace)) stmt->body.push_back(parse_statement());
        return stmt;
      }
      default: {
        stmt->kind = Stmt::Kind::ExprStmt;
        stmt->expr = parse_expression();
        eat(TokKind::Semi);
        return stmt;
      }
    }
  }

  // Precedence climbing: assignment (right-assoc) > || > && > bitor >
  // bitxor > bitand > equality > relational > shift > additive >
  // multiplicative > unary > primary.
  ExprPtr parse_expression() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    // Lookahead: Ident '=' starts an assignment (no lvalue expressions
    // beyond plain variables in mini-C).
    if (peek().kind == TokKind::Ident && peek(1).kind == TokKind::Assign) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Assign;
      e->line = peek().line;
      e->name = eat(TokKind::Ident).text;
      eat(TokKind::Assign);
      const Nest nest(*this);
      e->rhs = parse_assignment();
      height_ = check_nesting(height_ + 1);
      return e;
    }
    return parse_binary(0);
  }

  struct Level {
    TokKind tok;
    BinOp op;
    int prec;
  };

  static const Level* level_for(TokKind kind) {
    static const Level kLevels[] = {
        {TokKind::PipePipe, BinOp::LogicalOr, 1},
        {TokKind::AmpAmp, BinOp::LogicalAnd, 2},
        {TokKind::Pipe, BinOp::BitOr, 3},
        {TokKind::Caret, BinOp::BitXor, 4},
        {TokKind::Amp, BinOp::BitAnd, 5},
        {TokKind::EqEq, BinOp::Eq, 6},
        {TokKind::BangEq, BinOp::Ne, 6},
        {TokKind::Less, BinOp::Lt, 7},
        {TokKind::Greater, BinOp::Gt, 7},
        {TokKind::LessEq, BinOp::Le, 7},
        {TokKind::GreaterEq, BinOp::Ge, 7},
        {TokKind::Shl, BinOp::Shl, 8},
        {TokKind::Shr, BinOp::Shr, 8},
        {TokKind::Plus, BinOp::Add, 9},
        {TokKind::Minus, BinOp::Sub, 9},
        {TokKind::Star, BinOp::Mul, 10},
    };
    for (const Level& l : kLevels) {
      if (l.tok == kind) return &l;
    }
    return nullptr;
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    int height = height_;
    for (;;) {
      if (peek().kind == TokKind::Slash || peek().kind == TokKind::Percent) {
        fail("'/' and '%' are not supported: the teaching ISA has no idiv "
             "(see DESIGN.md)");
      }
      const Level* level = level_for(peek().kind);
      if (level == nullptr || level->prec < min_prec) {
        height_ = height;
        return lhs;
      }
      const int line = peek().line;
      ++pos_;
      ExprPtr rhs;
      {
        const Nest nest(*this);
        rhs = parse_binary(level->prec + 1);
      }
      height = check_nesting(std::max(height, height_) + 1);
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Binary;
      e->bin_op = level->op;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      e->line = line;
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    if (t.kind == TokKind::Minus || t.kind == TokKind::Tilde ||
        t.kind == TokKind::Bang) {
      ++pos_;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::Unary;
      e->line = t.line;
      e->un_op = t.kind == TokKind::Minus  ? UnOp::Neg
                 : t.kind == TokKind::Tilde ? UnOp::BitNot
                                            : UnOp::LogicalNot;
      const Nest nest(*this);
      e->lhs = parse_unary();
      height_ = check_nesting(height_ + 1);
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    auto e = std::make_unique<Expr>();
    e->line = t.line;
    height_ = 1;
    switch (t.kind) {
      case TokKind::IntLit:
        ++pos_;
        e->kind = Expr::Kind::IntLit;
        e->value = t.value;
        return e;
      case TokKind::Ident: {
        ++pos_;
        if (eat_if(TokKind::LParen)) {
          e->kind = Expr::Kind::Call;
          e->name = t.text;
          if (!eat_if(TokKind::RParen)) {
            const Nest nest(*this);
            int height = 0;
            do {
              e->args.push_back(parse_expression());
              height = std::max(height, height_);
            } while (eat_if(TokKind::Comma));
            eat(TokKind::RParen);
            height_ = check_nesting(height + 1);
          }
          return e;
        }
        e->kind = Expr::Kind::Var;
        e->name = t.text;
        return e;
      }
      case TokKind::LParen: {
        ++pos_;
        const Nest nest(*this);
        ExprPtr inner = parse_expression();
        eat(TokKind::RParen);
        return inner;
      }
      default:
        fail("expected an expression, found " + token_name(t.kind));
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

ProgramAst parse(const std::string& source) {
  return Parser(lex(source)).parse_program();
}

}  // namespace cs31::cc
