#include "xq/parser.h"

#include <cctype>
#include <unordered_set>

#include "common/str_util.h"

namespace rox::xq {

namespace {

enum class Tok : uint8_t {
  kEof,
  kIdent,     // let, for, where, return, and, in, doc, names
  kVariable,  // $x
  kString,    // "..." or '...'
  kNumber,    // 123, 1.5
  kSlash,     // /
  kSlashSlash,  // //
  kAt,        // @
  kDot,       // .
  kDotDot,    // ..
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kAssign,    // :=
  kEq,        // =
  kNe,        // !=
  kLt,
  kLe,
  kGt,
  kGe,
  kStar,
};

struct Token {
  Tok kind = Tok::kEof;
  std::string text;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view s) : s_(s) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    for (;;) {
      SkipSpaceAndComments();
      Token t;
      t.line = line_;
      t.col = col_;
      if (AtEnd()) {
        t.kind = Tok::kEof;
        out.push_back(t);
        return out;
      }
      char c = Peek();
      if (c == '$') {
        Take();
        if (AtEnd() || !IsNameStart(Peek())) return Err("expected name after $");
        t.kind = Tok::kVariable;
        t.text = TakeName();
      } else if (IsNameStart(c)) {
        t.kind = Tok::kIdent;
        t.text = TakeName();
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        t.kind = Tok::kNumber;
        while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                            Peek() == '.')) {
          t.text.push_back(Take());
        }
      } else if (c == '"' || c == '\'') {
        char quote = Take();
        t.kind = Tok::kString;
        while (!AtEnd() && Peek() != quote) t.text.push_back(Take());
        if (AtEnd()) return Err("unterminated string literal");
        Take();
      } else {
        Take();
        switch (c) {
          case '/':
            if (!AtEnd() && Peek() == '/') {
              Take();
              t.kind = Tok::kSlashSlash;
            } else {
              t.kind = Tok::kSlash;
            }
            break;
          case '@':
            t.kind = Tok::kAt;
            break;
          case '.':
            if (!AtEnd() && Peek() == '.') {
              Take();
              t.kind = Tok::kDotDot;
            } else {
              t.kind = Tok::kDot;
            }
            break;
          case '(':
            t.kind = Tok::kLParen;
            break;
          case ')':
            t.kind = Tok::kRParen;
            break;
          case '[':
            t.kind = Tok::kLBracket;
            break;
          case ']':
            t.kind = Tok::kRBracket;
            break;
          case ',':
            t.kind = Tok::kComma;
            break;
          case ':':
            if (!AtEnd() && Peek() == '=') {
              Take();
              t.kind = Tok::kAssign;
            } else {
              return Err("expected := after :");
            }
            break;
          case '=':
            t.kind = Tok::kEq;
            break;
          case '!':
            if (!AtEnd() && Peek() == '=') {
              Take();
              t.kind = Tok::kNe;
            } else {
              return Err("expected != after !");
            }
            break;
          case '<':
            if (!AtEnd() && Peek() == '=') {
              Take();
              t.kind = Tok::kLe;
            } else {
              t.kind = Tok::kLt;
            }
            break;
          case '>':
            if (!AtEnd() && Peek() == '=') {
              Take();
              t.kind = Tok::kGe;
            } else {
              t.kind = Tok::kGt;
            }
            break;
          case '*':
            t.kind = Tok::kStar;
            break;
          default:
            return Err(StrCat("unexpected character '", std::string(1, c),
                              "'"));
        }
      }
      out.push_back(std::move(t));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= s_.size(); }
  char Peek() const { return s_[pos_]; }
  char Take() {
    char c = s_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.' || c == ':';
  }
  std::string TakeName() {
    std::string out;
    while (!AtEnd() && IsNameChar(Peek())) out.push_back(Take());
    return out;
  }
  void SkipSpaceAndComments() {
    for (;;) {
      while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
        Take();
      }
      // XQuery comments: (: ... :)
      if (pos_ + 1 < s_.size() && s_[pos_] == '(' && s_[pos_ + 1] == ':') {
        Take();
        Take();
        while (pos_ + 1 < s_.size() &&
               !(s_[pos_] == ':' && s_[pos_ + 1] == ')')) {
          Take();
        }
        if (pos_ + 1 < s_.size()) {
          Take();
          Take();
        }
        continue;
      }
      return;
    }
  }
  Status Err(std::string msg) {
    return Status::ParseError(StrCat(line_, ":", col_, ": ", msg));
  }

  std::string_view s_;
  size_t pos_ = 0;
  int line_ = 1, col_ = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<AstQuery> Run() {
    AstQuery q;
    for (;;) {
      if (AtKeyword("let")) {
        Advance();
        ROX_ASSIGN_OR_RETURN(AstLet let, ParseLet());
        q.lets.push_back(std::move(let));
      } else if (AtKeyword("for")) {
        Advance();
        for (;;) {
          ROX_ASSIGN_OR_RETURN(AstFor f, ParseForBinding());
          q.fors.push_back(std::move(f));
          if (!At(Tok::kComma)) break;
          Advance();
        }
      } else {
        break;
      }
    }
    if (q.fors.empty()) return Err("query needs at least one for clause");
    if (AtKeyword("where")) {
      Advance();
      for (;;) {
        ROX_ASSIGN_OR_RETURN(AstComparison cmp, ParseComparison());
        q.where.push_back(std::move(cmp));
        if (!AtKeyword("and")) break;
        Advance();
      }
    }
    if (!AtKeyword("return")) return Err("expected 'return'");
    Advance();
    if (!At(Tok::kVariable)) {
      return Err("return clause must be a bound variable");
    }
    q.return_variable = Cur().text;
    Advance();
    if (!At(Tok::kEof)) return Err("trailing input after return clause");
    return q;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  bool At(Tok k) const { return Cur().kind == k; }
  bool AtKeyword(std::string_view kw) const {
    return Cur().kind == Tok::kIdent && Cur().text == kw;
  }
  void Advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }
  Status Err(std::string msg) const { return ErrAt(Cur(), std::move(msg)); }
  static Status ErrAt(const Token& t, std::string msg) {
    return Status::ParseError(StrCat(t.line, ":", t.col, ": ", msg));
  }

  Result<AstLet> ParseLet() {
    AstLet let;
    if (!At(Tok::kVariable)) return Err("expected $variable after 'let'");
    let.variable = Cur().text;
    Advance();
    if (!At(Tok::kAssign)) return Err("expected ':='");
    Advance();
    ROX_ASSIGN_OR_RETURN(let.value, ParsePathExpr());
    bound_.insert(let.variable);
    return let;
  }

  Result<AstFor> ParseForBinding() {
    AstFor f;
    if (!At(Tok::kVariable)) return Err("expected $variable in for clause");
    f.variable = Cur().text;
    Advance();
    if (!AtKeyword("in")) return Err("expected 'in'");
    Advance();
    ROX_ASSIGN_OR_RETURN(f.domain, ParsePathExpr());
    bound_.insert(f.variable);
    return f;
  }

  Result<AstPathExpr> ParsePathExpr() {
    AstPathExpr p;
    if (AtKeyword("doc") || AtKeyword("fn:doc")) {
      Advance();
      if (!At(Tok::kLParen)) return Err("expected '(' after doc");
      Advance();
      if (!At(Tok::kString)) return Err("doc() needs a string literal url");
      p.doc_url = Cur().text;
      Advance();
      if (!At(Tok::kRParen)) return Err("expected ')'");
      Advance();
    } else if (At(Tok::kVariable)) {
      p.variable = Cur().text;
      Advance();
    } else {
      return Err("path must start with doc(\"...\") or a variable");
    }
    while (At(Tok::kSlash) || At(Tok::kSlashSlash)) {
      AstPathExpr::PredicatedStep ps;
      ROX_ASSIGN_OR_RETURN(ps.step, ParseStep());
      while (At(Tok::kLBracket)) {
        Advance();
        // Standard XQuery precedence: `and` binds tighter than `or`,
        // so each `or` branch is a conjunction of predicates and
        // `[a and b or c]` parses as (a AND b) OR c. A single-branch
        // group is a plain conjunction (`[a and b]` == `[a][b]`).
        AstPredicateGroup group;
        for (;;) {
          std::vector<AstPredicate> conjunction;
          for (;;) {
            ROX_ASSIGN_OR_RETURN(AstPredicate pred, ParsePredicate());
            conjunction.push_back(std::move(pred));
            if (!AtKeyword("and")) break;
            Advance();
          }
          group.alternatives.push_back(std::move(conjunction));
          if (!AtKeyword("or")) break;
          Advance();
        }
        ps.predicate_groups.push_back(std::move(group));
        if (!At(Tok::kRBracket)) return Err("expected ']'");
        Advance();
      }
      p.steps.push_back(std::move(ps));
    }
    return p;
  }

  // Maps an explicit axis name ("ancestor", "following-sibling", ...)
  // to the Axis enum; returns false for unknown names. Note the lexer
  // folds "axis::name" into one identifier because ':' is a name char —
  // we split on the first "::" here.
  static bool LookupAxis(std::string_view name, Axis* out) {
    struct Entry {
      const char* name;
      Axis axis;
    };
    static constexpr Entry kAxes[] = {
        {"child", Axis::kChild},
        {"descendant", Axis::kDescendant},
        {"descendant-or-self", Axis::kDescendantOrSelf},
        {"parent", Axis::kParent},
        {"ancestor", Axis::kAncestor},
        {"ancestor-or-self", Axis::kAncestorOrSelf},
        {"following", Axis::kFollowing},
        {"preceding", Axis::kPreceding},
        {"following-sibling", Axis::kFollowingSibling},
        {"preceding-sibling", Axis::kPrecedingSibling},
        {"self", Axis::kSelf},
        {"attribute", Axis::kAttribute},
    };
    for (const Entry& e : kAxes) {
      if (name == e.name) {
        *out = e.axis;
        return true;
      }
    }
    return false;
  }

  // Parses "/" or "//" followed by a node test, with optional explicit
  // axis ("/ancestor::venue", "//following-sibling::x"). The leading
  // separator must be current.
  Result<AstStep> ParseStep() {
    AstStep s;
    bool descend = At(Tok::kSlashSlash);
    Advance();
    s.axis = descend ? Axis::kDescendant : Axis::kChild;
    if (At(Tok::kAt)) return ParseAttributeStep();  // always attribute-axis
    if (At(Tok::kStar)) {
      Advance();
      s.test = AstStep::Test::kAnyElement;
      return s;
    }
    if (!At(Tok::kIdent)) return Err("expected node test");
    std::string name = Cur().text;
    Advance();
    // Explicit axis: the lexer keeps "axis::test" as one identifier.
    size_t sep = name.find("::");
    if (sep != std::string::npos) {
      if (descend) {
        return Err("'//' cannot be combined with an explicit axis");
      }
      std::string axis_name = name.substr(0, sep);
      if (!LookupAxis(axis_name, &s.axis)) {
        return Err(StrCat("unknown axis '", axis_name, "'"));
      }
      name = name.substr(sep + 2);
      if (name.empty()) {
        // "axis::*": the lexer stops the identifier before '*'.
        if (At(Tok::kStar)) {
          Advance();
          s.test = AstStep::Test::kAnyElement;
          return s;
        }
        return Err("expected node test after axis");
      }
      if (s.axis == Axis::kAttribute) {
        s.test = AstStep::Test::kAttribute;
        s.name = std::move(name);
        return s;
      }
    }
    if (name == "text" && At(Tok::kLParen)) {
      Advance();
      if (!At(Tok::kRParen)) return Err("expected ')' after text(");
      Advance();
      s.test = AstStep::Test::kText;
      return s;
    }
    s.test = AstStep::Test::kElement;
    s.name = std::move(name);
    return s;
  }

  // "@name": an attribute-axis step. The '@' must be current.
  Result<AstStep> ParseAttributeStep() {
    Advance();
    if (!At(Tok::kIdent)) return Err("expected attribute name after @");
    AstStep s;
    s.test = AstStep::Test::kAttribute;
    s.axis = Axis::kAttribute;
    s.name = Cur().text;
    Advance();
    return s;
  }

  Result<AstPredicate> ParsePredicate() {
    AstPredicate pred;
    if (At(Tok::kAt)) {
      // "@name" abbreviates the relative attribute step "./@name".
      ROX_ASSIGN_OR_RETURN(AstStep s, ParseAttributeStep());
      pred.path.push_back(std::move(s));
    } else if (At(Tok::kDot)) {
      Advance();
    } else {
      return Err("predicate must start with '.' or '@'");
    }
    while (At(Tok::kSlash) || At(Tok::kSlashSlash)) {
      ROX_ASSIGN_OR_RETURN(AstStep s, ParseStep());
      pred.path.push_back(std::move(s));
    }
    if (pred.path.empty()) return Err("empty predicate path");
    if (std::optional<CmpOp> op = TokToCmp(Cur().kind)) {
      pred.op = *op;
      Advance();
      if (At(Tok::kNumber)) {
        pred.literal = Cur().text;
        pred.literal_is_number = true;
      } else if (At(Tok::kString)) {
        pred.literal = Cur().text;
        pred.literal_is_number = false;
      } else {
        return Err("expected literal after comparison operator");
      }
      Advance();
    }
    return pred;
  }

  // Maps a comparison token to its operator; nullopt for other tokens.
  static std::optional<CmpOp> TokToCmp(Tok k) {
    switch (k) {
      case Tok::kEq:
        return CmpOp::kEq;
      case Tok::kNe:
        return CmpOp::kNe;
      case Tok::kLt:
        return CmpOp::kLt;
      case Tok::kLe:
        return CmpOp::kLe;
      case Tok::kGt:
        return CmpOp::kGt;
      case Tok::kGe:
        return CmpOp::kGe;
      default:
        return std::nullopt;
    }
  }

  // One side of a where comparison: a path rooted at a bound variable.
  // Malformed operands get precise, position-carrying diagnoses here
  // rather than the generic path-parse error.
  Result<AstPathExpr> ParseComparisonOperand() {
    const Token start = Cur();
    if (At(Tok::kNumber) || At(Tok::kString)) {
      return ErrAt(start,
                   StrCat("where comparison operand must be a path from a "
                          "bound variable, not the literal '",
                          start.text, "'"));
    }
    if (At(Tok::kVariable) && !bound_.contains(start.text)) {
      return ErrAt(start, StrCat("unbound variable $", start.text,
                                 " in where clause"));
    }
    ROX_ASSIGN_OR_RETURN(AstPathExpr p, ParsePathExpr());
    if (p.variable.empty()) {
      return ErrAt(start,
                   "where comparisons must start from bound variables "
                   "(doc(...) operands are not join paths)");
    }
    return p;
  }

  Result<AstComparison> ParseComparison() {
    AstComparison cmp;
    ROX_ASSIGN_OR_RETURN(cmp.lhs, ParseComparisonOperand());
    std::optional<CmpOp> op = TokToCmp(Cur().kind);
    if (!op.has_value()) {
      return Err("expected a comparison operator (=, !=, <, <=, >, >=)");
    }
    cmp.op = *op;
    Advance();
    ROX_ASSIGN_OR_RETURN(cmp.rhs, ParseComparisonOperand());
    return cmp;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  // Variables bound by preceding let/for clauses, for precise unbound-
  // variable diagnoses in the where clause.
  std::unordered_set<std::string> bound_;
};

}  // namespace

Result<AstQuery> ParseXQuery(std::string_view text) {
  Lexer lexer(text);
  ROX_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  Parser parser(std::move(tokens));
  return parser.Run();
}

}  // namespace rox::xq
