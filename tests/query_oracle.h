// Brute-force reference evaluator for the XQuery fragment the engine
// runs (xq/ast.h): the reference of every query-level differential
// test. It evaluates an xq::AstQuery against a Corpus by walking the
// Document arrays — nested loops over the for-variables, each location
// step by testing every candidate node with NodeMatchesStep (the
// per-pair axis test that kernel_invariant_test pins every structural
// kernel to), comparisons on node strings and full-string strtod
// numbers. It uses nothing else of the engine: no join graph,
// compiler, ROX state, index lookup, join kernel, result table or
// view, plan tail or StringPool::NumericValue, so a fault in any of
// them cannot be shared with the code it checks.
//
// Semantics (the engine's, DESIGN.md §11):
//  * `let $v := doc("u")` binds u's document node (pre 0). A name the
//    corpus cannot resolve is its NotFound; a let bound to a path is
//    Unimplemented.
//  * A path is a sorted, duplicate-free node set, evaluated step by
//    step. A step keeps node s when NodeMatchesStep holds for the
//    step's axis and kind, and s's name equals the test's name as a
//    string. `*` is Unimplemented.
//  * `[p]` holds when p reaches a node. `[p op lit]` holds when some
//    reached node, atomized (an element stands for its text()
//    children), has a value v with `v op lit`: `=` and `!=` compare
//    strings, `<`, `<=`, `>` and `>=` compare numbers. A value that is
//    not a number never matches, and a quoted literal under a range
//    operator is Unimplemented. `or` binds looser than `and`, stacked
//    brackets conjoin, and an `or` whose branches are not single
//    comparisons of one relative path is Unimplemented.
//  * `where l op r` holds when some atomized node of l and some of r
//    compare true by the same rules. An operand that denotes a
//    document root is InvalidArgument.
//  * The for-variables loop in declaration order; a domain may start
//    from an earlier variable. Each comparison is checked as soon as
//    its last variable is bound, with operand values memoized per
//    binding. The satisfying tuples are sorted by pre, column by
//    column, de-duplicated, and the return variable's column is the
//    answer. A for over a bare document root is Unimplemented.
//  * Errors surface in the compiler's order: the lets, each for (its
//    source, then steps and predicates), each where operand, the
//    return variable, self-comparisons, bare-root fors.
//
// Outside the fragment, reported as FailedPrecondition: a where
// operand or return variable that starts from a let variable.

#ifndef ROX_TESTS_QUERY_ORACLE_H_
#define ROX_TESTS_QUERY_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/structural_join.h"
#include "index/corpus.h"
#include "xq/ast.h"

namespace rox {

namespace query_oracle {

// A string's number: a full-string strtod parse that is not NaN.
inline std::optional<double> NumberOf(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || std::isnan(v)) return std::nullopt;
  return v;
}

inline bool CompareValues(std::string_view l, CmpOp op, std::string_view r) {
  if (op == CmpOp::kEq) return l == r;
  if (op == CmpOp::kNe) return l != r;
  std::optional<double> a = NumberOf(l), b = NumberOf(r);
  if (!a.has_value() || !b.has_value()) return false;
  switch (op) {
    case CmpOp::kLt:
      return *a < *b;
    case CmpOp::kLe:
      return *a <= *b;
    case CmpOp::kGt:
      return *a > *b;
    case CmpOp::kGe:
      return *a >= *b;
    default:
      return false;
  }
}

inline bool IsRangeOp(CmpOp op) { return op != CmpOp::kEq && op != CmpOp::kNe; }

inline bool StepMatches(const Document& doc, Pre c, Pre s,
                        const xq::AstStep& step) {
  StepSpec spec;
  spec.axis = step.axis;
  switch (step.test) {
    case xq::AstStep::Test::kElement:
      spec.kind = KindTest::kElem;
      break;
    case xq::AstStep::Test::kText:
      spec.kind = KindTest::kText;
      break;
    case xq::AstStep::Test::kAttribute:
      spec.kind = KindTest::kAttr;
      break;
    case xq::AstStep::Test::kAnyElement:
      return false;  // rejected before evaluation
  }
  if (!NodeMatchesStep(doc, c, s, spec)) return false;
  return step.test == xq::AstStep::Test::kText ||
         (doc.Name(s) != kInvalidStringId && doc.NameStr(s) == step.name);
}

// The nodes `step` reaches from `from`, sorted and duplicate-free.
inline std::vector<Pre> Step(const Document& doc, const std::vector<Pre>& from,
                             const xq::AstStep& step) {
  std::vector<Pre> out;
  for (Pre c : from) {
    // Downward axes stay inside c's subtree; the rest scan everything.
    Pre lo = 0, hi = doc.NodeCount();
    switch (step.axis) {
      case Axis::kSelf:
      case Axis::kChild:
      case Axis::kAttribute:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        lo = c;
        hi = c + doc.Size(c) + 1;
        break;
      default:
        break;
    }
    for (Pre s = lo; s < hi; ++s) {
      if (StepMatches(doc, c, s, step)) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Atomized values of `nodes`: an element stands for its text()
// children, a text or attribute node for its own value.
inline std::vector<std::string_view> Values(const Document& doc,
                                            const std::vector<Pre>& nodes) {
  std::vector<std::string_view> out;
  for (Pre n : nodes) {
    switch (doc.Kind(n)) {
      case NodeKind::kElem:
        for (Pre t = n + 1; t <= n + doc.Size(n); ++t) {
          if (NodeMatchesStep(doc, n, t, StepSpec::ChildText())) {
            out.push_back(doc.ValueStr(t));
          }
        }
        break;
      case NodeKind::kText:
      case NodeKind::kAttr:
        out.push_back(doc.ValueStr(n));
        break;
      default:
        break;
    }
  }
  return out;
}

class Evaluator {
 public:
  Evaluator(const Corpus& corpus, const xq::AstQuery& query)
      : corpus_(corpus), q_(query) {}

  Result<std::vector<Pre>> Run() {
    ROX_RETURN_IF_ERROR(Check());
    std::vector<Pre> tuple(q_.fors.size());
    Enumerate(0, tuple);
    std::sort(tuples_.begin(), tuples_.end());
    tuples_.erase(std::unique(tuples_.begin(), tuples_.end()), tuples_.end());
    size_t ret = vars_.at(q_.return_variable).index;
    std::vector<Pre> out;
    out.reserve(tuples_.size());
    for (const std::vector<Pre>& t : tuples_) out.push_back(t[ret]);
    return out;
  }

 private:
  struct Var {
    bool is_for = false;
    size_t index = 0;  // for-variables: declaration position
    DocId doc = kInvalidDocId;
    bool root = false;        // denotes a document node
    bool value_node = false;  // a text or attribute variable
  };

  // A path's source: doc("u") or a bound variable.
  Result<Var> Source(const xq::AstPathExpr& p) const {
    if (!p.doc_url.empty()) {
      ROX_ASSIGN_OR_RETURN(DocId d, corpus_.Resolve(p.doc_url));
      return Var{.doc = d, .root = true};
    }
    auto it = vars_.find(p.variable);
    if (it == vars_.end()) {
      return Status::InvalidArgument("oracle: unbound variable $" +
                                     p.variable);
    }
    return it->second;
  }

  static bool HasWildcard(const std::vector<xq::AstStep>& path) {
    for (const xq::AstStep& s : path) {
      if (s.test == xq::AstStep::Test::kAnyElement) return true;
    }
    return false;
  }

  static Status CheckLiteral(const xq::AstPredicate& pred) {
    if (!IsRangeOp(*pred.op)) return Status::Ok();
    if (!pred.literal_is_number) {
      return Status::Unimplemented("oracle: quoted literal under a range op");
    }
    if (!NumberOf(pred.literal).has_value()) {
      return Status::InvalidArgument("oracle: literal is not a number");
    }
    return Status::Ok();
  }

  static bool SamePath(const std::vector<xq::AstStep>& a,
                       const std::vector<xq::AstStep>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].axis != b[i].axis || a[i].test != b[i].test ||
          a[i].name != b[i].name) {
        return false;
      }
    }
    return true;
  }

  static Status CheckGroup(const xq::AstPredicateGroup& group) {
    if (group.alternatives.size() == 1) {
      for (const xq::AstPredicate& pred : group.alternatives[0]) {
        if (pred.op.has_value()) ROX_RETURN_IF_ERROR(CheckLiteral(pred));
        if (HasWildcard(pred.path)) {
          return Status::Unimplemented("oracle: wildcard step");
        }
      }
      return Status::Ok();
    }
    const std::vector<xq::AstStep>& path = group.alternatives[0][0].path;
    for (const std::vector<xq::AstPredicate>& branch : group.alternatives) {
      if (branch.size() != 1 || !branch[0].op.has_value() ||
          !SamePath(branch[0].path, path)) {
        return Status::Unimplemented("oracle: unsupported 'or' shape");
      }
      ROX_RETURN_IF_ERROR(CheckLiteral(branch[0]));
    }
    if (HasWildcard(path)) return Status::Unimplemented("oracle: wildcard");
    return Status::Ok();
  }

  static Status CheckSteps(const xq::AstPathExpr& p) {
    for (const auto& ps : p.steps) {
      if (ps.step.test == xq::AstStep::Test::kAnyElement) {
        return Status::Unimplemented("oracle: wildcard step");
      }
      for (const xq::AstPredicateGroup& g : ps.predicate_groups) {
        ROX_RETURN_IF_ERROR(CheckGroup(g));
      }
    }
    return Status::Ok();
  }

  static bool EndsInValueNode(const xq::AstPathExpr& p, const Var& src) {
    if (p.steps.empty()) return src.value_node;
    xq::AstStep::Test t = p.steps.back().step.test;
    return t == xq::AstStep::Test::kText || t == xq::AstStep::Test::kAttribute;
  }

  // The compile- and run-time errors, in the engine's order.
  Status Check() {
    for (const xq::AstLet& let : q_.lets) {
      if (let.value.doc_url.empty() || !let.value.steps.empty()) {
        return Status::Unimplemented("oracle: let must bind doc()");
      }
      ROX_ASSIGN_OR_RETURN(DocId d, corpus_.Resolve(let.value.doc_url));
      if (vars_.contains(let.variable)) {
        return Status::InvalidArgument("oracle: variable bound twice");
      }
      vars_[let.variable] = Var{.doc = d, .root = true};
    }
    for (size_t i = 0; i < q_.fors.size(); ++i) {
      const xq::AstFor& f = q_.fors[i];
      ROX_ASSIGN_OR_RETURN(Var src, Source(f.domain));
      ROX_RETURN_IF_ERROR(CheckSteps(f.domain));
      if (vars_.contains(f.variable)) {
        return Status::InvalidArgument("oracle: variable bound twice");
      }
      vars_[f.variable] =
          Var{.is_for = true,
              .index = i,
              .doc = src.doc,
              .root = src.root && f.domain.steps.empty(),
              .value_node = EndsInValueNode(f.domain, src)};
    }
    bool self_comparison = false;
    bool let_operand = false;
    for (const xq::AstComparison& cmp : q_.where) {
      for (const xq::AstPathExpr* side : {&cmp.lhs, &cmp.rhs}) {
        ROX_ASSIGN_OR_RETURN(Var src, Source(*side));
        ROX_RETURN_IF_ERROR(CheckSteps(*side));
        if (src.root && side->steps.empty()) {
          return Status::InvalidArgument(
              "oracle: where operand denotes a document root");
        }
        let_operand |= !src.is_for;
      }
      // Two step-less operands on one text/attribute variable lower to a
      // self-loop edge.
      self_comparison |= cmp.lhs.steps.empty() && cmp.rhs.steps.empty() &&
                         !cmp.lhs.variable.empty() &&
                         cmp.lhs.variable == cmp.rhs.variable &&
                         vars_.at(cmp.lhs.variable).value_node;
    }
    auto ret = vars_.find(q_.return_variable);
    if (ret == vars_.end()) {
      return Status::InvalidArgument("oracle: return variable is not bound");
    }
    if (self_comparison) {
      return Status::InvalidArgument("oracle: self-comparison");
    }
    if (let_operand || !ret->second.is_for) {
      return Status::FailedPrecondition(
          "oracle: where operands and the return variable must start from "
          "a for variable");
    }
    for (const xq::AstFor& f : q_.fors) {
      if (vars_.at(f.variable).root) {
        return Status::Unimplemented("oracle: for over a bare document root");
      }
    }
    // Each comparison is checked once its last variable is bound.
    checks_at_.resize(q_.fors.size());
    for (size_t c = 0; c < q_.where.size(); ++c) {
      size_t level = std::max(vars_.at(q_.where[c].lhs.variable).index,
                              vars_.at(q_.where[c].rhs.variable).index);
      checks_at_[level].push_back(c);
    }
    return Status::Ok();
  }

  // The node path `p` starts from under `tuple`: a for variable's
  // binding, or a document node. Valid once Check() passed.
  Pre StartNode(const xq::AstPathExpr& p, const std::vector<Pre>& tuple) const {
    if (!p.doc_url.empty()) return 0;
    const Var& src = vars_.at(p.variable);
    return src.is_for ? tuple[src.index] : Pre{0};
  }

  bool PredicateHolds(const Document& doc, Pre n,
                      const xq::AstPredicate& pred) const {
    std::vector<Pre> reached = {n};
    for (const xq::AstStep& s : pred.path) reached = Step(doc, reached, s);
    if (!pred.op.has_value()) return !reached.empty();
    for (std::string_view v : Values(doc, reached)) {
      if (CompareValues(v, *pred.op, pred.literal)) return true;
    }
    return false;
  }

  bool GroupHolds(const Document& doc, Pre n,
                  const xq::AstPredicateGroup& group) const {
    for (const std::vector<xq::AstPredicate>& branch : group.alternatives) {
      bool all = true;
      for (const xq::AstPredicate& pred : branch) {
        all = all && PredicateHolds(doc, n, pred);
      }
      if (all) return true;
    }
    return false;
  }

  std::vector<Pre> Walk(const Document& doc, Pre start,
                        const xq::AstPathExpr& p) const {
    std::vector<Pre> nodes = {start};
    for (const auto& ps : p.steps) {
      nodes = Step(doc, nodes, ps.step);
      std::erase_if(nodes, [&](Pre n) {
        for (const xq::AstPredicateGroup& g : ps.predicate_groups) {
          if (!GroupHolds(doc, n, g)) return true;
        }
        return false;
      });
    }
    return nodes;
  }

  // The domain of for-variable `i` under the bindings in `tuple`,
  // memoized per start node.
  const std::vector<Pre>& Domain(size_t i, const std::vector<Pre>& tuple) {
    const xq::AstPathExpr& p = q_.fors[i].domain;
    const Var& v = vars_.at(q_.fors[i].variable);
    Pre start = StartNode(p, tuple);
    uint64_t key = (static_cast<uint64_t>(i) << 32) | start;
    auto it = domains_.find(key);
    if (it == domains_.end()) {
      it = domains_.emplace(key, Walk(corpus_.doc(v.doc), start, p)).first;
    }
    return it->second;
  }

  // Atomized values of one comparison side, memoized per binding.
  const std::vector<std::string_view>& OperandValues(
      size_t c, int side, const std::vector<Pre>& tuple) {
    const xq::AstPathExpr& p = side == 0 ? q_.where[c].lhs : q_.where[c].rhs;
    const Var& src = vars_.at(p.variable);
    Pre start = StartNode(p, tuple);
    uint64_t key = (static_cast<uint64_t>(2 * c + side) << 32) | start;
    auto it = operands_.find(key);
    if (it == operands_.end()) {
      const Document& doc = corpus_.doc(src.doc);
      it = operands_.emplace(key, Values(doc, Walk(doc, start, p))).first;
    }
    return it->second;
  }

  bool ComparisonHolds(size_t c, const std::vector<Pre>& tuple) {
    const std::vector<std::string_view>& l = OperandValues(c, 0, tuple);
    const std::vector<std::string_view>& r = OperandValues(c, 1, tuple);
    for (std::string_view a : l) {
      for (std::string_view b : r) {
        if (CompareValues(a, q_.where[c].op, b)) return true;
      }
    }
    return false;
  }

  void Enumerate(size_t level, std::vector<Pre>& tuple) {
    if (level == q_.fors.size()) {
      tuples_.push_back(tuple);
      return;
    }
    // Memo entries keep their address while deeper levels insert.
    const std::vector<Pre>& domain = Domain(level, tuple);
    for (Pre n : domain) {
      tuple[level] = n;
      bool ok = true;
      for (size_t c : checks_at_[level]) {
        if (!ComparisonHolds(c, tuple)) {
          ok = false;
          break;
        }
      }
      if (ok) Enumerate(level + 1, tuple);
    }
  }

  const Corpus& corpus_;
  const xq::AstQuery& q_;
  std::unordered_map<std::string, Var> vars_;
  std::vector<std::vector<size_t>> checks_at_;
  std::unordered_map<uint64_t, std::vector<Pre>> domains_;
  std::unordered_map<uint64_t, std::vector<std::string_view>> operands_;
  std::vector<std::vector<Pre>> tuples_;
};

}  // namespace query_oracle

// The answer the engine must give for `query` on `corpus`: the return
// variable's nodes, or the engine's status code for the query.
inline Result<std::vector<Pre>> OracleQuery(const Corpus& corpus,
                                            const xq::AstQuery& query) {
  return query_oracle::Evaluator(corpus, query).Run();
}

}  // namespace rox

#endif  // ROX_TESTS_QUERY_ORACLE_H_
