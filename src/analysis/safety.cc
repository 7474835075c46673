// Rule safety and builtin binding-mode analysis (CRL101-CRL105).
//
// Classic range restriction ("every head variable appears in a positive
// body literal") is too strict for CORAL: an exported query form like
// status(bf) guarantees the first head argument is bound by the caller,
// and magic rewriting propagates those bindings into the rules — so
//   status(X, rich) :- not broke(X).
// is perfectly safe under status(bf). This pass therefore reproduces the
// rewriter's adornment propagation (left-to-right SIP, as in
// src/rewrite/adorn.cc): starting from the exported adornments, it walks
// each rule body left to right tracking which variables are bound,
// derives call adornments for body predicates, and analyzes every
// (predicate, adornment) pair reachable this way.
//
// A second, order-insensitive fixpoint ("eventually bound") separates
// hard errors from reorderable warnings: a variable no positive goal ever
// binds is an error (CRL101/102/103), while one bound only by a later
// goal is a warning (CRL104) — evaluation as written would fault, but
// moving the goal (or @reorder_joins) fixes it.

#include <deque>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/rewrite/existential.h"

namespace coral {
namespace analysis {

namespace {

/// Functors EvalArith evaluates; their variables are inputs.
bool IsArithName(const std::string& n) {
  return n == "+" || n == "-" || n == "*" || n == "/" || n == "mod" ||
         n == "min" || n == "max" || n == "abs";
}

bool IsArithExpr(const Arg* t) {
  if (t->kind() != ArgKind::kAtomOrFunctor) return false;
  const auto* f = ArgCast<FunctorArg>(t);
  return f->arity() > 0 && IsArithName(f->name());
}

/// The declared modes of builtin literal `lit`; nullptr when there are
/// none to check (no lookup, or a C++ predicate).
const BindingModes* DeclaredModes(const Literal& lit,
                                  const AnalyzerOptions& opts) {
  const BindingModes* modes = ModesOf(opts.modes_of, lit);
  return modes != nullptr && modes->in_sets.has_value() ? modes : nullptr;
}

/// Variables a positive goal grounds under `bound`, order-ignored:
/// relation goals ground everything; `=` grounds everything once each
/// arithmetic side is evaluable (free-free unification aliases, which is
/// binding enough for safety — non-ground facts are a feature);
/// comparisons ground nothing; builtins ground everything once a mode is
/// satisfied.
void BindEventual(const Literal& lit, const AnalyzerOptions& opts,
                  const DepGraph& graph, std::set<uint32_t>* bound,
                  bool* changed) {
  auto bind_all = [&] {
    for (uint32_t v : VarsOfLiteral(lit)) {
      if (bound->insert(v).second) *changed = true;
    }
  };
  if (lit.negated) return;
  if (!IsBuiltinLiteral(lit, opts, graph)) {
    bind_all();
    return;
  }
  if (IsOperatorSymbol(lit.pred)) {
    if (lit.pred->name != "=") return;  // comparisons are pure tests
    for (const Arg* side : lit.args) {
      if (IsArithExpr(side) && !TermBound(side, *bound)) return;
    }
    bind_all();
    return;
  }
  const BindingModes* modes = DeclaredModes(lit, opts);
  if (modes == nullptr || ModeSatisfied(*modes, lit, *bound)) bind_all();
}

std::set<uint32_t> EventualBound(const Rule& rule,
                                 const std::set<uint32_t>& initial,
                                 const AnalyzerOptions& opts,
                                 const DepGraph& graph) {
  std::set<uint32_t> bound = initial;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      BindEventual(lit, opts, graph, &bound, &changed);
    }
  }
  return bound;
}

/// Marker mixed into the dedup key for diagnostics that concern a whole
/// literal rather than one variable slot.
constexpr uint32_t kLitMarker = 0x80000000u;

constexpr size_t kMaxAdornmentsPerPred = 32;

class SafetyPass {
 public:
  SafetyPass(const ModuleDecl& mod, const AnalyzerOptions& opts,
             const DepGraph& graph, DiagnosticList* out)
      : mod_(mod), opts_(opts), graph_(graph), out_(out) {
    for (size_t i = 0; i < mod.rules.size(); ++i) {
      if (!mod.rules[i].is_fact()) {
        rules_of_[mod.rules[i].head.pred_ref()].push_back(
            static_cast<int>(i));
      }
    }
  }

  void Run() {
    // Seed the worklist. Without magic rewriting, a materialized module
    // evaluates every rule bottom-up with no binding propagation, so
    // every derived predicate is analyzed all-free. Otherwise bindings
    // flow from the exported adornments (magic rewriting and pipelined
    // evaluation both propagate them); predicates unreachable from the
    // exports never run and are left to the dead-code pass.
    bool propagates = !(mod_.rewrite == RewriteKind::kNone &&
                        mod_.eval_mode == EvalMode::kMaterialized);
    if (!propagates || mod_.exports.empty()) {
      for (const PredRef& p : graph_.derived()) {
        Enqueue(p, std::string(p.arity, 'f'));
      }
    } else {
      for (const QueryFormDecl& form : mod_.exports) {
        PredRef p{form.pred,
                  static_cast<uint32_t>(form.adornment.size())};
        Enqueue(p, form.adornment);
      }
    }
    while (!work_.empty()) {
      auto [pred, ad] = work_.front();
      work_.pop_front();
      auto it = rules_of_.find(pred);
      if (it == rules_of_.end()) continue;
      for (int ri : it->second) AnalyzeRule(ri, ad);
    }
  }

 private:
  void Enqueue(const PredRef& pred, std::string ad) {
    if (!graph_.IsDerived(pred)) return;
    std::set<std::string>& seen = seen_[pred];
    if (seen.size() >= kMaxAdornmentsPerPred) return;
    if (seen.insert(ad).second) work_.emplace_back(pred, std::move(ad));
  }

  bool Named(const Rule& r, uint32_t slot) const {
    return slot < r.var_names.size() && !r.var_names[slot].empty() &&
           r.var_names[slot][0] != '_';
  }
  std::string NameOf(const Rule& r, uint32_t slot) const {
    if (slot < r.var_names.size() && !r.var_names[slot].empty()) {
      return r.var_names[slot];
    }
    return "_v" + std::to_string(slot);
  }

  void Report(int ri, uint32_t key, const char* code, DiagSeverity sev,
              SourceLoc loc, std::string msg) {
    if (!reported_.insert({ri, key, code}).second) return;
    const Rule& r = mod_.rules[static_cast<size_t>(ri)];
    Diagnostic d;
    d.severity = sev;
    d.code = code;
    d.module_name = mod_.name;
    d.pred = r.head.pred_ref().ToString();
    d.rule_index = ri;
    d.loc = loc.valid() ? loc : r.loc;
    d.message = std::move(msg);
    out_->Add(std::move(d));
  }

  /// Unbound-variable finding for a goal with instantiation requirements:
  /// eventually-bound variables are reorderable (CRL104 warning); never-
  /// bound ones get the caller's hard code.
  void ReportUnbound(int ri, uint32_t slot, const Literal& lit,
                     const std::set<uint32_t>& eventual,
                     const char* hard_code, const std::string& what) {
    const Rule& r = mod_.rules[static_cast<size_t>(ri)];
    if (eventual.count(slot) > 0) {
      Report(ri, slot, diag::kBoundTooLate, DiagSeverity::kWarning,
             lit.loc,
             "variable '" + NameOf(r, slot) + "' in " + what + " '" +
                 lit.ToString() +
                 "' is bound only by a later goal; move the goal or "
                 "enable @reorder_joins");
      return;
    }
    DiagSeverity sev = hard_code == diag::kBuiltinMode
                           ? DiagSeverity::kWarning
                           : DiagSeverity::kError;
    Report(ri, slot, hard_code, sev, lit.loc,
           "variable '" + NameOf(r, slot) + "' in " + what + " '" +
               lit.ToString() +
               "' is not bound by any positive goal in the rule body");
  }

  void AnalyzeRule(int ri, const std::string& ad) {
    const Rule& r = mod_.rules[static_cast<size_t>(ri)];
    std::set<uint32_t> bound;
    for (size_t i = 0; i < ad.size() && i < r.head.args.size(); ++i) {
      if (ad[i] == 'b') CollectVars(r.head.args[i], &bound);
    }
    const std::set<uint32_t> eventual =
        EventualBound(r, bound, opts_, graph_);

    for (size_t li = 0; li < r.body.size(); ++li) {
      const Literal& lit = r.body[li];
      if (lit.negated) {
        // Safety for negation: every named variable must already be
        // bound, or "not p(X)" ranges over an infinite complement.
        for (uint32_t v : VarsOfLiteral(lit)) {
          if (bound.count(v) == 0 && Named(r, v)) {
            ReportUnbound(ri, v, lit, eventual, diag::kUnboundNegationVar,
                          "negated goal");
          }
        }
        // Negated derived goals are still adorned by the rewriter.
        if (graph_.IsDerived(lit.pred_ref())) {
          Enqueue(lit.pred_ref(), CallAdornment(lit, bound));
        }
        continue;  // negation binds nothing
      }
      if (IsBuiltinLiteral(lit, opts_, graph_)) {
        AnalyzeBuiltin(ri, lit, bound, eventual);
        // Assume success to avoid cascading reports downstream.
        for (uint32_t v : VarsOfLiteral(lit)) bound.insert(v);
        continue;
      }
      // Positive relation goal: derive the call adornment for derived
      // predicates (this is the left-to-right SIP), then its scan binds
      // every variable it mentions.
      if (graph_.IsDerived(lit.pred_ref())) {
        Enqueue(lit.pred_ref(), CallAdornment(lit, bound));
      }
      for (uint32_t v : VarsOfLiteral(lit)) bound.insert(v);
    }

    // Head safety (CRL101): every named head variable must be bound by
    // the body or by a 'b' position of the analyzed adornment.
    std::set<uint32_t> head_vars;
    for (const Arg* a : r.head.args) CollectVars(a, &head_vars);
    for (uint32_t v : head_vars) {
      if (bound.count(v) > 0 || !Named(r, v)) continue;
      std::string form;
      if (ad.find('b') != std::string::npos) {
        form = " under query form " + r.head.pred->name + "(" + ad + ")";
      }
      Report(ri, v, diag::kUnsafeHeadVar, DiagSeverity::kError, r.loc,
             "head variable '" + NameOf(r, v) + "' of " +
                 r.head.pred_ref().ToString() +
                 " is not bound by the rule body" + form);
    }
  }

  void AnalyzeBuiltin(int ri, const Literal& lit,
                      const std::set<uint32_t>& bound,
                      const std::set<uint32_t>& eventual) {
    if (IsOperatorSymbol(lit.pred)) {
      if (lit.pred->name == "=") {
        // Unification binds either direction (free-free aliasing
        // included); only arithmetic sides have input requirements.
        for (const Arg* side : lit.args) {
          if (!IsArithExpr(side) || TermBound(side, bound)) continue;
          std::set<uint32_t> vars;
          CollectVars(side, &vars);
          for (uint32_t v : vars) {
            if (bound.count(v) == 0 && Named(mod_.rules[ri], v)) {
              ReportUnbound(ri, v, lit, eventual,
                            diag::kUnboundBuiltinArg,
                            "arithmetic expression");
            }
          }
        }
        return;
      }
      // <, >, =<, >=, \= are pure tests over fully bound arguments.
      for (uint32_t v : VarsOfLiteral(lit)) {
        if (bound.count(v) == 0 && Named(mod_.rules[ri], v)) {
          ReportUnbound(ri, v, lit, eventual, diag::kUnboundBuiltinArg,
                        "comparison");
        }
      }
      return;
    }
    const BindingModes* modes = DeclaredModes(lit, opts_);
    if (modes == nullptr || ModeSatisfied(*modes, lit, bound)) return;
    uint32_t key = kLitMarker | static_cast<uint32_t>(lit.loc.line);
    if (ModeSatisfied(*modes, lit, eventual)) {
      Report(ri, key, diag::kBoundTooLate, DiagSeverity::kWarning,
             lit.loc,
             "builtin goal '" + lit.ToString() +
                 "' runs before its inputs are bound (expects " +
                 modes->usage +
                 "); move the goal or enable @reorder_joins");
      return;
    }
    Report(ri, key, diag::kBuiltinMode, DiagSeverity::kWarning, lit.loc,
           "no usable binding mode for builtin goal '" + lit.ToString() +
               "' (expects " + modes->usage + ")");
  }

  static std::string CallAdornment(const Literal& lit,
                                   const std::set<uint32_t>& bound) {
    std::string ad;
    ad.reserve(lit.args.size());
    for (const Arg* a : lit.args) ad += TermBound(a, bound) ? 'b' : 'f';
    return ad;
  }

  const ModuleDecl& mod_;
  const AnalyzerOptions& opts_;
  const DepGraph& graph_;
  DiagnosticList* out_;

  std::unordered_map<PredRef, std::vector<int>, PredRefHash> rules_of_;
  std::unordered_map<PredRef, std::set<std::string>, PredRefHash> seen_;
  std::deque<std::pair<PredRef, std::string>> work_;
  std::set<std::tuple<int, uint32_t, const char*>> reported_;
};

}  // namespace

void CheckSafety(const ModuleDecl& mod, const AnalyzerOptions& opts,
                 const DepGraph& graph, DiagnosticList* out) {
  SafetyPass(mod, opts, graph, out).Run();
}

}  // namespace analysis
}  // namespace coral
