#include "src/rewrite/rewriter.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "src/analysis/absint.h"
#include "src/analysis/diagnostics.h"
#include "src/rewrite/adorn.h"
#include "src/rewrite/existential.h"
#include "src/rewrite/factoring.h"
#include "src/rewrite/magic.h"
#include "src/rewrite/supmagic.h"
#include "src/util/logging.h"

namespace coral {

namespace {

using PredSet = std::unordered_set<PredRef, PredRefHash>;

/// Derived predicates read by a body literal that `seeds` selects, plus
/// everything they depend on: the predicates whose complete extensions
/// such a literal requires.
PredSet DependencyClosure(
    const std::vector<Rule>& rules, const PredSet& derived,
    const std::function<bool(const Rule&, const Literal&)>& seeds) {
  PredSet closure;
  std::deque<PredRef> work;
  auto add = [&](const PredRef& p) {
    if (derived.count(p) && closure.insert(p).second) work.push_back(p);
  };
  for (const Rule& r : rules) {
    for (const Literal& lit : r.body) {
      if (seeds(r, lit)) add(lit.pred_ref());
    }
  }
  while (!work.empty()) {
    PredRef p = work.front();
    work.pop_front();
    for (const Rule& r : rules) {
      if (!(r.head.pred_ref() == p)) continue;
      for (const Literal& lit : r.body) add(lit.pred_ref());
    }
  }
  return closure;
}

/// Why an aggregate body cannot be restricted to the bindings of the
/// aggregate's head in `adorned` ("" when it can). Following LDL++'s
/// push-selection-into-grouping rule, a restricted body keeps each bound
/// group whole only when every @aggregate_selection on a restricted
/// predicate groups by each of its bound columns (otherwise the selection
/// compares tuples across bindings, and restriction changes which ones it
/// keeps). Bound head positions of aggregate rules are grouping
/// positions: AdornProgram frees aggregate-result positions.
std::string RestrictionBlocker(const AdornedProgram& adorned,
                               const ModuleDecl& module) {
  for (const Rule& r : adorned.rules) {
    for (const Literal& lit : r.body) {
      auto it = adorned.adorned.find(lit.pred_ref());
      if (it == adorned.adorned.end() || !it->second.restricted) continue;
      const AdornInfo& body = it->second;
      for (const AggSelDecl& sel : module.agg_selections) {
        if (sel.pred != body.original.sym ||
            sel.pattern.size() != body.original.arity) {
          continue;
        }
        std::set<uint32_t> group;
        for (const Arg* g : sel.group_args) CollectVars(g, &group);
        for (uint32_t c : BoundPositions(body.adornment)) {
          std::set<uint32_t> col;
          CollectVars(sel.pattern[c], &col);
          if (!std::includes(group.begin(), group.end(), col.begin(),
                             col.end())) {
            return "aggregate selection on " + body.original.ToString() +
                   " does not group by bound column " +
                   std::to_string(c + 1);
          }
        }
      }
    }
  }
  return "";
}

/// Join-order selection (paper §4.2): greedily schedule the most-bound
/// ready literal next, breaking ties toward the smaller relation using
/// the abstract cardinality classes from src/analysis/absint.h. Negated
/// literals and operators are "ready" only when all their variables are
/// bound; a pure builtin is ready once one of its binding modes is
/// satisfied, an impure one (or one without modes) only when all its
/// variables are bound. A ready literal with all variables bound is a
/// test and runs at once; a ready generator (its output size is unknown)
/// runs only once no relation literal is left, never ahead of the
/// literals that bind its inputs (deferring a builtin is mode-safe
/// because later scheduling only adds bindings). Remaining ties keep
/// source order, and a stuck state falls back to the first unscheduled
/// literal, so the pass never loses literals and a stuck suffix keeps its
/// source order. Returns true when the order changed.
bool ReorderRuleBody(Rule* rule, const absint::AnalysisResult& facts,
                     const RewriteOptions& opts) {
  if (rule->body.size() < 3) return false;  // nothing to gain
  std::set<uint32_t> bound;
  // Head arguments contribute no bindings in bottom-up evaluation; the
  // magic/supplementary guard (first body literal of rewritten rules)
  // does. Anchor it: never move the first literal.
  std::vector<Literal> out;
  std::vector<Literal> rest(rule->body.begin(), rule->body.end());

  auto vars_bound = [&](const Literal& lit) {
    return VarsOfLiteral(lit).size() ==
           [&] {
             size_t n = 0;
             for (uint32_t v : VarsOfLiteral(lit)) n += bound.count(v);
             return n;
           }();
  };
  auto bound_args = [&](const Literal& lit) {
    int n = 0;
    for (const Arg* a : lit.args) n += TermBound(a, bound);
    return n;
  };
  auto bind_vars = [&](const Literal& lit) {
    if (lit.negated) return;
    std::set<uint32_t> vars = VarsOfLiteral(lit);
    bound.insert(vars.begin(), vars.end());
  };
  auto is_filter = [&](const Literal& lit) {
    return lit.negated || IsOperatorSymbol(lit.pred) ||
           (opts.is_builtin != nullptr &&
            opts.is_builtin(lit.pred->name,
                            static_cast<uint32_t>(lit.args.size())));
  };
  auto ready = [&](const Literal& lit) {
    const BindingModes* modes = ModesOf(opts.modes_of, lit);
    if (modes != nullptr && modes->pure) {
      return ModeSatisfied(*modes, lit, bound);
    }
    return vars_bound(lit);
  };
  // Smaller cardinality class scores higher; bound-arg count dominates.
  auto selectivity = [&](const Literal& lit) {
    return static_cast<int>(absint::Card::kUnbounded) -
           static_cast<int>(facts.CardOf(lit.pred_ref()));
  };

  // Anchor the guard.
  out.push_back(rest.front());
  bind_vars(rest.front());
  rest.erase(rest.begin());

  bool changed = false;
  while (!rest.empty()) {
    int best = -1;
    int best_score = -1;
    int generator = -1;  // first ready builtin that still binds outputs
    for (size_t i = 0; i < rest.size(); ++i) {
      const Literal& lit = rest[i];
      if (is_filter(lit)) {
        if (!ready(lit)) continue;
        if (vars_bound(lit)) {  // a test: free, so run it at once
          best = static_cast<int>(i);
          best_score = 1 << 20;
          break;
        }
        if (generator < 0) generator = static_cast<int>(i);
        continue;
      }
      int score = bound_args(lit) * 8 + selectivity(lit);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      // No relation literal left: a ready generator runs next; failing
      // that, only unready filters remain, and the first keeps the
      // semantics as written.
      best = std::max(generator, 0);
    }
    changed = changed || best != 0;
    out.push_back(rest[static_cast<size_t>(best)]);
    bind_vars(rest[static_cast<size_t>(best)]);
    rest.erase(rest.begin() + best);
  }
  rule->body = std::move(out);
  return changed;
}

/// Stratification failures share the diagnostics format of the load-time
/// analyzer (code CRL140), so the REPL and the C++ API present one shape
/// of message whether the problem is caught at load or at query compile.
Status StratificationError(const ModuleDecl& module,
                           const std::string& detail) {
  Diagnostic d;
  d.severity = DiagSeverity::kError;
  d.code = diag::kNotStratified;
  d.module_name = module.name;
  d.loc = module.loc;
  d.message = detail;
  return Status::InvalidArgument(d.ToString());
}

std::string ListingOf(const std::vector<Rule>& rules) {
  std::ostringstream oss;
  for (const Rule& r : rules) oss << r.ToString() << "\n";
  return oss.str();
}

/// The optimizer proper (paper §4.2, §5.3): runs the abstract
/// interpretation over the rewritten rules (the magic seed and Ordered
/// Search done-markers are engine-fed ground facts) and applies its two
/// decisions — join reordering and argument-index planning — then renders
/// the plan text stored alongside the listing.
void OptimizeProgram(const ModuleDecl& module, const RewriteOptions& opts,
                     RewrittenProgram* prog) {
  absint::AbsIntOptions ai;
  ai.is_builtin = opts.is_builtin;
  ai.base_card = opts.base_card;
  if (prog->uses_magic) {
    ai.assumed_facts.insert(prog->seed_pred);
    for (const auto& [magic, done] : prog->done_of) {
      ai.assumed_facts.insert(done);
    }
  }
  absint::AnalysisResult facts =
      absint::AnalyzeRules(prog->rules, prog->graph, ai);

  // Join-order selection never runs under Ordered Search: done guards
  // must stay immediately before the literals they protect.
  bool reorder_on = (module.reorder_joins || opts.auto_reorder) &&
                    !module.no_reorder_joins && !module.ordered_search;
  // A rule calling a C++ predicate keeps its written order: its binding
  // modes are unknown, and moving it ahead of the literals that bind its
  // inputs makes it fail.
  auto modes_unknown = [&](const Literal& l) {
    const BindingModes* modes = ModesOf(opts.modes_of, l);
    return modes != nullptr && !modes->in_sets.has_value();
  };
  std::vector<size_t> reordered;
  std::vector<size_t> kept;
  if (reorder_on) {
    for (size_t i = 0; i < prog->rules.size(); ++i) {
      Rule& r = prog->rules[i];
      if (std::any_of(r.body.begin(), r.body.end(), modes_unknown)) {
        kept.push_back(i);
      } else if (ReorderRuleBody(&r, facts, opts)) {
        reordered.push_back(i);
      }
    }
  }

  // Index plan: one argument index per (predicate, bound-column set)
  // probe under left-to-right evaluation of the final bodies. Negated
  // literals plan too (negation probes as set difference); operators and
  // builtins never resolve to stored relations.
  if (opts.auto_index) {
    std::set<std::pair<std::string, std::vector<uint32_t>>> seen;
    for (const Rule& r : prog->rules) {
      std::set<uint32_t> bound;
      for (const Literal& lit : r.body) {
        std::vector<uint32_t> cols;
        for (uint32_t c = 0; c < lit.args.size(); ++c) {
          if (TermBound(lit.args[c], bound)) cols.push_back(c);
        }
        if (!lit.negated) {
          std::set<uint32_t> vars = VarsOfLiteral(lit);
          bound.insert(vars.begin(), vars.end());
        }
        if (cols.empty() || IsOperatorSymbol(lit.pred)) continue;
        if (opts.is_builtin != nullptr &&
            opts.is_builtin(lit.pred->name,
                            static_cast<uint32_t>(lit.args.size()))) {
          continue;
        }
        if (!seen.insert({lit.pred_ref().ToString(), cols}).second) continue;
        prog->index_plan.push_back({lit.pred_ref(), cols});
      }
    }
  }

  std::ostringstream plan;
  plan << "magic:\n";
  for (const std::string& note : prog->magic_notes) {
    plan << "  " << note << "\n";
  }
  plan << "inferred modes:\n";
  std::istringstream summary(facts.Summary());
  bool any_mode = false;
  for (std::string line; std::getline(summary, line);) {
    plan << "  " << line << "\n";
    any_mode = true;
  }
  if (!any_mode) plan << "  (none)\n";
  plan << "join order: ";
  if (module.ordered_search) {
    plan << "as written (ordered search)\n";
  } else if (module.no_reorder_joins) {
    plan << "as written (@no_reorder_joins)\n";
  } else if (!reorder_on) {
    plan << "as written (auto-optimization off)\n";
  } else {
    plan << "bound-args-first (" << reordered.size()
         << " rule(s) reordered)\n";
    for (size_t i : reordered) {
      plan << "  " << prog->rules[i].ToString() << "\n";
    }
    for (size_t i : kept) {
      plan << "  as written (C++ predicate, binding modes unknown): "
           << prog->rules[i].ToString() << "\n";
    }
  }
  plan << "indexes:\n";
  if (prog->index_plan.empty()) plan << "  (none)\n";
  for (const PlannedIndex& pi : prog->index_plan) {
    plan << "  " << pi.pred.ToString() << ": args (";
    for (size_t i = 0; i < pi.cols.size(); ++i) {
      if (i > 0) plan << ",";
      plan << pi.cols[i] + 1;
    }
    plan << ")\n";
  }
  prog->plan = plan.str();
}

/// Inserts Ordered Search done-guards (paper §5.4.1): a done literal
/// before every negated adorned literal, and before every positive
/// adorned literal of an aggregate rule.
void InsertDoneGuards(RewrittenProgram* prog, TermFactory* factory) {
  for (Rule& r : prog->rules) {
    bool agg = IsAggregateRule(r);
    std::vector<Literal> new_body;
    for (const Literal& lit : r.body) {
      auto mit = prog->magic_of.find(lit.pred_ref());
      bool guard = mit != prog->magic_of.end() && (lit.negated || agg);
      if (guard) {
        PredRef magic = mit->second;
        Symbol done_sym =
            factory->symbols().Intern("done$" + magic.sym->name);
        PredRef done{done_sym, magic.arity};
        prog->done_of.emplace(magic, done);
        // The done literal carries the magic arguments: the bound args of
        // the guarded literal. We cannot rebuild them from the magic rule
        // here, so recompute from the adornment embedded in the name.
        Literal done_lit;
        done_lit.pred = done_sym;
        // Bound args: positions marked 'b' in the adorned predicate name
        // suffix (after the '@').
        const std::string& name = lit.pred->name;
        size_t at = name.rfind('@');
        CORAL_CHECK(at != std::string::npos);
        std::string ad = name.substr(at + 1);
        CORAL_CHECK_EQ(ad.size(), lit.args.size());
        for (uint32_t i = 0; i < ad.size(); ++i) {
          if (ad[i] == 'b') done_lit.args.push_back(lit.args[i]);
        }
        new_body.push_back(std::move(done_lit));
      }
      new_body.push_back(lit);
    }
    r.body = std::move(new_body);
  }
}

/// Applies the module's magic-style rewriting to `adorned`, appends the
/// full (unadorned) rules of the `no_adorn` predicates, and builds the
/// dependency graph of the result.
StatusOr<RewrittenProgram> MagicRewrite(const ModuleDecl& module,
                                        const QueryFormDecl& form,
                                        const AdornedProgram& adorned,
                                        const PredSet& no_adorn,
                                        TermFactory* factory) {
  MagicProgram magic;
  if (module.rewrite == RewriteKind::kMagic) {
    CORAL_ASSIGN_OR_RETURN(magic, MagicTemplates(adorned, factory));
  } else if (module.rewrite == RewriteKind::kFactoring) {
    if (module.save_module) {
      return Status::Unsupported(
          "@factoring is incompatible with @save_module: factored "
          "answers are only attributable to a single seed per call");
    }
    CORAL_ASSIGN_OR_RETURN(magic, ContextFactoring(adorned, factory));
  } else {
    CORAL_ASSIGN_OR_RETURN(magic, SupplementaryMagic(adorned, factory));
  }
  // A magic rule whose body is its own head (a recursive literal first in
  // its body, passed the head's bindings unchanged) derives nothing.
  std::erase_if(magic.rules, [](const Rule& r) {
    return r.body.size() == 1 && !r.body[0].negated &&
           r.body[0].pred == r.head.pred && r.body[0].args == r.head.args;
  });

  RewrittenProgram prog;
  prog.ordered_search = module.ordered_search;
  // The query's adornment, aggregate-result positions freed.
  prog.answer_adornment = adorned.adorned.at(adorned.query_pred).adornment;
  prog.bound_positions = BoundPositions(prog.answer_adornment);
  prog.rules = std::move(magic.rules);
  prog.magic_of = std::move(magic.magic_of);
  prog.seed_pred = magic.seed_pred;
  prog.uses_magic = true;
  prog.answer_pred = adorned.query_pred;
  for (const auto& [apred, info] : adorned.adorned) {
    prog.original_of.emplace(apred, info.original);
  }
  for (const Rule& r : module.rules) {
    if (no_adorn.count(r.head.pred_ref())) prog.rules.push_back(r);
  }
  if (module.ordered_search) InsertDoneGuards(&prog, factory);
  prog.graph = DepGraph::Build(prog.rules);
  return prog;
}

}  // namespace

StatusOr<RewrittenProgram> RewriteModule(const ModuleDecl& module,
                                         const QueryFormDecl& form,
                                         TermFactory* factory,
                                         const RewriteOptions& opts) {
  PredRef query_pred{form.pred,
                     static_cast<uint32_t>(form.adornment.size())};

  // Verify the query predicate is defined and the adornment length is its
  // arity.
  bool defined = false;
  for (const Rule& r : module.rules) {
    if (r.head.pred == form.pred) {
      defined = true;
      if (r.head.args.size() != form.adornment.size()) {
        return Status::InvalidArgument(
            "query form adornment '" + form.adornment + "' does not match " +
            r.head.pred_ref().ToString());
      }
    }
  }
  if (!defined) {
    return Status::NotFound("module " + module.name +
                            " does not define exported predicate " +
                            form.pred->name);
  }

  DepGraph original_graph = DepGraph::Build(module.rules);

  RewrittenProgram out;
  out.ordered_search = module.ordered_search;
  out.bound_positions = BoundPositions(form.adornment);

  if (module.rewrite == RewriteKind::kNone) {
    if (module.ordered_search) {
      return Status::InvalidArgument(
          "ordered search requires a magic rewriting (paper §5.4.1); "
          "remove @no_rewriting in module " + module.name);
    }
    if (!original_graph.stratified()) {
      return StratificationError(
          module, "module is not stratified (" +
                      original_graph.violation() +
                      "); use @ordered_search with magic rewriting");
    }
    out.rules = module.rules;
    out.answer_pred = query_pred;
    out.answer_adornment = "";
    out.uses_magic = false;
    out.graph = std::move(original_graph);
    out.magic_notes = {"off (@no_rewriting)"};
    OptimizeProgram(module, opts, &out);
    out.seminaive =
        BuildSemiNaive(out.rules, out.graph, module.save_module, nullptr);
    out.listing = ListingOf(out.rules);
    return out;
  }

  // Magic-style rewriting, with automatic fallback. Magic can break
  // stratification by tangling negation or aggregation into a recursive
  // SCC; the first stratified attempt of three wins:
  //   1. adorn everything;
  //   2. restrict through grouping: evaluate the predicates that negated
  //      literals need fully, and adorn those that only aggregate bodies
  //      need from head bindings alone (RestrictionBlocker says when that
  //      is sound), so their magic never reads the aggregate;
  //   3. evaluate every predicate negation or aggregation needs fully
  //      (unadorned).
  // Ordered Search never retries: its done-guards keep the program sound.
  const PredSet& derived = original_graph.derived();
  auto adorn = [&](const PredSet& no_adorn, const PredSet& restricted) {
    return AdornProgram(module.rules, derived, no_adorn, query_pred,
                        form.adornment, factory, restricted);
  };
  CORAL_ASSIGN_OR_RETURN(AdornedProgram adorned, adorn({}, {}));
  CORAL_ASSIGN_OR_RETURN(RewrittenProgram prog,
                         MagicRewrite(module, form, adorned, {}, factory));
  std::set<std::string> restricted_names;
  std::map<std::string, std::string> unadorned;  // predicate -> reason
  if (!prog.graph.stratified() && !module.ordered_search) {
    PredSet negation = DependencyClosure(
        module.rules, derived,
        [](const Rule&, const Literal& lit) { return lit.negated; });
    PredSet aggregation = DependencyClosure(
        module.rules, derived,
        [](const Rule& r, const Literal&) { return IsAggregateRule(r); });
    if (negation.empty() && aggregation.empty()) {
      return StratificationError(
          module,
          "module is not stratified (" + prog.graph.violation() + ")");
    }
    PredSet restricted;
    for (const PredRef& p : aggregation) {
      if (negation.count(p) == 0) restricted.insert(p);
    }
    PredSet no_adorn = negation;
    // Context factoring handles a single adorned predicate only.
    std::string blocker = "@factoring";
    bool done = false;
    if (!restricted.empty() && module.rewrite != RewriteKind::kFactoring) {
      CORAL_ASSIGN_OR_RETURN(adorned, adorn(negation, restricted));
      blocker = RestrictionBlocker(adorned, module);
      if (blocker.empty()) {
        CORAL_ASSIGN_OR_RETURN(
            prog, MagicRewrite(module, form, adorned, negation, factory));
        done = prog.graph.stratified();
        if (!done) blocker = "still unstratified";
      }
    }
    if (done) {
      for (const auto& [apred, info] : adorned.adorned) {
        if (info.restricted) restricted_names.insert(info.original.ToString());
      }
    } else {
      no_adorn.insert(aggregation.begin(), aggregation.end());
      CORAL_ASSIGN_OR_RETURN(adorned, adorn(no_adorn, {}));
      CORAL_ASSIGN_OR_RETURN(
          prog, MagicRewrite(module, form, adorned, no_adorn, factory));
      if (!prog.graph.stratified()) {
        return StratificationError(
            module,
            "module is not stratified even with full evaluation of "
            "negated/aggregated predicates (" + prog.graph.violation() +
            "); use @ordered_search");
      }
    }
    for (const PredRef& p : no_adorn) {
      unadorned[p.ToString()] =
          negation.count(p) > 0 ? "negated literal" : blocker;
    }
  }
  for (const std::string& name : restricted_names) {
    prog.magic_notes.push_back("restricted by grouping: " + name);
  }
  for (const auto& [name, why] : unadorned) {
    prog.magic_notes.push_back("unadorned: " + name + " (" + why + ")");
  }
  if (unadorned.empty()) prog.magic_notes.push_back("unadorned: (none)");

  OptimizeProgram(module, opts, &prog);
  std::unordered_set<PredRef, PredRefHash> engine_fed;
  for (const auto& [magic_pred, done] : prog.done_of) {
    engine_fed.insert(done);
  }
  // The query's magic seed has no defining rules but receives facts
  // from Seed(); it must be delta-capable or save-module resumption
  // with a fresh subgoal would never re-fire the guarded rules.
  engine_fed.insert(prog.seed_pred);
  prog.seminaive = BuildSemiNaive(
      prog.rules, prog.graph, module.save_module || module.ordered_search,
      &engine_fed);
  prog.listing = ListingOf(prog.rules);
  return prog;
}

}  // namespace coral
