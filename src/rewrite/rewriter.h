// Copyright (c) 1993-style CORAL reproduction authors.
// The query optimizer's rewriting orchestration (paper §2, §4): takes a
// program module and a query form, applies adornment plus the selected
// magic rewriting, handles negation/aggregation (by automatic fallback to
// restricting aggregate bodies through grouping or to full evaluation of
// tangled predicates, or by Ordered Search done-guards), performs the
// semi-naive rewriting, and produces the internal representation the
// evaluation system interprets — plus a text listing of the rewritten
// program, the paper's debugging aid.

#ifndef CORAL_REWRITE_REWRITER_H_
#define CORAL_REWRITE_REWRITER_H_

#include <functional>
#include <string>
#include <unordered_map>

#include "src/analysis/domains.h"
#include "src/data/term_factory.h"
#include "src/lang/ast.h"
#include "src/rewrite/depgraph.h"
#include "src/rewrite/existential.h"
#include "src/rewrite/seminaive.h"
#include "src/util/status.h"

namespace coral {

/// Optimizer switches for RewriteModule (paper §4.2, §5.3). The defaults
/// reproduce annotation-driven behavior: indexes are planned (evaluation
/// always indexed join probes), reordering stays opt-in via
/// @reorder_joins. The module manager turns auto_reorder on (and supplies
/// real base-relation cardinalities) when Database::auto_optimize() is on.
struct RewriteOptions {
  /// Reorder every rule body bound-args-first even without @reorder_joins
  /// (@no_reorder_joins still wins).
  bool auto_reorder = false;
  /// Plan argument indexes for join probe patterns (consumed by
  /// MaterializedInstance::Init). Off: index_plan stays empty and
  /// evaluation creates no optimizer indexes.
  bool auto_index = true;
  /// Registered-builtin test (same contract as AnalyzerOptions).
  std::function<bool(const std::string& name, uint32_t arity)> is_builtin;
  /// Cardinality class of a base relation at compile time; null = kMany.
  std::function<absint::Card(const PredRef&)> base_card;
  /// Binding modes of a builtin (same contract as AnalyzerOptions): the
  /// reorderer schedules a builtin once one of its modes is satisfied,
  /// and keeps a rule calling one with unknown modes in written order.
  /// Null: builtins wait until all their variables are bound.
  ModesLookup modes_of;
};

/// One optimizer-selected argument index: the rewritten-program predicate
/// probed and the columns bound when evaluation reaches the probe.
struct PlannedIndex {
  PredRef pred;
  std::vector<uint32_t> cols;
};

/// A compiled (rewritten + semi-naive) materialized module for one query
/// form.
struct RewrittenProgram {
  std::vector<Rule> rules;
  DepGraph graph;
  SemiNaiveProgram seminaive;

  /// Predicate whose relation holds the query's answers.
  PredRef answer_pred;
  /// Adornment of answer_pred ("" when no rewriting was applied).
  std::string answer_adornment;

  bool uses_magic = false;
  PredRef seed_pred;                       // magic predicate to seed
  std::vector<uint32_t> bound_positions;   // of the original query pred

  /// adorned predicate -> magic predicate (for Ordered Search).
  std::unordered_map<PredRef, PredRef, PredRefHash> magic_of;
  /// adorned predicate -> its original (pre-adornment) predicate; used to
  /// attach per-predicate annotations (indices, aggregate selections,
  /// multiset) to the rewritten relations.
  std::unordered_map<PredRef, PredRef, PredRefHash> original_of;
  /// magic predicate -> done predicate (Ordered Search guards).
  std::unordered_map<PredRef, PredRef, PredRefHash> done_of;
  bool ordered_search = false;

  /// The plan's "magic:" lines: predicates whose magic was restricted to
  /// head bindings through grouping, and predicates left unadorned, each
  /// with its reason.
  std::vector<std::string> magic_notes;

  /// Rewritten program listing (paper §2: stored as text as a debugging
  /// aid for the user).
  std::string listing;

  /// Argument indexes selected by the optimizer (deduplicated); applied
  /// to internal or base relations by MaterializedInstance::Init.
  std::vector<PlannedIndex> index_plan;
  /// Human-readable plan: magic decisions, inferred modes
  /// (groundness/types/cardinality), join-order decision, and the index
  /// plan. Appended to listing files and exposed through
  /// ModuleManager::PlanListing / coral_prof --plan.
  std::string plan;
};

/// Rewrites `module` for `form`. Materialized modules only (pipelined
/// modules are interpreted from their original rules).
StatusOr<RewrittenProgram> RewriteModule(const ModuleDecl& module,
                                         const QueryFormDecl& form,
                                         TermFactory* factory,
                                         const RewriteOptions& opts = {});

}  // namespace coral

#endif  // CORAL_REWRITE_REWRITER_H_
