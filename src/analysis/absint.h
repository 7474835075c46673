// Copyright (c) 1993-style CORAL reproduction authors.
// Abstract interpretation over the rule dependency graph: one fixpoint per
// module computes, per predicate argument, groundness and constructor
// shapes, and per predicate a coarse cardinality class (src/analysis/
// domains.h). The same engine serves two masters: the semantic analyzer
// (diagnostics CRL2xx — provably empty rules, unindexable join probes,
// functor growth through recursion) and the query optimizer (join
// reordering and automatic index selection in src/rewrite/rewriter.cc and
// src/core/module_eval.cc).

#ifndef CORAL_ANALYSIS_ABSINT_H_
#define CORAL_ANALYSIS_ABSINT_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/domains.h"
#include "src/lang/ast.h"
#include "src/rewrite/depgraph.h"

namespace coral::absint {

struct AbsIntOptions {
  /// True when name/arity is a registered builtin predicate (same contract
  /// as AnalyzerOptions::is_builtin). Null treats only operators builtin.
  std::function<bool(const std::string& name, uint32_t arity)> is_builtin;

  /// Cardinality class of a base (non-derived, non-builtin) predicate —
  /// the rewriter supplies real relation sizes here. Null: kMany.
  std::function<Card(const PredRef&)> base_card;

  /// Call-side bound argument positions seeding the analysis: the
  /// rewritten answer predicate's adornment, set by coral_lint and by the
  /// bytecode audit of a compiled form. OptimizeProgram sets none at
  /// rewrite time. Propagated to non-exported predicates by a left-to-
  /// right boundness fixpoint before the main analysis runs.
  std::unordered_map<PredRef, std::vector<bool>, PredRefHash> seeds;

  /// Predicates the engine populates directly rather than through rules
  /// (the magic seed, Ordered Search done-markers): assumed non-empty
  /// with ground arguments.
  std::unordered_set<PredRef, PredRefHash> assumed_facts;
};

/// Per-rule findings from the transfer function.
struct RuleFacts {
  /// Type/groundness meet hit bottom: the rule can never produce a fact.
  bool dead = false;
  std::string dead_reason;  // human text for the CRL201 message

  /// Head builds a strictly larger term around a value bound by a
  /// same-SCC body literal (CRL203 candidate).
  bool functor_growth = false;
  int growth_pos = -1;  // head argument position exhibiting growth

  /// No literal order gives this probe a bound argument (CRL202).
  bool cross_product = false;
  int cross_literal = -1;  // body index of the unindexable literal
};

class AnalysisResult {
 public:
  /// Facts for every derived predicate (base predicates are absent).
  std::unordered_map<PredRef, PredFacts, PredRefHash> preds;
  /// Parallel to the analyzed rule vector.
  std::vector<RuleFacts> rules;
  /// May-bound call-side positions per predicate (seeds + propagation).
  std::unordered_map<PredRef, std::vector<bool>, PredRefHash> bound;

  const PredFacts* Find(const PredRef& p) const;

  /// Cardinality class of any predicate: derived facts, else the base
  /// callback, else kMany.
  Card CardOf(const PredRef& p) const;

  /// True when call sites may bind argument `pos` of `p`.
  bool IsBoundPos(const PredRef& p, uint32_t pos) const;

  /// Human-readable per-predicate summary, sorted by name — the "inferred
  /// modes" block of plan listings. Each line:
  ///   p/2: mode=g?, types=(int|atom, top), card=many, recursive
  std::string Summary() const;

  std::function<Card(const PredRef&)> base_card;  // copied from options
};

/// Runs the combined groundness/type/cardinality fixpoint over `rules`
/// (SCC-ordered via `graph`, which must have been built from the same
/// rule vector).
AnalysisResult AnalyzeRules(const std::vector<Rule>& rules,
                            const DepGraph& graph,
                            const AbsIntOptions& opts);

/// Analyzer wiring: runs AnalyzeRules over the module (seeded from export
/// adornments) and reports CRL201 (type conflict proves a rule empty),
/// CRL202 (join probe with no bound arguments under any order) and CRL203
/// (functor growth through recursion with no structural descent).
void CheckAbstractDomains(const ModuleDecl& mod, const AnalyzerOptions& opts,
                          const DepGraph& graph, DiagnosticList* out);

/// @make_index validation: CRL135 (pattern arity does not match the
/// predicate's use), CRL136 (duplicate identical index), CRL137 (note:
/// automatic index selection already creates the requested index).
void CheckIndexDecls(const ModuleDecl& mod, const AnalyzerOptions& opts,
                     const DepGraph& graph, DiagnosticList* out);

}  // namespace coral::absint

#endif  // CORAL_ANALYSIS_ABSINT_H_
