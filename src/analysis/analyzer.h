// Copyright (c) 1993-style CORAL reproduction authors.
// Static semantic analysis of parsed modules, run at module-load time,
// before rewriting and evaluation. The paper's §9 lessons note that CORAL
// had no compile-time checking and faults surfaced at run time; this pass
// front-loads the checks that need no data: rule safety under the
// left-to-right sideways information passing used by the rewriter,
// builtin binding modes, arity consistency, export validity, dead code,
// annotation sanity, and stratification.

#ifndef CORAL_ANALYSIS_ANALYZER_H_
#define CORAL_ANALYSIS_ANALYZER_H_

#include <functional>
#include <string>

#include "src/analysis/diagnostics.h"
#include "src/lang/ast.h"
#include "src/rewrite/depgraph.h"
#include "src/rewrite/existential.h"

namespace coral {

struct AnalyzerOptions {
  /// True when name/arity is a registered builtin predicate. Injected by
  /// the caller (the Database knows its BuiltinRegistry) so the analyzer
  /// does not depend on the evaluation core.
  std::function<bool(const std::string& name, uint32_t arity)> is_builtin;
  /// Binding modes of a builtin, from the same registry
  /// (BuiltinRegistry::ModesOf); null: no mode checks (CRL104/CRL105).
  ModesLookup modes_of;

  /// Warnings-as-errors: callers use DiagnosticList::ShouldReject(strict)
  /// to decide whether to refuse the module.
  bool strict = false;
};

/// Runs every check over one module. Diagnostics come back sorted by
/// source position.
DiagnosticList AnalyzeModule(const ModuleDecl& mod,
                             const AnalyzerOptions& opts);

/// Analyzes every module of a parsed program (top-level facts and queries
/// have no static checks beyond parsing).
DiagnosticList AnalyzeProgram(const Program& prog,
                              const AnalyzerOptions& opts);

namespace analysis {

/// True when `lit` resolves to a builtin or comparison operator rather
/// than a stored or derived predicate. A module-defined predicate shadows
/// a builtin of the same name/arity.
bool IsBuiltinLiteral(const Literal& lit, const AnalyzerOptions& opts,
                      const DepGraph& graph);

/// Rule safety + binding-mode analysis (CRL101-CRL105): propagates export
/// adornments through rule bodies with the rewriter's left-to-right SIP
/// and reports head variables, negated subgoals, comparisons and builtins
/// that evaluation would reach with unbound arguments.
void CheckSafety(const ModuleDecl& mod, const AnalyzerOptions& opts,
                 const DepGraph& graph, DiagnosticList* out);

/// Dead-code warnings (CRL120-CRL121): derived predicates unreachable
/// from any export, and named variables occurring exactly once in a rule.
void CheckDeadCode(const ModuleDecl& mod, const AnalyzerOptions& opts,
                   const DepGraph& graph, DiagnosticList* out);

}  // namespace analysis

}  // namespace coral

#endif  // CORAL_ANALYSIS_ANALYZER_H_
