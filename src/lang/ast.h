// Copyright (c) 1993-style CORAL reproduction authors.
// AST for the CORAL declarative language. Terms are built directly as
// canonical Arg nodes by the parser (variables get clause-local slots), so
// the same structures flow through rewriting into evaluation — the paper's
// "internal representation" that the interpreter executes.

#ifndef CORAL_LANG_AST_H_
#define CORAL_LANG_AST_H_

#include <string>
#include <vector>

#include "src/data/arg.h"
#include "src/rel/agg_selection.h"
#include "src/util/hash.h"

namespace coral {

/// A position in the consulted source text, propagated from lexer tokens
/// so semantic diagnostics can point at the offending clause. Line 0
/// means "no source location" (e.g. programmatically built ASTs).
struct SourceLoc {
  int line = 0;
  int col = 0;

  bool valid() const { return line > 0; }
  /// "line L:C" or "" when invalid.
  std::string ToString() const;
};

/// Identity of a predicate: name symbol + arity.
struct PredRef {
  Symbol sym = nullptr;
  uint32_t arity = 0;

  bool operator==(const PredRef& o) const {
    return sym == o.sym && arity == o.arity;
  }
  std::string ToString() const {
    return sym->name + "/" + std::to_string(arity);
  }
};

struct PredRefHash {
  size_t operator()(const PredRef& p) const {
    return HashCombine(HashMix64(p.sym->id), p.arity);
  }
};

/// One literal in a rule body or head. Comparison and arithmetic goals
/// are literals whose predicate symbol is the operator ("=", "<", ...).
struct Literal {
  Symbol pred = nullptr;
  std::vector<const Arg*> args;
  bool negated = false;
  SourceLoc loc;

  PredRef pred_ref() const {
    return PredRef{pred, static_cast<uint32_t>(args.size())};
  }
  std::string ToString() const;
};

/// A rule; facts are rules with an empty body. Variables use slots
/// 0..var_count-1, numbered by first occurrence; var_names maps slots back
/// to source names for printing.
struct Rule {
  Literal head;
  std::vector<Literal> body;
  uint32_t var_count = 0;
  std::vector<std::string> var_names;
  SourceLoc loc;

  bool is_fact() const { return body.empty(); }
  std::string ToString() const;
};

/// Module-level evaluation strategy choices (paper §4, §5).
enum class EvalMode { kMaterialized, kPipelined };
enum class FixpointKind { kBasicSemiNaive, kPredicateSemiNaive, kNaive };

/// Upper bound on @parallel(N) / Database::set_num_threads(): far above
/// any sensible worker count for one fixpoint, low enough to catch typos.
inline constexpr int64_t kMaxParallelThreads = 64;
enum class RewriteKind { kSupplementaryMagic, kMagic, kFactoring, kNone };

/// One exported query form: predicate + adornment string over {b, f}
/// (paper §2/§4.1), e.g. export s_p(bfff, ffff) yields two decls.
struct QueryFormDecl {
  Symbol pred = nullptr;
  std::string adornment;
  SourceLoc loc;
};

/// One `@name` annotation occurrence as written, with its location —
/// kept alongside the digested ModuleDecl flags so the semantic analyzer
/// can diagnose contradictory or ineffective combinations at the source
/// line where they were declared.
struct AnnotationUse {
  std::string name;
  SourceLoc loc;
};

/// Parsed @aggregate_selection declaration (paper §5.5.2).
struct AggSelDecl {
  Symbol pred = nullptr;
  AggregateSelection::Kind kind = AggregateSelection::Kind::kMin;
  std::vector<const Arg*> pattern;  // canonical slots 0..var_count-1
  uint32_t var_count = 0;
  std::vector<const Arg*> group_args;
  const Arg* agg_arg = nullptr;  // null only for argument-less any
  SourceLoc loc;
};

/// Parsed @make_index declaration (paper §5.5.1). Argument-form when the
/// pattern is a list of distinct plain variables; pattern-form otherwise.
struct IndexDecl {
  Symbol pred = nullptr;
  std::vector<const Arg*> pattern;
  uint32_t var_count = 0;
  std::vector<uint32_t> key_slots;
  bool argument_form = false;
  std::vector<uint32_t> cols;  // for argument-form
  SourceLoc loc;
};

/// A declarative program module (paper §5): unit of compilation with its
/// own evaluation strategy, chosen by annotations.
struct ModuleDecl {
  std::string name;
  SourceLoc loc;
  std::vector<QueryFormDecl> exports;
  std::vector<Rule> rules;
  std::vector<AnnotationUse> annotations;  // as written, for diagnostics

  EvalMode eval_mode = EvalMode::kMaterialized;
  FixpointKind fixpoint = FixpointKind::kBasicSemiNaive;
  RewriteKind rewrite = RewriteKind::kSupplementaryMagic;
  bool save_module = false;        // paper §5.4.2
  bool eager = false;              // compute all answers before returning
  bool ordered_search = false;     // paper §5.4.1
  bool intelligent_backtracking = true;
  bool explain = false;            // record derivations (Explanation tool)
  bool profile = false;            // record evaluation statistics (§6, §8)
  bool reorder_joins = false;      // optimizer picks the join order (§4.2)
  bool no_reorder_joins = false;   // keep bodies as written even when the
                                   // database-level auto-optimizer is on
  bool no_vm = false;              // always interpret; never run this
                                   // module's rules on the bytecode VM
  bool parallel = false;           // @parallel: multi-threaded fixpoint
  int64_t parallel_threads = -1;   // @parallel(N); -1 = no explicit count
                                   // (use Database::num_threads())
  std::vector<AggSelDecl> agg_selections;
  std::vector<IndexDecl> indexes;
  std::vector<Symbol> multiset_preds;  // paper §4.2 multiset semantics

  std::string ToString() const;
};

/// A query: conjunction of literals (interactive `?- ...`).
struct Query {
  std::vector<Literal> body;
  uint32_t var_count = 0;
  std::vector<std::string> var_names;
  SourceLoc loc;
  std::string ToString() const;
};

/// Result of parsing one source file / command string.
struct Program {
  std::vector<ModuleDecl> modules;
  std::vector<Rule> top_facts;     // facts outside any module
  std::vector<Query> queries;
  std::vector<IndexDecl> top_indexes;
  std::vector<AggSelDecl> top_agg_selections;
};

/// Functor names used as in-term markers by the parser.
inline constexpr const char* kGroupMarker = "$group";  // <X> in rule heads

/// True if `sym` names a comparison / unification operator.
bool IsOperatorSymbol(Symbol sym);

/// Aggregate function recognized in rule heads: min, max, sum, count, avg,
/// any, or set-of for a bare <X>.
enum class AggFn { kNone, kMin, kMax, kSum, kCount, kAvg, kAny, kSetOf };
AggFn AggFnFromName(const std::string& name);
const char* AggFnName(AggFn fn);

}  // namespace coral

#endif  // CORAL_LANG_AST_H_
