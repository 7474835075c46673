// Copyright (c) 1993-style CORAL reproduction authors.
// Lowers rewritten semi-naive rule versions into join bytecode. The
// compiler is conservative: any rule shape outside the VM's model
// (negation, cross-module literals, non-comparison builtins, non-ground
// structured arguments, aggregate heads) compiles to "interpreted" and
// the classic ResolveTuple path runs it — the interpreter stays the
// semantic oracle (docs/VM.md).

#ifndef CORAL_VM_COMPILER_H_
#define CORAL_VM_COMPILER_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>

#include "src/lang/ast.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/bytecode.h"

namespace coral::vm {

/// Predicate classification callbacks, supplied by the module manager so
/// the compiler needs no Database handle. Classification is re-checked at
/// bind time (modules can be added between compile and activation); a
/// mismatch simply voids the compiled program for that rule.
struct CompileEnv {
  std::function<bool(const std::string& name, uint32_t arity)> is_builtin =
      [](const std::string&, uint32_t) { return false; };
  /// True when the predicate resolves to another module's export or
  /// local predicate rather than a base relation.
  std::function<bool(const PredRef& pred)> is_module_pred =
      [](const PredRef&) { return false; };
};

/// Predicates materialized inside a module instance: never classified as
/// builtins or module calls.
using InternalSet = std::unordered_set<PredRef, PredRefHash>;

/// One rule lowered by CompileRule.
struct CompiledRule {
  std::unique_ptr<RuleProgram> prog;  // null: runs no bytecode (see why)
  std::string why;
  bool verifier_rejected = false;  // compiled, but VerifyProgram failed
};

/// Lowers `rule` in body-literal order and gates it with VerifyProgram.
/// `ranges[i]` is body literal i's window class (missing entries are
/// kFull). The module compiler calls this once per rule version; view
/// maintenance calls it on delta-first and rederivation bodies it builds
/// itself (docs/MAINTENANCE.md).
CompiledRule CompileRule(const Rule& rule, uint32_t rule_index,
                         std::span<const RangeSel> ranges,
                         const InternalSet& internal, const CompileEnv& env);

/// Compiles every rule version of `prog`. Whole-module skips (@no_vm,
/// ordered search, @explain, pipelining) yield an empty sccs vector with
/// the reason in `listing`.
ModuleProgram CompileModule(const RewrittenProgram& prog,
                            const ModuleDecl& decl, const CompileEnv& env);

}  // namespace coral::vm

#endif  // CORAL_VM_COMPILER_H_
