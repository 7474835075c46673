// Copyright (c) 1993-style CORAL reproduction authors.
// The module system (paper §2, §5, §5.6): modules export predicates with
// query forms; a query on an exported predicate sets up a call on the
// module, which presents a scan-like get-next-tuple interface returning
// all answers to the subquery — independent of whether the callee is
// pipelined or materialized, lazy or eager, saved or transient.

#ifndef CORAL_CORE_MODULE_MANAGER_H_
#define CORAL_CORE_MODULE_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/module_eval.h"
#include "src/core/pipeline.h"
#include "src/util/sync.h"
#include "src/vm/verifier.h"

namespace coral {

class Database;

/// The one definer of a predicate read from outside its module
/// (Database::Resolve, docs/INTERNALS.md "Predicate resolution").
enum class Definer { kBuiltin, kExport, kBase, kLocal, kUndefined };

struct Resolution {
  Definer kind = Definer::kUndefined;
  const BuiltinEntry* builtin = nullptr;  // kBuiltin
  Relation* base = nullptr;               // kBase
  std::string module;                     // kExport, kLocal: the module
  /// "a builtin", "exported by module m", ... for refusal messages.
  std::string ToString() const;
};

/// Thread-safety: registration and the form cache are guarded by mu_
/// (rank kRankModuleManager). OpenQuery is safe from concurrent reader
/// sessions; instance Init/Seed/Run happen OUTSIDE mu_ (Init acquires the
/// database commit lock, which ranks below mu_). Module declarations and
/// compiled forms are immutable once created, and entries replaced by
/// re-consulting a module are retired (not destroyed), so in-flight
/// queries finish against the version they started with.
class ModuleManager {
 public:
  explicit ModuleManager(Database* db) : db_(db) {}

  /// Analyzes and registers a module; its exports become visible to all
  /// other modules and to queries. Re-adding a module with the same name
  /// replaces it. The semantic analyzer runs first: diagnostics go to
  /// `diags` when non-null, and the module is refused (leaving any
  /// previous version in place) on errors — or on warnings too when the
  /// database is in strict mode, or (AlreadyExists) when an export already
  /// has another definer. The caller holds the database commit lock.
  Status AddModule(ModuleDecl decl, DiagnosticList* diags = nullptr);

  /// The modules' claim on `pred` for Database::Resolve: kExport, kLocal
  /// (a rule head only its own module sees, paper §5) or kUndefined.
  /// Takes only index_mu_, so it is safe under mu_.
  Resolution Claim(const PredRef& pred) const;

  /// Opens an inter-module (or top-level) call: selects the best matching
  /// query form for the binding pattern of `args`, compiles it on first
  /// use, and returns the answer scan (paper §5.6).
  StatusOr<std::unique_ptr<TupleIterator>> OpenQuery(
      const PredRef& pred, std::span<const TermRef> args);

  /// The rewritten-program listing for (module, form); compiles on demand.
  /// Useful for debugging, mirroring the paper's text-file dump.
  StatusOr<std::string> RewrittenListing(const std::string& module_name,
                                         const std::string& pred,
                                         const std::string& adornment);

  /// The optimizer plan for (module, form): inferred modes (groundness,
  /// types, cardinality), the join-order decision, and the planned
  /// argument indexes. Compiles on demand, like RewrittenListing.
  StatusOr<std::string> PlanListing(const std::string& module_name,
                                    const std::string& pred,
                                    const std::string& adornment);

  /// Plans of every form compiled so far, each under a
  /// "plan for module <m>, query form <p>(<adornment>)" header; empty
  /// string when nothing has been compiled.
  std::string PlanReport() const;

  /// Evaluation statistics of the most recent materialized activation
  /// (save-module instances aggregate across calls). Returned by value:
  /// a debugging aid, racy by nature under concurrent sessions.
  EvalStats last_stats() const;

  /// Explanation tool: derivation tree of a fact derived by the most
  /// recent materialized activation of a module with @explain. `fact` is
  /// matched against recorded heads (answers and intermediates).
  StatusOr<std::string> ExplainLast(const Tuple* fact) const;

  /// Drops the saved instance of every compiled form that (transitively
  /// within the module) reads base predicate `pred` — or that calls into
  /// another module, where dependencies are not tracked. Called when a
  /// relation registration replaces a predicate's contents wholesale
  /// (every base-fact write goes through ApplyUpdate instead): stale
  /// answers are never served; the next query recomputes.
  void InvalidateDependents(const PredRef& pred);

  /// Bytecode verifier outcome of one compiled query form (docs/VM.md
  /// "Verification"): the whole-module audit plus the compile counters,
  /// or `error` when the form does not compile at all.
  struct FormBytecodeAudit {
    std::string module;
    std::string pred;        // "p/2"
    std::string adornment;   // "" when the form has none
    vm::ModuleAudit audit;
    uint64_t compiled = 0;
    uint64_t skipped = 0;
    /// Non-empty: the whole form runs interpreted for this (legitimate)
    /// reason — pipelined evaluation or @no_vm.
    std::string fallback_reason;
    std::string error;       // non-empty: rewrite/compile failure
  };

  /// Compiles (on demand) every export form of every registered module
  /// and returns each form's verifier audit, in registration order.
  /// Pipelined modules are reported with an explanatory
  /// `fallback_reason`. Used by coral_bcverify and
  /// Database::BytecodeVerifierReport.
  std::vector<FormBytecodeAudit> AuditAllBytecode();

  /// Applies one committed base-relation delta to every affected saved
  /// instance: incrementally (CanMaintain + Maintain) where the shape is
  /// covered, by dropping the instance otherwise. Counts land in
  /// `result`. The caller holds the database commit lock, serializing
  /// writers; mu_ is only taken to collect and to record outcomes, never
  /// across a maintenance pass (Maintain resolves exports/base relations,
  /// which take locks ranking around mu_).
  void PropagateUpdate(const UpdateDelta& delta, UpdateResult* result);

 private:
  struct CompiledForm {
    std::unique_ptr<RewrittenProgram> prog;
    /// Join bytecode for the rule versions of `prog` (null entries stay
    /// interpreted); compiled alongside the form, bound per activation.
    std::unique_ptr<vm::ModuleProgram> vm;
    /// Whole-plan verifier audit of `vm` (null when nothing compiled);
    /// audit-rejected programs are nulled out of `vm` before caching.
    std::unique_ptr<vm::ModuleAudit> audit;
    std::shared_ptr<MaterializedInstance> saved;  // save-module only
    /// Base predicates the form's rewritten rules read (body predicates
    /// that are neither rule heads nor builtins); computed at compile
    /// time for update routing.
    std::unordered_set<PredRef, PredRefHash> base_deps;
    /// True when some body literal calls another module: its answers can
    /// change for reasons dependency tracking does not see, so any update
    /// invalidates the saved instance.
    bool external_module_deps = false;
  };
  struct ModuleEntry {
    ModuleDecl decl;
    // key: "pred/arity@adornment"
    std::map<std::string, CompiledForm> forms;
    std::unique_ptr<PipelinedModule> pipelined;
  };

  StatusOr<CompiledForm*> CompileFormLocked(ModuleEntry* entry,
                                            const QueryFormDecl& form)
      CORAL_REQUIRES(mu_);
  const QueryFormDecl* SelectForm(const ModuleEntry& entry,
                                  const PredRef& pred,
                                  std::span<const TermRef> args) const;
  Database* db_;
  mutable Mutex mu_{kRankModuleManager};
  std::vector<std::unique_ptr<ModuleEntry>> modules_ CORAL_GUARDED_BY(mu_);
  /// Entries displaced by re-adding a module with the same name. Retired,
  /// never destroyed: scans opened against the old version (and compiled
  /// forms pointing into its decl) stay valid for the database's life.
  std::vector<std::unique_ptr<ModuleEntry>> retired_ CORAL_GUARDED_BY(mu_);
  /// Every export and every non-exported rule head, with its module; an
  /// export wins over another module's local head.
  struct IndexEntry {
    ModuleEntry* entry;
    bool exported;
  };
  mutable Mutex index_mu_{kRankModuleIndex};
  std::unordered_map<PredRef, IndexEntry, PredRefHash> index_
      CORAL_GUARDED_BY(index_mu_);
  std::shared_ptr<MaterializedInstance> last_instance_
      CORAL_GUARDED_BY(mu_);
};

}  // namespace coral

#endif  // CORAL_CORE_MODULE_MANAGER_H_
