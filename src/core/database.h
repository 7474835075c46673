// Copyright (c) 1993-style CORAL reproduction authors.
// The Database facade: the single-user CORAL client (paper §2, Fig. 1).
// Owns the term factory, base relations (in-memory by default; persistent
// relations can be registered), the builtin registry (which also holds
// predicates defined in C++), and the module manager. 'Consulting' text loads facts, modules, annotations and
// queries — conversion into main-memory relations with any specified
// indices, exactly as §2 describes.

#ifndef CORAL_CORE_DATABASE_H_
#define CORAL_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/builtins.h"
#include "src/core/module_manager.h"
#include "src/core/update.h"
#include "src/data/term_factory.h"
#include "src/lang/ast.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/obs/vm_stats.h"
#include "src/rel/readview.h"
#include "src/rel/relation.h"
#include "src/util/status.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"

namespace coral {

/// One query answer: bindings of the query's named variables (anonymous
/// variables are omitted), plus whether the query succeeded at all (for
/// fully ground queries bindings are empty).
struct AnswerRow {
  std::vector<std::pair<std::string, const Arg*>> bindings;
  std::string ToString() const;
};

struct QueryResult {
  Query query;
  std::vector<AnswerRow> rows;
  std::string ToString() const;
};

/// Thread-safety contract (docs/API.md has the per-method table):
/// - Mutators — Consult / ConsultFile / InsertFact / DeleteFacts /
///   ApplyUpdate / RegisterExternalRelation, and the
///   assert/retract builtins — are writer commits: they serialize on the
///   commit lock and may run while reader sessions evaluate against their
///   snapshots.
/// - Queries — ExecuteQuery / EvalQuery — are safe from many threads
///   concurrently with commits PROVIDED each calling thread evaluates
///   under a Session (which installs a ReadView snapshot and enables
///   concurrent term construction). Without a Session the old contract
///   stands: single-threaded use only.
/// - Configuration (set_num_threads, set_profiling, set_trace_sink, ...)
///   and teardown remain single-threaded administration.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  TermFactory* factory() { return factory_.get(); }
  BuiltinRegistry* builtins() { return &builtins_; }
  ModuleManager* modules() { return modules_.get(); }

  // ---- base relations ----
  /// Existing base relation or nullptr.
  Relation* FindBaseRelation(const PredRef& pred) const;
  /// Existing or freshly created (empty HashRelation).
  Relation* GetOrCreateBaseRelation(const PredRef& pred);
  /// Registers a custom Relation implementation (paper §7.2
  /// extensibility) owned elsewhere, e.g. a persistent relation of a
  /// StorageManager; the owner must outlive the database's use of it.
  Status RegisterExternalRelation(const PredRef& pred, Relation* relation);

  /// Inserts a fact (rule with empty body; may be non-ground) into its
  /// base relation as a one-fact ApplyUpdate commit. Returns true if the
  /// relation changed.
  StatusOr<bool> InsertFact(const Rule& fact);
  /// Deletes all stored facts subsumed by the given fact pattern as a
  /// one-pattern ApplyUpdate commit; returns how many were removed.
  StatusOr<size_t> DeleteFacts(const Rule& fact);

  /// The one commit path for base facts (InsertFact, DeleteFacts,
  /// Consult's facts, Session::LoadFacts and assert/retract use it too).
  /// Commits one batch atomically on live state: the whole batch is
  /// validated first, so a rejected batch changes nothing; then deletions
  /// (patterns, subsumption-expanded), then insertions. Every affected
  /// saved module instance is brought up to date: incrementally (counting
  /// / DRed, docs/MAINTENANCE.md) where the module's shape is covered, by
  /// invalidation otherwise or while its answers are being scanned.
  /// Either way, no later query can observe a stale answer.
  StatusOr<UpdateResult> ApplyUpdate(const UpdateBatch& batch);

  /// Counters for the update path (updates committed, instances
  /// maintained vs. invalidated, derived-tuple churn).
  const obs::MaintenanceCounters& maintenance_counters() const {
    return maintenance_counters_;
  }

  /// When off, no commit maintains incrementally: every affected saved
  /// instance is invalidated and recomputed by its next query.
  /// Answers are identical either way — this is the from-scratch baseline
  /// for bench_update and a workaround switch should a maintenance bug
  /// ever need ruling out in the field.
  void set_maintenance(bool on) { maintenance_enabled_ = on; }
  bool maintenance_enabled() const { return maintenance_enabled_; }

  // ---- program loading ----
  /// Parses and applies `text`: facts, indices, aggregate selections and
  /// modules take effect; queries contained in the text are returned (not
  /// executed).
  StatusOr<std::vector<Query>> Consult(std::string_view text);
  /// Consults a file (paper §2: data in text files is 'consulted').
  StatusOr<std::vector<Query>> ConsultFile(const std::string& path);

  // ---- queries ----
  /// Evaluates a (possibly conjunctive) query against base relations,
  /// module exports and builtins.
  StatusOr<QueryResult> ExecuteQuery(const Query& query);
  /// Parses and executes a single query string like "?- path(1, X)."
  /// (the "?-" may be omitted).
  StatusOr<QueryResult> EvalQuery(const std::string& text);

  /// Convenience for the interactive interface: consults `text`, executes
  /// any queries in it, and returns printable results.
  StatusOr<std::string> Run(std::string_view text);

  /// Explanation tool: derivation tree for a ground fact like
  /// "anc(a, c)", from the most recent evaluation of a module annotated
  /// with @explain.
  StatusOr<std::string> Explain(const std::string& fact_text);

  // ---- static analysis ----
  /// Diagnostics produced by the semantic analyzer for the modules of the
  /// most recent Consult / ConsultFile / Run. Errors refuse the offending
  /// module (Consult returns their text as a Status); warnings accumulate
  /// here for the caller to display.
  const DiagnosticList& last_diagnostics() const {
    return last_diagnostics_;
  }
  /// Warnings-as-errors: when on, any analyzer warning refuses the
  /// module, mirroring a compiler's -Werror.
  void set_strict(bool strict) { strict_ = strict; }
  bool strict() const { return strict_; }

  /// When set, every compiled query form's rewritten program is also
  /// stored as a text file `<dir>/<module>.<pred>.<adornment>.crl` —
  /// the paper's §2 debugging aid. Empty disables.
  void set_listing_dir(std::string dir) { listing_dir_ = std::move(dir); }
  const std::string& listing_dir() const { return listing_dir_; }

  // ---- automatic optimization (paper §4.2, §5.3) ----
  /// When on (the default), compiling a query form runs the abstract-
  /// interpretation analysis and applies its decisions: argument indexes
  /// are created up front for every join probe pattern, and rule bodies
  /// are reordered bound-args-first (cardinality breaking ties). Per
  /// module, @no_reorder_joins forces reordering off and @reorder_joins
  /// forces it on regardless of this switch. Off disables both passes:
  /// bodies evaluate as written and only @make_index indexes exist —
  /// the paper's unoptimized baseline (see bench --no-auto-index).
  /// Takes effect for forms compiled after the call (forms are cached).
  void set_auto_optimize(bool on) { auto_optimize_ = on; }
  bool auto_optimize() const { return auto_optimize_; }

  // ---- join bytecode VM (docs/VM.md) ----
  /// When on (the default), eligible rewritten rule versions run on the
  /// join bytecode VM; ineligible shapes (aggregates, negation, ordered
  /// search, cross-module literals, ...) and modules annotated @no_vm
  /// stay on the interpreting ResolveTuple path, which remains the
  /// semantic oracle. Takes effect at the next module activation — the
  /// compiled bytecode is cached with the query form either way.
  void set_use_vm(bool on) { use_vm_ = on; }
  bool use_vm() const { return use_vm_; }

  /// Database-wide per-opcode VM counters (see coral_prof --bytecode).
  obs::VmCounters* vm_counters() { return &vm_counters_; }
  const obs::VmCounters& vm_counters() const { return vm_counters_; }

  /// The optimizer plan (inferred modes, join order, index plan) of a
  /// compiled query form; compiles on demand. See also
  /// ModuleManager::PlanListing and coral_prof --plan.
  StatusOr<std::string> PlanListing(const std::string& module_name,
                                    const std::string& pred,
                                    const std::string& adornment);
  /// Concatenated plans of every form compiled so far, with headers.
  std::string PlanReport() const;
  /// Bytecode verifier verdicts for every export form of every module
  /// (compiling forms on demand): per-form verified/rejected/warning
  /// counts and the non-note findings. See docs/VM.md "Verification" and
  /// coral_prof --verify.
  std::string BytecodeVerifierReport();

  // ---- observability (paper §6, §8: profiling & tracing) ----
  /// Global profiling switch: when on, every materialized or pipelined
  /// module activation records per-rule and per-iteration statistics in
  /// stats(). Modules annotated @profile record regardless of this
  /// switch. Off (the default) costs one branch per hook site.
  void set_profiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }

  /// Recorded statistics, keyed by module name, aggregated across
  /// activations until ClearStats().
  obs::StatsRegistry* stats() { return &stats_; }
  const obs::StatsRegistry& stats() const { return stats_; }
  void ClearStats() { stats_.Clear(); }

  /// Pretty-printed report over all recorded statistics.
  std::string ProfileReport() const;

  /// Structured trace events (iteration begin/end, rule fire, insert,
  /// module call) are emitted to `sink` while set; nullptr disables.
  /// The sink is unowned and is called from serial engine code only.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_sink_; }

  // ---- parallel evaluation ----
  /// Default worker count for the parallel semi-naive fixpoint. Modules
  /// annotated @parallel(N) override it; modules without @parallel also
  /// use it, so embedding code can parallelize any eligible materialized
  /// module without touching CRL text. 1 (the default) is the sequential
  /// engine, byte-for-byte. Values are clamped to [1, kMaxParallelThreads].
  void set_num_threads(int n);
  int num_threads() const { return num_threads_; }
  /// The shared worker pool, created on first use with at least `threads`
  /// workers (grown by recreation if a later caller needs more).
  ThreadPool* thread_pool(size_t threads);

  // ---- concurrent sessions (docs/SERVER.md) ----
  /// The current committed snapshot: publishes any relation state changed
  /// since the last acquisition (bumping the epoch) and returns the view.
  /// Cheap when nothing committed in between — a shared-lock read of the
  /// cached view. The view (and every table it references) stays valid
  /// for the life of the database.
  std::shared_ptr<const ReadView> AcquireReadSnapshot();

  /// Epoch of the most recent publication (0 before the first).
  uint64_t snapshot_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Declares that multiple Session threads will use this database:
  /// permanently enables concurrent term construction and symbol
  /// interning. Sticky — set_num_threads can no longer drop the locks.
  /// Called automatically by Session; safe to call at any time.
  void EnableConcurrentSessions();

  /// The commit lock. Writer commits and module-activation structural
  /// setup (MaterializedInstance::Init) hold it exclusively; snapshot
  /// acquisition holds it briefly shared.
  SharedMutex* commit_mutex() CORAL_RETURN_CAPABILITY(commit_mu_) {
    return &commit_mu_;
  }

 private:
  Status ApplyIndexDecl(const IndexDecl& decl) CORAL_REQUIRES(commit_mu_);
  Status ApplyAggSelDecl(const AggSelDecl& decl) CORAL_REQUIRES(commit_mu_);
  StatusOr<std::vector<Query>> ConsultLocked(std::string_view text)
      CORAL_REQUIRES(commit_mu_);
  /// The body of ApplyUpdate, shared by every base-fact write.
  StatusOr<UpdateResult> CommitLocked(const UpdateBatch& batch)
      CORAL_REQUIRES(commit_mu_);
  /// Publishes dirty shared relations at a new epoch and rebuilds the
  /// cached view.
  void PublishLocked() CORAL_REQUIRES(commit_mu_);

  std::unique_ptr<TermFactory> factory_;
  BuiltinRegistry builtins_;
  std::unique_ptr<ModuleManager> modules_;

  /// Writer commits hold this exclusively; AcquireReadSnapshot holds it
  /// shared (or exclusively, when publication is due). Reader sessions do
  /// NOT hold it while evaluating — isolation comes from the ReadView.
  mutable SharedMutex commit_mu_{kRankCommitLock};
  /// Guards the base-relation map itself (lookups happen on reader
  /// threads while commits create relations).
  mutable Mutex base_mu_{kRankBaseMap};
  std::unordered_map<PredRef, Relation*, PredRefHash> base_
      CORAL_GUARDED_BY(base_mu_);
  std::vector<std::unique_ptr<Relation>> owned_relations_
      CORAL_GUARDED_BY(base_mu_);
  std::atomic<uint64_t> epoch_{0};
  /// True when live state may differ from the published view; set by
  /// every commit, cleared by PublishLocked. Written under the exclusive
  /// commit lock, read under at least the shared lock.
  std::atomic<bool> snapshot_stale_{true};
  std::shared_ptr<const ReadView> view_ CORAL_GUARDED_BY(commit_mu_);
  std::atomic<bool> concurrent_sessions_{false};
  std::string listing_dir_;
  DiagnosticList last_diagnostics_;
  bool strict_ = false;
  bool auto_optimize_ = true;
  bool use_vm_ = true;
  bool maintenance_enabled_ = true;
  obs::VmCounters vm_counters_;
  int num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  bool profiling_ = false;
  obs::StatsRegistry stats_;
  obs::MaintenanceCounters maintenance_counters_;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace coral

#endif  // CORAL_CORE_DATABASE_H_
