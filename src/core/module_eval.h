// Copyright (c) 1993-style CORAL reproduction authors.
// Materialized module evaluation (paper §5.3, §5.4): bottom-up fixpoint
// over the compiled module structure (SCC plans with semi-naive rule
// versions), with Basic Semi-Naive / Predicate Semi-Naive / Naive
// strategies, lazy per-iteration answer delivery (§5.4.3), the save-module
// facility (§5.4.2), and hooks for Ordered Search (§5.4.1).

#ifndef CORAL_CORE_MODULE_EVAL_H_
#define CORAL_CORE_MODULE_EVAL_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/aggregate.h"
#include "src/core/join.h"
#include "src/core/update.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/rel/hash_relation.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/vm.h"

namespace coral {

class Database;

/// Evaluation counters, exposed for tests and the benchmark harness.
struct EvalStats {
  uint64_t solutions = 0;   // rule-body solutions enumerated
  uint64_t inserts = 0;     // tuples newly inserted (after dup checks)
  uint64_t iterations = 0;  // fixpoint iterations across SCCs
};

/// One recorded derivation step (the Explanation tool, enabled by the
/// @explain module annotation): head was derived by rule `rule_index`
/// from the listed body facts (relation literals only).
struct Derivation {
  PredRef head_pred;
  const Tuple* head = nullptr;
  uint32_t rule_index = 0;
  std::vector<std::pair<PredRef, const Tuple*>> body;
};

/// Attaches a declared aggregate selection (paper §5.5.2) to `rel`.
void AttachSelection(const AggSelDecl& decl, Relation* rel);
/// Attaches a declared index (paper §5.5.1) to `rel`; false when `rel`
/// keeps no in-memory indices.
bool AttachIndex(const IndexDecl& decl, Relation* rel);

/// The run-time state of one materialized (module, query form) activation:
/// relations for every internal predicate, fixpoint bookkeeping, and the
/// trail. Non-save modules create one per call and discard it afterwards
/// (paper §5.4.2 default); save modules keep one alive across calls.
class MaterializedInstance {
 public:
  MaterializedInstance(const RewrittenProgram* prog, const ModuleDecl* decl,
                       Database* db);
  ~MaterializedInstance();

  /// Creates internal relations; attaches aggregate selections, multiset
  /// flags, declared and optimizer-chosen indices.
  Status Init();

  /// Registers the query's bound arguments as a magic seed. With the
  /// save-module facility, re-seeding an already-covered subgoal is a
  /// no-op; a new subgoal resumes evaluation incrementally.
  Status Seed(std::span<const TermRef> query_args);

  /// Runs the fixpoint to completion (all SCCs stable).
  Status RunToCompletion();

  /// Lazy evaluation (paper §5.4.3): advances by one fixpoint iteration
  /// (or phase); sets *done when evaluation is complete. Callers poll the
  /// answer relation between steps.
  Status RunStep(bool* done);

  Relation* answer_relation() const;
  Relation* internal(const PredRef& pred) const;
  const ModuleDecl& decl() const { return *decl_; }
  const EvalStats& stats() const { return stats_; }
  bool in_step() const { return in_step_; }

  /// Renders the derivation tree of `fact` (an answer or intermediate
  /// tuple). Predicates are shown with their original names.
  std::string Explain(const Tuple* fact) const;

  /// The compiled join bytecode of this form (owned by the module
  /// manager's form cache); set before Init. Whether it runs is decided
  /// per activation: Database::use_vm(), @no_vm, and per-rule bind checks
  /// (docs/VM.md fallback rules).
  void set_vm_program(const vm::ModuleProgram* vm) { vm_module_ = vm; }

  // --- incremental view maintenance (maintenance.cc) ---
  /// True when this completed activation's shape is covered by the
  /// maintenance algorithms: materialized Basic Semi-Naive save module,
  /// no Ordered Search / @explain, no negation, no aggregation (rule
  /// heads or selections), no multiset relations, no inter-module body
  /// literals, every stored body predicate an in-memory relation, and no
  /// relation that may hold a non-ground tuple.
  /// Uncovered shapes fall back to invalidation (the caller drops the
  /// instance); so do rules Maintain cannot compile to bytecode and an
  /// instance whose answers are being scanned.
  bool CanMaintain() const;

  /// Brackets a scan of this instance's answers. Repairing answers under
  /// an open scan could feed it without bound (a query that asserts a
  /// fact per answer), so the scan keeps CanMaintain false.
  void OpenAnswerScan() { open_scans_.fetch_add(1); }
  void CloseAnswerScan() { open_scans_.fetch_sub(1); }

  /// Absorbs one committed base-relation delta into this completed
  /// instance: support-count propagation (the counting algorithm) for
  /// non-recursive SCCs and delete-rederive (DRed) plus a delta-first
  /// frontier loop that closes insertions for recursive ones
  /// (docs/MAINTENANCE.md). The caller checked CanMaintain and
  /// serializes writers. Every join runs on the VM; a rule outside the
  /// VM model ends the pass with Unsupported, and a VM error (the query
  /// deadline, a storage scan) ends it too. On error the instance may be
  /// half-updated and MUST be discarded.
  Status Maintain(const UpdateDelta& delta, UpdateResult* result);

 private:
  friend class OrderedSearchEval;
  friend class MaintenancePass;

  // --- observability (fixpoint.cc hooks) ---
  /// The display (pre-rewriting) name of an internal predicate.
  std::string DisplayName(const PredRef& pred) const;
  /// Runs RunIteration wrapped in iteration bookkeeping: trace events,
  /// wall/worker time and delta sizes when profiling or tracing is on.
  Status RunIterationObserved(size_t scc_idx, bool* changed);

  // --- fixpoint engine (fixpoint.cc) ---
  /// Per-predicate marks: an iteration-start snapshot or the previous one.
  using MarkMap = std::unordered_map<PredRef, Mark, PredRefHash>;

  /// The one insert path of derived heads: every rule application (VM or
  /// interpreter), the parallel merge barrier and maintenance insert
  /// through it. The head relation is resolved before the application
  /// starts (HeadRelation); Emit inserts, counts the insert and traces
  /// it. Staging inserts stay untraced: the subgoal is not visible yet.
  class HeadSink : public vm::TupleSink {
   public:
    HeadSink(MaterializedInstance* self, const PredRef& pred,
             HashRelation* rel);
    bool Emit(const Tuple* t) override;

   private:
    MaterializedInstance* self_;
    PredRef pred_;
    HashRelation* rel_;
    obs::TraceSink* trace_;  // null: untraced
  };

  Status RunOnceRules(size_t scc_idx);
  Status RunIteration(size_t scc_idx, bool* changed);
  /// Runs every SCC to a local fixpoint once; used by Ordered Search.
  Status RunGlobalPass(bool* changed);
  /// The one rule-application path (paper §4.2, §5.3). Applies version
  /// `v` over the mark windows of `cur` (null: PSN and once rules; see
  /// WindowFor), on the VM when a program is bound and no input may hold
  /// a non-ground tuple and through the interpreter otherwise, and hands
  /// every derived head tuple to `sink` (an aggregate head's through a
  /// GroupAccumulator; under @explain through a derivation recorder that
  /// wraps it). Parallel workers pass their share of a partitioned
  /// body scan (part_index < part_count) and their own trail and stats;
  /// sequential callers go through ApplyDirect. Returns whether any Emit
  /// reported a change.
  StatusOr<bool> ApplyVersion(size_t scc_idx, const RuleVersion& v,
                              bool naive_override, const MarkMap* cur,
                              uint32_t part_index, uint32_t part_count,
                              Trail* trail, EvalStats* stats,
                              vm::TupleSink* sink);
  /// ApplyVersion, unpartitioned, on this instance's trail and stats,
  /// inserting heads through a HeadSink.
  StatusOr<bool> ApplyDirect(size_t scc_idx, const RuleVersion& v,
                             bool naive_override, const MarkMap* cur);
  /// The body literal a worker's share is cut on: the delta scan when it
  /// is a positive internal literal, else the first positive internal
  /// literal; -1 when there is none. Fills `part` with its key column.
  int PartitionFor(const Rule& rule, const RuleVersion& v,
                   uint32_t part_index, uint32_t part_count,
                   PartitionSpec* part) const;
  StatusOr<std::unique_ptr<GoalSource>> MakeSource(const Literal* lit,
                                                   BindEnv* env, Mark from,
                                                   Mark to,
                                                   PartitionSpec part = {});

  // --- parallel fixpoint engine (fixpoint.cc) ---
  /// Worker count for this instance: @parallel(N) override or the
  /// Database-wide default, forced to 1 when the instance is not
  /// parallel-eligible (see parallel_safe_).
  size_t EffectiveThreads() const;
  /// One BSN/Naive iteration evaluated by `nthreads` workers over
  /// hash-partitioned delta scans with per-worker insert buffers, merged
  /// serially at the barrier. Produces relation sets identical to
  /// RunIteration: all reads are bounded by the iteration-start snapshot,
  /// so rule applications are data-independent within the iteration.
  Status RunIterationParallel(size_t scc_idx, bool* changed,
                              size_t nthreads);
  std::pair<Mark, Mark> WindowFor(size_t scc_idx, const PredRef& pred,
                                  RangeSel sel, const MarkMap* cur);
  /// Where derived `pred` tuples go: the staging relation of a magic
  /// head under Ordered Search (the context decides when a subgoal
  /// becomes available, paper §5.4.1), else the internal relation; null
  /// when `pred` is neither.
  HashRelation* HeadRelation(const PredRef& pred) const;
  /// A HeadSink on HeadRelation(pred), which must exist.
  HeadSink SinkFor(const PredRef& pred);
  const AggHeadSpec* AggSpecFor(uint32_t rule_index);

  // --- join bytecode VM (fixpoint.cc + Init) ---
  /// A compiled rule version bound to this activation's relations.
  struct VmBoundRule {
    const vm::RuleProgram* prog = nullptr;
    std::vector<Relation*> rels;  // per level
  };
  /// vm::Execute plus the Database-wide VmCounters bookkeeping shared by
  /// the fixpoint and maintenance: one application and its opcode counts.
  Status ExecuteVm(const vm::RunInput& in, vm::TupleSink* sink,
                   vm::RunStats* rst) const;
  /// Resolves relations for every compiled version; disqualifies rules
  /// whose bind-time shape the VM cannot run (a head with no
  /// HeadRelation, literals that now resolve to builtins or module
  /// calls). Called from Init.
  void BindVmPrograms();
  /// The bound program for a version, or null (interpret).
  const VmBoundRule* VmRuleFor(size_t scc_idx, bool once,
                               size_t version_idx) const;
  /// The index of `v` within its version table (versions or once).
  size_t VersionIndex(size_t scc_idx, const RuleVersion& v) const;

  const RewrittenProgram* prog_;
  const ModuleDecl* decl_;
  Database* db_;

  std::unordered_map<PredRef, std::unique_ptr<HashRelation>, PredRefHash>
      internal_;
  std::unordered_map<PredRef, std::unique_ptr<HashRelation>, PredRefHash>
      staging_;  // Ordered Search: magic-head inserts are intercepted here
  Trail trail_;

  // True when every evaluation strategy/feature in use is covered by the
  // parallel engine: materialized BSN/Naive, no Ordered Search, no
  // @explain, and no body literal that calls another module or a
  // side-effecting builtin (assert/retract). Computed once in Init.
  bool parallel_safe_ = false;

  // Lazy / resumable evaluation state.
  size_t cur_scc_ = 0;
  std::vector<bool> once_done_;
  bool complete_ = false;
  bool in_step_ = false;
  std::atomic<int> open_scans_{0};
  std::vector<const Tuple*> pending_seeds_;  // Ordered Search seeds

  // Per-SCC previous marks (BSN) and per-version marks (PSN).
  std::vector<MarkMap> prev_marks_;
  std::vector<std::vector<Mark>> psn_marks_;

  // Cached aggregation specs.
  std::unordered_map<uint32_t, AggHeadSpec> agg_specs_;

  // Incremental-maintenance state (maintenance.cc). Support counts map
  // each derived tuple of a non-recursive ("counting") SCC to its number
  // of rule derivations in the completed fixpoint. Built lazily at the
  // first maintenance pass against the reconstructed pre-update state;
  // dropped whenever a new magic seed resumes evaluation (the resumed
  // run derives tuples the counts would miss).
  bool counts_valid_ = false;
  std::unordered_map<PredRef, std::unordered_map<const Tuple*, int64_t>,
                     PredRefHash>
      support_counts_;
  // Tuples the engine inserted directly (magic seeds): pinned — never
  // deleted by maintenance, whatever their support count.
  std::unordered_map<PredRef, std::unordered_set<const Tuple*>, PredRefHash>
      engine_seeds_;
  // The maintenance joins as bytecode, compiled (and their probe indexes
  // created) once per instance at the first pass, before it mutates
  // anything. maint_status_ is Unsupported when some rule has no
  // program; every pass then ends before touching the instance.
  struct MaintProgram {
    std::unique_ptr<vm::RuleProgram> prog;  // null: not needed
    std::vector<int> body_pos;  // per level: body position; -1 = the list
  };
  struct MaintRule {
    MaintProgram in_order;                  // counting: support build
    std::vector<MaintProgram> delta_first;  // per body literal
    MaintProgram rederive;                  // DRed: head first
  };
  bool maint_compiled_ = false;
  Status maint_status_;
  std::vector<MaintRule> maint_rules_;  // per prog_->rules entry

  EvalStats stats_;
  std::vector<Derivation> derivations_;  // @explain only

  // Join bytecode, bound per activation in Init (null = interpret). The
  // tables mirror SccPlan::versions / SccPlan::once by index.
  const vm::ModuleProgram* vm_module_ = nullptr;
  std::vector<std::vector<VmBoundRule>> vm_versions_;
  std::vector<std::vector<VmBoundRule>> vm_once_;

  // Observability (src/obs/): both nullptr in the default configuration,
  // making every hook a single pointer test. profile_ is bound once in
  // Init (rule slots must exist first); trace_ is re-fetched from the
  // Database at each RunStep so sinks can attach to live save modules.
  obs::ModuleProfile* profile_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::vector<uint64_t> last_worker_ns_;  // filled by RunIterationParallel
};

/// TupleIterator over a materialized instance's answers that drives lazy
/// evaluation: when the answers seen so far are exhausted, it runs more
/// fixpoint iterations (paper §5.6: "answers are returned at the end of
/// each fixpoint iteration in the called module; further iterations are
/// carried out if more answers are requested").
class LazyAnswerIterator : public TupleIterator {
 public:
  LazyAnswerIterator(std::shared_ptr<MaterializedInstance> inst,
                     const Tuple* goal);
  const Tuple* Next() override;
  const Status& status() const override { return status_; }

 private:
  std::shared_ptr<MaterializedInstance> inst_;
  const Tuple* goal_;
  std::unique_ptr<BindEnv> goal_env_;
  Mark seen_ = 0;
  std::unique_ptr<TupleIterator> batch_;
  bool done_ = false;
  Status status_;
};

}  // namespace coral

#endif  // CORAL_CORE_MODULE_EVAL_H_
