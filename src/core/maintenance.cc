// Copyright (c) 1993-style CORAL reproduction authors.
// Incremental view maintenance for completed save-module instances
// (docs/MAINTENANCE.md). Non-recursive ("counting") SCCs carry a support
// count per derived tuple — the number of rule-body derivations — and
// base deltas are propagated as count increments/decrements, deleting a
// tuple exactly when its count reaches zero. Recursive SCCs use
// delete-rederive (DRed): an overestimate of deletions is cascaded over
// the pre-update state, candidates that survive a rederivation probe are
// kept, and a delta-first frontier loop closes insertions transitively:
// each round joins every tuple above the pre-maintenance marks that the
// previous round has not seen — rederivations, base-insertion heads and
// lower-stratum internal deltas alike — against the live state.
//
// State reconstruction: ApplyUpdate mutates base relations before
// Maintain runs, so during a pass the pre-update ("old") contents of a
// changed base predicate are reconstructed as live \ plus ∪ minus, and
// the half-updated ("mid") state as live \ plus. Internal relations are
// still old until the pass itself touches them.
//
// Every join runs on the bytecode VM. Each rule is compiled once per
// instance into the shapes the pass needs — body order (support
// counting), one delta-first body per stored literal, and head-first
// (rederivation) — and every level reads one state through a
// vm::LevelInput: a relation, a skip-set and an extra tuple list.

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/database.h"
#include "src/core/module_eval.h"
#include "src/core/module_manager.h"
#include "src/core/update.h"
#include "src/rel/hash_relation.h"
#include "src/rel/memory_relation.h"
#include "src/util/logging.h"
#include "src/vm/compiler.h"

namespace coral {

namespace {

/// Maintenance heads are counted or collected by the caller, never a
/// fixpoint "change".
template <typename F>
class CallbackSink : public vm::TupleSink {
 public:
  explicit CallbackSink(F* f) : f_(f) {}
  bool Emit(const Tuple* t) override {
    (*f_)(t);
    return false;
  }

 private:
  F* f_;
};

}  // namespace

/// One maintenance pass over one completed MaterializedInstance. Owns the
/// per-predicate delta lists threaded between SCCs; reads/writes the
/// instance's relations, marks, and support counts through friendship.
class MaintenancePass {
 public:
  MaintenancePass(MaterializedInstance* inst, UpdateResult* result)
      : inst_(inst), db_(inst->db_), result_(result) {}

  Status Run(const UpdateDelta& delta);

 private:
  /// The net delta of one predicate, as both list (for join positions)
  /// and set (for filtering). plus and minus are disjoint.
  struct PredDelta {
    std::vector<const Tuple*> plus;
    std::vector<const Tuple*> minus;
    std::unordered_set<const Tuple*> plus_set;
    std::unordered_set<const Tuple*> minus_set;
  };

  /// Which snapshot a non-delta body position is evaluated against.
  enum class BodyState {
    kNew,  // live contents
    kMid,  // live \ plus (old minus the deletions already applied)
    kOld,  // live \ plus ∪ minus (pre-update contents)
  };

  const RewrittenProgram& prog() const { return *inst_->prog_; }
  const std::vector<SccPlan>& sccs() const {
    return inst_->prog_->seminaive.sccs;
  }

  PredDelta* FindDelta(const PredRef& p) {
    auto it = deltas_.find(p);
    return it == deltas_.end() ? nullptr : &it->second;
  }
  PredDelta& DeltaFor(const PredRef& p) { return deltas_[p]; }

  /// The stored relation a body literal scans: module-internal first,
  /// else the base relation (created empty if absent, so an update
  /// mentioning a never-asserted predicate still evaluates).
  Relation* StoredRel(const PredRef& p) const {
    Relation* rel = inst_->internal(p);
    return rel != nullptr ? rel : db_->StoredRelation(p);
  }

  /// True when the literal scans a stored relation (internal or base) —
  /// as opposed to a builtin. CanMaintain already excluded negation and
  /// module calls.
  bool IsStored(const Literal& lit) const {
    PredRef p = lit.pred_ref();
    return inst_->internal(p) != nullptr ||
           db_->Resolve(p).kind != Definer::kBuiltin;
  }

  /// Magic seeds (and defensively pinned zero-count tuples) are
  /// engine-fed: maintenance never deletes them.
  bool Pinned(const PredRef& p, const Tuple* t) const {
    auto it = inst_->engine_seeds_.find(p);
    return it != inst_->engine_seeds_.end() && it->second.count(t) > 0;
  }

  /// The distinct rules of one SCC plan (its versions share rule
  /// indices), in deterministic order.
  std::vector<uint32_t> SccRules(const SccPlan& plan) const {
    std::set<uint32_t> idx;
    for (const RuleVersion& v : plan.versions) idx.insert(v.rule_index);
    for (const RuleVersion& v : plan.once) idx.insert(v.rule_index);
    return std::vector<uint32_t>(idx.begin(), idx.end());
  }

  bool SccIsRecursive(const SccPlan& plan) const {
    std::unordered_set<PredRef, PredRefHash> members(plan.preds.begin(),
                                                     plan.preds.end());
    for (uint32_t ri : SccRules(plan)) {
      for (const Literal& lit : prog().rules[ri].body) {
        if (members.count(lit.pred_ref()) > 0) return true;
      }
    }
    return false;
  }

  /// True when some stored body predicate of the SCC has a pending delta.
  bool SccAffected(const SccPlan& plan) {
    for (uint32_t ri : SccRules(plan)) {
      for (const Literal& lit : prog().rules[ri].body) {
        if (!IsStored(lit)) continue;
        PredDelta* d = FindDelta(lit.pred_ref());
        if (d != nullptr && (!d->plus.empty() || !d->minus.empty())) {
          return true;
        }
      }
    }
    return false;
  }

  /// What one body level reads in `state`.
  vm::LevelInput StateInput(const PredRef& p, BodyState state) {
    vm::LevelInput in;
    in.rel = StoredRel(p);
    PredDelta* d = FindDelta(p);
    if (state == BodyState::kNew || d == nullptr) return in;
    if (!d->plus_set.empty()) in.skip = &d->plus_set;
    if (state == BodyState::kOld && !d->minus.empty()) in.extra = &d->minus;
    return in;
  }

  using MaintProgram = MaterializedInstance::MaintProgram;

  /// Runs one compiled maintenance join: its leading list level (if any)
  /// iterates `list`, body positions before `delta_pos` read `before` and
  /// the others `after` (the standard delta-join decomposition; -1 reads
  /// every position in `after`). Calls `on_head` with each derived head.
  template <typename F>
  Status Join(const MaintProgram& mp, int delta_pos,
              const std::vector<const Tuple*>* list, BodyState before,
              BodyState after, F on_head);

  /// Compiles every rule's maintenance programs and creates their probe
  /// indexes, once per instance. Unsupported when a rule shape is
  /// outside the VM model (a builtin other than a comparison on bound
  /// operands, a non-ground structured argument).
  Status CompilePrograms();

  /// Creates the argument indexes the compiled joins probe with: every
  /// PROBE_INDEX level over a stored relation requests its key columns.
  /// The evaluation-time planned indexes cover the planned join orders
  /// only, and a probe no index serves degenerates to a window scan —
  /// turning every delta join O(relation).
  void EnsureProbeIndexes(const MaintProgram& mp);

  /// Builds support counts for every counting SCC against the
  /// reconstructed pre-update state. Must run before the pass mutates any
  /// internal relation. Live tuples with no counted derivation (engine
  /// artifacts) are pinned.
  Status BuildCounts();

  Status ProcessCountingScc(const SccPlan& plan);
  Status ProcessRecursiveScc(size_t scc_idx);

  /// True when some rule of `plan` with head `p` re-derives `t` from the
  /// current live state.
  StatusOr<bool> Rederivable(const SccPlan& plan, const PredRef& p,
                             const Tuple* t);

  MaterializedInstance* inst_;
  Database* db_;
  UpdateResult* result_;

  std::unordered_map<PredRef, PredDelta, PredRefHash> deltas_;
  /// Pre-maintenance marks of every internal relation; the frontier
  /// loop's first windows and the final-delta scans start here.
  std::unordered_map<PredRef, Mark, PredRefHash> m0_;
};

template <typename F>
Status MaintenancePass::Join(const MaintProgram& mp, int delta_pos,
                             const std::vector<const Tuple*>* list,
                             BodyState before, BodyState after, F on_head) {
  const vm::RuleProgram& prog = *mp.prog;
  std::vector<vm::LevelInput> inputs(prog.levels.size());
  for (size_t li = 0; li < inputs.size(); ++li) {
    int pos = mp.body_pos[li];
    if (pos < 0) {
      inputs[li].extra = list;
    } else {
      inputs[li] = StateInput(prog.preds[li], pos < delta_pos ? before : after);
    }
  }
  vm::RunInput in;
  in.prog = &prog;
  in.levels = inputs;
  in.factory = db_->factory();
  CallbackSink<F> sink(&on_head);
  vm::RunStats rst;
  return inst_->ExecuteVm(in, &sink, &rst);
}

Status MaintenancePass::CompilePrograms() {
  if (inst_->maint_compiled_) return inst_->maint_status_;
  inst_->maint_compiled_ = true;
  vm::InternalSet internal;
  for (const auto& [p, rel] : inst_->internal_) internal.insert(p);
  vm::CompileEnv env;  // CanMaintain already refused module calls
  env.is_builtin = db_->builtins()->IsBuiltin();
  // `lead` (or null) becomes literal 0 in front of `body`; body_pos maps
  // each compiled level back to its position in the original rule.
  auto compile = [&](const Rule& rule, uint32_t ri, const Literal* lead,
                     int skip, MaintProgram* out) -> Status {
    Rule synth;
    synth.head = rule.head;
    synth.var_count = rule.var_count;
    std::vector<int> pos_of;
    if (lead != nullptr) {
      synth.body.push_back(*lead);
      pos_of.push_back(-1);
    }
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (static_cast<int>(i) == skip) continue;
      synth.body.push_back(rule.body[i]);
      pos_of.push_back(static_cast<int>(i));
    }
    vm::CompiledRule c = vm::CompileRule(synth, ri, {}, internal, env);
    if (c.prog == nullptr) {
      return Status::Unsupported("maintenance: rule " + rule.ToString() +
                                 " runs no bytecode: " + c.why);
    }
    for (const vm::Level& lv : c.prog->levels) {
      out->body_pos.push_back(pos_of[lv.lit]);
    }
    out->prog = std::move(c.prog);
    EnsureProbeIndexes(*out);
    return Status::OK();
  };

  auto compile_all = [&]() -> Status {
    inst_->maint_rules_.resize(prog().rules.size());
    for (const SccPlan& plan : sccs()) {
      const bool recursive = SccIsRecursive(plan);
      for (uint32_t ri : SccRules(plan)) {
        const Rule& rule = prog().rules[ri];
        MaterializedInstance::MaintRule& mr = inst_->maint_rules_[ri];
        if (recursive) {
          CORAL_RETURN_IF_ERROR(
              compile(rule, ri, &rule.head, -1, &mr.rederive));
        } else if (!rule.is_fact()) {  // BuildCounts counts facts directly
          CORAL_RETURN_IF_ERROR(
              compile(rule, ri, nullptr, -1, &mr.in_order));
        }
        mr.delta_first.resize(rule.body.size());
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (!IsStored(rule.body[i])) continue;
          CORAL_RETURN_IF_ERROR(compile(rule, ri, &rule.body[i],
                                        static_cast<int>(i),
                                        &mr.delta_first[i]));
        }
      }
    }
    return Status::OK();
  };
  inst_->maint_status_ = compile_all();
  return inst_->maint_status_;
}

void MaintenancePass::EnsureProbeIndexes(const MaintProgram& mp) {
  for (size_t li = 0; li < mp.prog->levels.size(); ++li) {
    const vm::Level& lv = mp.prog->levels[li];
    if (lv.scan != vm::Op::kProbeIndex || mp.body_pos[li] < 0) continue;
    auto* hr = dynamic_cast<HashRelation*>(StoredRel(mp.prog->preds[li]));
    if (hr != nullptr) hr->AddArgumentIndex(lv.key_cols);
  }
}

Status MaintenancePass::BuildCounts() {
  inst_->support_counts_.clear();
  for (const SccPlan& plan : sccs()) {
    if (SccIsRecursive(plan)) continue;
    for (uint32_t ri : SccRules(plan)) {
      const Rule& rule = prog().rules[ri];
      PredRef h = rule.head.pred_ref();
      auto& counts = inst_->support_counts_[h];
      if (rule.is_fact()) {
        // A non-ground fact would be in its head relation, which
        // CanMaintain refused.
        const Tuple* t = db_->factory()->MakeTuple(rule.head.args);
        CORAL_DCHECK(t->IsGround());
        ++counts[t];
        continue;
      }
      CORAL_RETURN_IF_ERROR(
          Join(inst_->maint_rules_[ri].in_order, -1, nullptr, BodyState::kOld,
               BodyState::kOld, [&counts](const Tuple* t) { ++counts[t]; }));
    }
    // Pin live tuples the counting pass cannot account for (engine-fed
    // facts): they must survive any sequence of decrements.
    for (const PredRef& p : plan.preds) {
      Relation* rel = inst_->internal(p);
      if (rel == nullptr) continue;
      const auto& counts = inst_->support_counts_[p];
      std::unique_ptr<TupleIterator> it = rel->Scan();
      while (const Tuple* t = it->Next()) {
        if (counts.find(t) == counts.end()) {
          inst_->engine_seeds_[p].insert(t);
        }
      }
    }
  }
  inst_->counts_valid_ = true;
  return Status::OK();
}

Status MaintenancePass::ProcessCountingScc(const SccPlan& plan) {
  // Phase 1: accumulate count deltas per head tuple. The delta join for
  // body position i sees positions j<i in the post-change state and j>i
  // in the pre-change state, so each lost/gained derivation is counted
  // exactly once across positions (the telescoping decomposition).
  std::unordered_map<PredRef,
                     std::unordered_map<const Tuple*, int64_t>, PredRefHash>
      dcounts;
  for (uint32_t ri : SccRules(plan)) {
    const Rule& rule = prog().rules[ri];
    PredRef h = rule.head.pred_ref();
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!IsStored(lit)) continue;
      PredDelta* d = FindDelta(lit.pred_ref());
      if (d == nullptr) continue;
      const MaintProgram& mp = inst_->maint_rules_[ri].delta_first[i];
      if (!d->minus.empty()) {
        CORAL_RETURN_IF_ERROR(
            Join(mp, static_cast<int>(i), &d->minus, BodyState::kMid,
                 BodyState::kOld,
                 [&dcounts, &h](const Tuple* t) { --dcounts[h][t]; }));
      }
      if (!d->plus.empty()) {
        CORAL_RETURN_IF_ERROR(
            Join(mp, static_cast<int>(i), &d->plus, BodyState::kNew,
                 BodyState::kMid,
                 [&dcounts, &h](const Tuple* t) { ++dcounts[h][t]; }));
      }
    }
  }

  // Phase 2: apply. Count transitions decide relation changes; the
  // resulting head deltas feed downstream SCCs.
  for (auto& [h, dc] : dcounts) {
    HashRelation* rel = inst_->HeadRelation(h);
    if (rel == nullptr) {
      return Status::Internal("maintenance: counting head " + h.ToString() +
                              " has no internal relation");
    }
    MaterializedInstance::HeadSink head(inst_, h, rel);
    auto& counts = inst_->support_counts_[h];
    PredDelta& hd = DeltaFor(h);
    for (const auto& [t, delta] : dc) {
      if (delta == 0) continue;
      auto it = counts.find(t);
      int64_t old_count = it == counts.end() ? 0 : it->second;
      int64_t new_count = old_count + delta;
      bool pinned = Pinned(h, t);
      if (new_count < 0) {
        if (!pinned) {
          return Status::Internal("maintenance: support count underflow for " +
                                  h.ToString());
        }
        new_count = 0;
      }
      if (new_count == 0) {
        if (it != counts.end()) counts.erase(it);
      } else if (it != counts.end()) {
        it->second = new_count;
      } else {
        counts.emplace(t, new_count);
      }
      if (old_count > 0 && new_count == 0 && !pinned) {
        if (!rel->Delete(t)) {
          return Status::Internal("maintenance: counted tuple missing from " +
                                  h.ToString());
        }
        hd.minus.push_back(t);
        hd.minus_set.insert(t);
        ++result_->derived_deleted;
      } else if (old_count == 0 && new_count > 0) {
        if (head.Emit(t)) {
          hd.plus.push_back(t);
          hd.plus_set.insert(t);
          ++result_->derived_inserted;
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<bool> MaintenancePass::Rederivable(const SccPlan& plan,
                                            const PredRef& p, const Tuple* t) {
  const std::vector<const Tuple*> one{t};
  for (uint32_t ri : SccRules(plan)) {
    if (!(prog().rules[ri].head.pred_ref() == p)) continue;
    bool found = false;
    CORAL_RETURN_IF_ERROR(Join(inst_->maint_rules_[ri].rederive, -1, &one,
                               BodyState::kNew, BodyState::kNew,
                               [&found](const Tuple*) { found = true; }));
    if (found) return true;
  }
  return false;
}

Status MaintenancePass::ProcessRecursiveScc(size_t scc_idx) {
  const SccPlan& plan = sccs()[scc_idx];
  std::unordered_set<PredRef, PredRefHash> members(plan.preds.begin(),
                                                   plan.preds.end());
  std::vector<uint32_t> rules = SccRules(plan);

  // Phase 1 (DRed overestimate): every derivation that used a deleted
  // tuple marks its head as a deletion candidate; candidates cascade
  // through same-SCC rules over the pre-update state until stable.
  std::unordered_map<PredRef, std::unordered_set<const Tuple*>, PredRefHash>
      cand;
  std::unordered_map<PredRef, std::vector<const Tuple*>, PredRefHash> frontier;
  auto add_candidate = [&](const PredRef& h, Relation* hrel, const Tuple* t) {
    if (Pinned(h, t)) return;
    if (!hrel->Contains(t)) return;
    if (!cand[h].insert(t).second) return;
    frontier[h].push_back(t);
  };
  for (uint32_t ri : rules) {
    const Rule& rule = prog().rules[ri];
    PredRef h = rule.head.pred_ref();
    Relation* hrel = inst_->internal(h);
    if (hrel == nullptr) continue;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!IsStored(lit)) continue;
      PredRef p = lit.pred_ref();
      if (members.count(p) > 0) continue;  // same-SCC deltas cascade below
      PredDelta* d = FindDelta(p);
      if (d == nullptr || d->minus.empty()) continue;
      CORAL_RETURN_IF_ERROR(Join(
          inst_->maint_rules_[ri].delta_first[i], static_cast<int>(i),
          &d->minus, BodyState::kOld, BodyState::kOld,
          [&](const Tuple* t) { add_candidate(h, hrel, t); }));
    }
  }
  while (!frontier.empty()) {
    auto cur = std::move(frontier);
    frontier.clear();
    for (uint32_t ri : rules) {
      const Rule& rule = prog().rules[ri];
      PredRef h = rule.head.pred_ref();
      Relation* hrel = inst_->internal(h);
      if (hrel == nullptr) continue;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& lit = rule.body[i];
        if (!IsStored(lit)) continue;
        PredRef p = lit.pred_ref();
        if (members.count(p) == 0) continue;
        auto fit = cur.find(p);
        if (fit == cur.end() || fit->second.empty()) continue;
        CORAL_RETURN_IF_ERROR(Join(
            inst_->maint_rules_[ri].delta_first[i], static_cast<int>(i),
            &fit->second, BodyState::kOld, BodyState::kOld,
            [&](const Tuple* t) { add_candidate(h, hrel, t); }));
      }
    }
  }

  // Phase 2: delete the overestimate.
  std::unordered_map<PredRef, std::vector<const Tuple*>, PredRefHash> deleted;
  std::unordered_map<PredRef, std::unordered_set<const Tuple*>, PredRefHash>
      deleted_set;
  for (auto& [p, set] : cand) {
    Relation* rel = inst_->internal(p);
    for (const Tuple* t : set) {
      if (rel->Delete(t)) {
        deleted[p].push_back(t);
        deleted_set[p].insert(t);
      }
    }
  }

  // Phase 3: rederive. A candidate with an alternative derivation from
  // the post-deletion state is re-inserted; its re-insertion lands above
  // m0, where Phase 5's frontier loop picks it up and closes transitive
  // rederivations.
  for (auto& [p, vec] : deleted) {
    MaterializedInstance::HeadSink head = inst_->SinkFor(p);
    for (const Tuple* t : vec) {
      CORAL_ASSIGN_OR_RETURN(bool again, Rederivable(plan, p, t));
      if (again) {
        head.Emit(t);
        ++result_->rederived;
      }
    }
  }

  // Phase 4: base-predicate insertions. New base tuples are not above
  // any internal mark, so Phase 5 cannot see them: join them in here,
  // delta-first. The heads land above m0 and seed Phase 5 (which also
  // carries internal-predicate insertions).
  for (uint32_t ri : rules) {
    const Rule& rule = prog().rules[ri];
    MaterializedInstance::HeadSink head =
        inst_->SinkFor(rule.head.pred_ref());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!IsStored(lit)) continue;
      PredRef p = lit.pred_ref();
      if (inst_->internal(p) != nullptr) continue;
      PredDelta* d = FindDelta(p);
      if (d == nullptr || d->plus.empty()) continue;
      CORAL_RETURN_IF_ERROR(Join(
          inst_->maint_rules_[ri].delta_first[i], static_cast<int>(i),
          &d->plus, BodyState::kNew, BodyState::kMid,
          [&](const Tuple* t) { head.Emit(t); }));
    }
  }

  // Phase 5: close the insertions transitively with a delta-first
  // semi-naive loop over the pass's own state sources. Rederivations,
  // kicked insertions, and lower-stratum internal deltas all sit above
  // their relations' pre-maintenance marks; each round joins exactly
  // that window (the frontier) against the live state, so the cost
  // scales with the delta, not the instance (the engine's own
  // RunIteration walks its planned join orders, which are not
  // delta-first and re-scan whole base relations per iteration). Set
  // semantics make the all-live evaluation safe: a derivation using two
  // new tuples is found from either one's frontier, and duplicates die
  // in the relation insert.
  std::unordered_set<PredRef, PredRefHash> touched;
  for (uint32_t ri : rules) {
    const Rule& rule = prog().rules[ri];
    if (inst_->internal(rule.head.pred_ref()) != nullptr) {
      touched.insert(rule.head.pred_ref());
    }
    for (const Literal& lit : rule.body) {
      if (inst_->internal(lit.pred_ref()) != nullptr) {
        touched.insert(lit.pred_ref());
      }
    }
  }
  std::unordered_map<PredRef, Mark, PredRefHash> start;
  for (const PredRef& p : touched) start[p] = m0_[p];
  while (true) {
    std::unordered_map<PredRef, std::vector<const Tuple*>, PredRefHash>
        front;
    for (const PredRef& p : touched) {
      Relation* rel = inst_->internal(p);
      std::unordered_set<const Tuple*> seen;
      std::unique_ptr<TupleIterator> it =
          rel->ScanRange(start[p], kMaxMark);
      while (const Tuple* t = it->Next()) {
        if (seen.insert(t).second) front[p].push_back(t);
      }
      start[p] = rel->Snapshot();  // round inserts land above this
    }
    if (front.empty()) break;
    ++inst_->stats_.iterations;
    for (uint32_t ri : rules) {
      const Rule& rule = prog().rules[ri];
      PredRef h = rule.head.pred_ref();
      if (inst_->internal(h) == nullptr) continue;
      MaterializedInstance::HeadSink head = inst_->SinkFor(h);
      for (size_t i = 0; i < rule.body.size(); ++i) {
        auto fit = front.find(rule.body[i].pred_ref());
        if (fit == front.end() || !IsStored(rule.body[i])) continue;
        CORAL_RETURN_IF_ERROR(Join(
            inst_->maint_rules_[ri].delta_first[i], static_cast<int>(i),
            &fit->second, BodyState::kNew, BodyState::kNew,
            [&](const Tuple* t) { head.Emit(t); }));
      }
    }
  }

  // Phase 6: net per-predicate deltas for downstream SCCs. Everything
  // stored above m0 and not deleted is a net insertion; a deleted tuple
  // that never came back is a net deletion.
  for (const PredRef& p : plan.preds) {
    Relation* rel = inst_->internal(p);
    if (rel == nullptr) continue;
    PredDelta& pd = DeltaFor(p);
    const auto& dset = deleted_set[p];
    std::unordered_set<const Tuple*> seen;
    std::unique_ptr<TupleIterator> it = rel->ScanRange(m0_[p], kMaxMark);
    while (const Tuple* t = it->Next()) {
      if (!seen.insert(t).second) continue;
      if (dset.count(t) > 0) continue;  // deleted then rederived: no change
      pd.plus.push_back(t);
      pd.plus_set.insert(t);
    }
    for (const Tuple* t : deleted[p]) {
      if (!rel->Contains(t)) {
        pd.minus.push_back(t);
        pd.minus_set.insert(t);
      }
    }
    result_->derived_inserted += pd.plus.size();
    result_->derived_deleted += pd.minus.size();
  }
  return Status::OK();
}

Status MaintenancePass::Run(const UpdateDelta& delta) {
  // Programs compile before anything is mutated, so a rule the VM cannot
  // run leaves the instance intact for the caller to invalidate.
  CORAL_RETURN_IF_ERROR(CompilePrograms());

  // Import the base-relation deltas.
  for (const auto& [p, vec] : delta.minus) {
    PredDelta& d = DeltaFor(p);
    d.minus = vec;
    d.minus_set.insert(vec.begin(), vec.end());
  }
  for (const auto& [p, vec] : delta.plus) {
    PredDelta& d = DeltaFor(p);
    d.plus = vec;
    d.plus_set.insert(vec.begin(), vec.end());
  }

  // Snapshot every internal relation before any mutation: the frontier
  // loop and the final-delta scans both anchor here.
  for (const auto& [p, rel] : inst_->internal_) {
    m0_[p] = rel->Snapshot();
  }


  // Support counts are built lazily, against the reconstructed pre-update
  // state, before the pass mutates anything. They persist across
  // successful passes; a new magic seed drops them (Seed()).
  if (!inst_->counts_valid_) {
    CORAL_RETURN_IF_ERROR(BuildCounts());
  }

  for (size_t s = 0; s < sccs().size(); ++s) {
    const SccPlan& plan = sccs()[s];
    if (!SccAffected(plan)) continue;
    if (SccIsRecursive(plan)) {
      CORAL_RETURN_IF_ERROR(ProcessRecursiveScc(s));
    } else {
      CORAL_RETURN_IF_ERROR(ProcessCountingScc(plan));
    }
  }
  return Status::OK();
}

bool MaterializedInstance::CanMaintain() const {
  if (!complete_ || in_step_ || open_scans_.load() > 0) return false;
  if (prog_->ordered_search || decl_->explain) return false;
  if (decl_->fixpoint != FixpointKind::kBasicSemiNaive) return false;
  if (!decl_->agg_selections.empty()) return false;
  if (!decl_->multiset_preds.empty()) return false;
  for (const SccPlan& scc : prog_->seminaive.sccs) {
    for (const RuleVersion& v : scc.versions) {
      if (v.is_aggregate) return false;
    }
    for (const RuleVersion& v : scc.once) {
      if (v.is_aggregate) return false;
    }
  }
  for (const auto& [p, rel] : internal_) {
    if (rel->multiset() || !rel->selections().empty() ||
        rel->MayHoldNonGround()) {
      return false;
    }
  }
  for (const Rule& r : prog_->rules) {
    for (const Literal& lit : r.body) {
      if (lit.negated) return false;
      PredRef p = lit.pred_ref();
      if (internal_.count(p) > 0) continue;
      // Builtins are vetted when the pass compiles: only comparisons run.
      Resolution r = db_->Resolve(p);
      if (r.kind == Definer::kExport || r.kind == Definer::kLocal) {
        return false;
      }
      if (r.kind == Definer::kBase &&
          (r.base->multiset() || !r.base->selections().empty() ||
           r.base->MayHoldNonGround() ||
           dynamic_cast<MemoryRelation*>(r.base) == nullptr)) {
        return false;
      }
    }
  }
  return true;
}

Status MaterializedInstance::Maintain(const UpdateDelta& delta,
                                      UpdateResult* result) {
  CORAL_CHECK(complete_ && !in_step_);
  trace_ = db_->trace_sink();
  MaintenancePass pass(this, result);
  Status st = pass.Run(delta);
  if (!st.ok()) counts_valid_ = false;
  return st;
}

}  // namespace coral
