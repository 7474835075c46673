// Fixpoint iteration engine of MaterializedInstance: Basic Semi-Naive,
// Predicate Semi-Naive and Naive drivers over the compiled SCC plans
// (paper §4.2, §5.3).

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_set>

#include "src/core/database.h"
#include "src/core/eval_context.h"
#include "src/core/module_eval.h"
#include "src/rel/readview.h"
#include "src/rewrite/existential.h"
#include "src/util/logging.h"

namespace coral {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Folds one rule application's plain opcode counts into the Database-wide
// atomic counters — one flush per application keeps atomics off the
// per-tuple path. Relaxed order: these are statistics, read at quiescent
// points (coral_prof --bytecode).
void FlushVmOps(obs::VmCounters* c, const vm::OpCounts& o) {
  auto add = [](std::atomic<uint64_t>& a, uint64_t n) {
    if (n != 0) a.fetch_add(n, std::memory_order_relaxed);
  };
  add(c->scan_full, o.scan_full);
  add(c->scan_delta, o.scan_delta);
  add(c->probe_index, o.probe_index);
  add(c->probe_scan_fallbacks, o.probe_scan_fallbacks);
  add(c->unify_arg, o.unify_arg);
  add(c->test_builtin, o.test_builtin);
  add(c->project, o.project);
  add(c->insert, o.insert);
}

}  // namespace

Status MaterializedInstance::ExecuteVm(const vm::RunInput& in,
                                       vm::TupleSink* sink,
                                       vm::RunStats* rst) const {
  Status st = vm::Execute(in, sink, rst);
  obs::VmCounters* vc = db_->vm_counters();
  vc->applications.fetch_add(1, std::memory_order_relaxed);
  FlushVmOps(vc, rst->ops);
  return st;
}

std::pair<Mark, Mark> MaterializedInstance::WindowFor(size_t scc_idx,
                                                     const PredRef& pred,
                                                     RangeSel sel,
                                                     const MarkMap* cur) {
  Relation* rel = internal(pred);
  if (rel == nullptr) return {0, kMaxMark};  // external: full extension
  Mark prev = 0;
  auto pit = prev_marks_[scc_idx].find(pred);
  if (pit != prev_marks_[scc_idx].end()) prev = pit->second;
  Mark cur_mark = kMaxMark;
  if (cur != nullptr) {
    auto cit = cur->find(pred);
    if (cit != cur->end()) cur_mark = cit->second;
  }
  switch (sel) {
    case RangeSel::kFull:
      return {0, cur_mark};
    case RangeSel::kOld:
      return {0, prev};
    case RangeSel::kDelta:
      return {prev, cur_mark};
  }
  CORAL_UNREACHABLE();
}

StatusOr<std::unique_ptr<GoalSource>> MaterializedInstance::MakeSource(
    const Literal* lit, BindEnv* env, Mark from, Mark to,
    PartitionSpec part) {
  PredRef pred = lit->pred_ref();
  if (Relation* rel = internal(pred)) {
    if (lit->negated) {
      return std::unique_ptr<GoalSource>(
          new NegationGoalSource(lit, env, rel));
    }
    return std::unique_ptr<GoalSource>(
        new RelationGoalSource(lit, env, rel, from, to, part));
  }
  return db_->OpenGoal(lit, env);
}

MaterializedInstance::HeadSink::HeadSink(MaterializedInstance* self,
                                         const PredRef& pred,
                                         HashRelation* rel)
    : self_(self),
      pred_(pred),
      rel_(rel),
      trace_(self->trace_ != nullptr && self->staging_.count(pred) == 0
                 ? self->trace_
                 : nullptr) {}

bool MaterializedInstance::HeadSink::Emit(const Tuple* t) {
  if (!rel_->Insert(t)) return false;
  ++self_->stats_.inserts;
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kInsert;
    ev.module = self_->decl_->name;
    ev.pred = self_->DisplayName(pred_);
    ev.detail = t->ToString();
    trace_->Emit(ev);
  }
  return true;
}

MaterializedInstance::HeadSink MaterializedInstance::SinkFor(
    const PredRef& pred) {
  HashRelation* rel = HeadRelation(pred);
  CORAL_CHECK(rel != nullptr) << pred.ToString();
  return HeadSink(this, pred, rel);
}

namespace {

// Head sink of parallel workers. Relations are frozen for the whole
// parallel phase, so derivations land in the worker's buffer and Emit
// never reports a change; the merge barrier inserts them. Contains is a
// pure read, so workers may pre-filter duplicates against the frozen
// relation — but only when Insert would do nothing more than that same
// duplicate check.
class WorkerBufferSink : public vm::TupleSink {
 public:
  WorkerBufferSink(HashRelation* head, InsertBuffer* buffer)
      : hrel_(head),
        buffer_(buffer),
        prefilter_(!head->multiset() && head->selections().empty()) {}

  bool Emit(const Tuple* t) override {
    if (prefilter_ && hrel_->Contains(t)) return false;
    buffer_->Add(t, /*dedup=*/!hrel_->multiset());
    return false;
  }

 private:
  HashRelation* hrel_;
  InsertBuffer* buffer_;
  bool prefilter_;
};

// The Explanation tool (@explain): wraps the head sink and records which
// body facts produced each head it inserts. Before each Emit the engine
// stores in slots()[k] the tuple that the k-th recorded literal matched.
class DerivationSink : public vm::TupleSink {
 public:
  /// `proto` names the head predicate, the rule and each recorded body
  /// literal's predicate.
  DerivationSink(vm::TupleSink* inner, std::vector<Derivation>* out,
                 Derivation proto)
      : inner_(inner),
        out_(out),
        proto_(std::move(proto)),
        slots_(proto_.body.size(), nullptr) {}

  const Tuple** slots() { return slots_.data(); }

  bool Emit(const Tuple* t) override {
    if (!inner_->Emit(t)) return false;
    Derivation& d = out_->emplace_back(proto_);
    d.head = t;
    for (size_t k = 0; k < slots_.size(); ++k) d.body[k].second = slots_[k];
    return true;
  }

 private:
  vm::TupleSink* inner_;
  std::vector<Derivation>* out_;
  Derivation proto_;
  std::vector<const Tuple*> slots_;
};

}  // namespace

int MaterializedInstance::PartitionFor(const Rule& rule, const RuleVersion& v,
                                       uint32_t part_index,
                                       uint32_t part_count,
                                       PartitionSpec* part) const {
  // Partitioning any single body scan splits the rule's solution set into
  // disjoint, covering shares, so each derivation is produced by exactly
  // one worker.
  int plit = -1;
  if (v.delta_pos >= 0 && !rule.body[v.delta_pos].negated &&
      internal(rule.body[v.delta_pos].pred_ref()) != nullptr) {
    plit = v.delta_pos;
  } else {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!lit.negated && internal(lit.pred_ref()) != nullptr) {
        plit = static_cast<int>(i);
        break;
      }
    }
  }
  if (plit < 0) return -1;

  // Partition column: the first argument of the partitioned literal that
  // is a join argument — non-ground, with every variable bound by an
  // earlier positive literal — so one subgoal's probes stay on one
  // worker. Constants are degenerate keys (every matching tuple hashes
  // alike); no join argument falls back to the whole-tuple hash.
  std::set<uint32_t> bound;
  for (int i = 0; i < plit; ++i) {
    const Literal& lit = rule.body[i];
    if (lit.negated) continue;
    std::set<uint32_t> vars = VarsOfLiteral(lit);
    bound.insert(vars.begin(), vars.end());
  }
  static const std::set<uint32_t> kNoVars;
  const Literal& p = rule.body[plit];
  int col = -1;
  for (uint32_t c = 0; c < p.args.size(); ++c) {
    if (TermBound(p.args[c], bound) && !TermBound(p.args[c], kNoVars)) {
      col = static_cast<int>(c);
      break;
    }
  }
  *part = PartitionSpec{col, part_index, part_count};
  return plit;
}

StatusOr<bool> MaterializedInstance::ApplyDirect(size_t scc_idx,
                                                 const RuleVersion& v,
                                                 bool naive_override,
                                                 const MarkMap* cur) {
  HeadSink sink = SinkFor(prog_->rules[v.rule_index].head.pred_ref());
  return ApplyVersion(scc_idx, v, naive_override, cur, 0, 1, &trail_,
                      &stats_, &sink);
}

StatusOr<bool> MaterializedInstance::ApplyVersion(
    size_t scc_idx, const RuleVersion& v, bool naive_override,
    const MarkMap* cur, uint32_t part_index, uint32_t part_count,
    Trail* trail, EvalStats* stats, vm::TupleSink* sink) {
  const Rule& rule = prog_->rules[v.rule_index];
  const bool psn = !v.evaluate_once && cur == nullptr;

  // Applications are counted before the empty-delta short circuits, once
  // per version per iteration — by partition 0 when workers share one.
  obs::RuleStats* rs =
      profile_ != nullptr ? &profile_->rule(v.rule_index) : nullptr;
  if (rs != nullptr && part_index == 0) {
    rs->applications.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t obs_sols0 = stats->solutions;
  const uint64_t obs_ins0 = stats->inserts;

  // Empty-delta short circuit (BSN/naive path; PSN has its own below):
  // without it a version whose delta literal sits late in the body would
  // enumerate the whole join prefix every iteration just to find nothing.
  if (!psn && v.delta_pos >= 0 && !naive_override) {
    PredRef dpred = rule.body[v.delta_pos].pred_ref();
    auto [dfrom, dto] = WindowFor(scc_idx, dpred, RangeSel::kDelta, cur);
    if (dfrom >= dto) return false;
    Relation* drel = internal(dpred);
    if (drel != nullptr) {
      // The window may span only empty subsidiaries; a quick probe.
      std::unique_ptr<TupleIterator> probe = drel->ScanRange(dfrom, dto);
      if (probe->Next() == nullptr) return false;
    }
  }

  // PSN: the delta window closes at a snapshot taken now, so facts
  // derived by earlier rules in this very pass are already visible
  // (immediate availability — the property PSN exploits, paper §4.2).
  const size_t version_idx = VersionIndex(scc_idx, v);
  Mark psn_from = 0, psn_to = 0;
  if (psn && v.delta_pos >= 0) {
    Relation* drel = internal(rule.body[v.delta_pos].pred_ref());
    CORAL_CHECK(drel != nullptr);
    psn_from = psn_marks_[scc_idx][version_idx];
    psn_to = drel->Snapshot();
    if (psn_from >= psn_to) return false;  // empty delta: skip
  }

  // A worker evaluates its share of one partitioned body scan; a rule
  // with an all-external body is evaluated whole by worker 0.
  PartitionSpec part;
  int plit = -1;
  if (part_count > 1) {
    plit = PartitionFor(rule, v, part_index, part_count, &part);
    if (plit < 0 && part_index != 0) return false;
  }

  // Per-literal mark windows, computed once and shared by the VM and the
  // interpreter — BSN, PSN and Naive differ only here, which is what lets
  // one compiled program serve every driver.
  std::vector<std::pair<Mark, Mark>> windows(rule.body.size(),
                                             {Mark{0}, kMaxMark});
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (lit.negated || internal(lit.pred_ref()) == nullptr) continue;
    if (psn) {
      if (static_cast<int>(i) == v.delta_pos) {
        windows[i] = {psn_from, psn_to};
      } else {
        windows[i] = {0, internal(lit.pred_ref())->Snapshot()};
      }
    } else {
      RangeSel sel = naive_override ? RangeSel::kFull : v.ranges[i];
      windows[i] = WindowFor(scc_idx, lit.pred_ref(), sel, cur);
    }
  }

  // The engine is chosen once, before the application starts: the VM
  // when a program is bound and no input may hold a non-ground tuple,
  // else the interpreter. Both read the windows above, and an aggregate
  // head is one sink either engine feeds.
  const VmBoundRule* vb = VmRuleFor(scc_idx, v.evaluate_once, version_idx);
  if (vb != nullptr &&
      std::any_of(vb->rels.begin(), vb->rels.end(),
                  [](const Relation* r) { return r->MayHoldNonGround(); })) {
    db_->vm_counters()->runtime_fallbacks.fetch_add(
        1, std::memory_order_relaxed);
    vb = nullptr;
  }
  std::optional<GroupAccumulator> acc;
  std::optional<DerivationSink> rec;
  std::vector<uint32_t> recorded;  // body positions a derivation records
  vm::TupleSink* head_sink = sink;
  if (v.is_aggregate) {
    // RunIterationParallel keeps aggregate versions off the workers.
    head_sink = &acc.emplace(AggSpecFor(v.rule_index), db_->factory());
  } else if (decl_->explain) {
    // Derivations record the body's relation literals: the VM's levels,
    // which the interpreter's positive non-builtin literals match
    // (sequential only: parallel_safe_ excludes @explain).
    for (uint32_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!lit.negated && (internal(lit.pred_ref()) != nullptr ||
                           db_->Resolve(lit.pred_ref()).kind !=
                               Definer::kBuiltin)) {
        recorded.push_back(i);
      }
    }
    Derivation proto{rule.head.pred_ref(), nullptr, v.rule_index, {}};
    for (uint32_t pos : recorded) {
      proto.body.emplace_back(rule.body[pos].pred_ref(), nullptr);
    }
    head_sink = &rec.emplace(sink, &derivations_, std::move(proto));
  }

  bool changed = false;
  uint64_t probes = 0;
  if (vb != nullptr) {
    std::vector<vm::LevelInput> inputs(vb->rels.size());
    for (size_t li = 0; li < inputs.size(); ++li) {
      inputs[li].rel = vb->rels[li];
      std::tie(inputs[li].from, inputs[li].to) =
          windows[vb->prog->levels[li].lit];
    }
    vm::RunInput in;
    in.prog = vb->prog;
    in.levels = inputs;
    in.factory = db_->factory();
    if (rec) {
      CORAL_DCHECK(recorded.size() == inputs.size());  // one per level
      in.matched = rec->slots();
    }
    if (plit >= 0) {
      in.part_lit = plit;
      in.part_col = part.col;
      in.part_index = part_index;
      in.part_count = part_count;
    }
    vm::RunStats rst;
    CORAL_RETURN_IF_ERROR(ExecuteVm(in, head_sink, &rst));
    changed = rst.changed;
    stats->solutions += rst.solutions;
    probes = rst.tuples;
  } else {
    BindEnv env(rule.var_count);
    std::vector<std::unique_ptr<GoalSource>> sources;
    sources.reserve(rule.body.size());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      auto [from, to] = windows[i];
      CORAL_ASSIGN_OR_RETURN(
          std::unique_ptr<GoalSource> src,
          MakeSource(&lit, &env, from, to,
                     static_cast<int>(i) == plit ? part : PartitionSpec{}));
      sources.push_back(std::move(src));
    }

    RuleCursor cursor(std::move(sources), v.backtrack,
                      decl_->intelligent_backtracking, trail);
    auto refs_of = [&env](const std::vector<const Arg*>& args) {
      std::vector<TermRef> refs;
      refs.reserve(args.size());
      for (const Arg* a : args) refs.push_back({a, &env});
      return refs;
    };
    const std::vector<TermRef> head_refs = refs_of(
        acc ? AggSpecFor(v.rule_index)->pre_head : rule.head.args);
    // The recorded literals' tuples, resolved per solution like the head.
    std::vector<std::vector<TermRef>> body_refs;
    for (uint32_t pos : recorded) {
      body_refs.push_back(refs_of(rule.body[pos].args));
    }
    while (cursor.Next()) {
      ++stats->solutions;
      for (size_t k = 0; k < body_refs.size(); ++k) {
        rec->slots()[k] = ResolveTuple(body_refs[k], db_->factory());
      }
      changed |= head_sink->Emit(ResolveTuple(head_refs, db_->factory()));
    }
    cursor.UndoAll();
    CORAL_RETURN_IF_ERROR(cursor.status());
    probes = cursor.probes();
  }

  uint64_t obs_derived = stats->solutions - obs_sols0;  // one head each
  if (acc) {
    CORAL_ASSIGN_OR_RETURN(std::vector<const Tuple*> tuples, acc->Finish());
    obs_derived = tuples.size();
    for (const Tuple* t : tuples) changed |= sink->Emit(t);
  }

  if (rs != nullptr) {
    // Disjoint covering partitions make the worker sums of solutions and
    // derived thread-count invariant; probes are exact but
    // schedule-dependent (see RuleStats). Worker sinks insert nothing:
    // the merge barrier counts their inserts.
    rs->probes.fetch_add(probes, std::memory_order_relaxed);
    rs->solutions.fetch_add(stats->solutions - obs_sols0,
                            std::memory_order_relaxed);
    rs->derived.fetch_add(obs_derived, std::memory_order_relaxed);
    rs->inserted.fetch_add(stats->inserts - obs_ins0,
                           std::memory_order_relaxed);
  }
  // Rule-fire events come from sequential applications only; a parallel
  // iteration reports its merged inserts instead.
  if (trace_ != nullptr && part_count == 1) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kRuleFire;
    ev.module = decl_->name;
    ev.scc = static_cast<int32_t>(scc_idx);
    ev.rule = static_cast<int32_t>(v.rule_index);
    ev.count = stats->solutions - obs_sols0;
    trace_->Emit(ev);
  }

  if (psn && v.delta_pos >= 0) {
    psn_marks_[scc_idx][version_idx] = psn_to;
  }
  return changed;
}

size_t MaterializedInstance::EffectiveThreads() const {
  if (!parallel_safe_) return 1;
  // Snapshot readers evaluate single-threaded: concurrency comes from the
  // sessions themselves, and the shared worker pool is not coordinated
  // with the per-thread ReadView installation.
  if (ActiveReadView() != nullptr) return 1;
  int64_t n = decl_->parallel_threads > 0 ? decl_->parallel_threads
                                          : db_->num_threads();
  if (n < 1) n = 1;
  if (n > kMaxParallelThreads) n = kMaxParallelThreads;
  return static_cast<size_t>(n);
}

Status MaterializedInstance::RunIterationParallel(size_t scc_idx,
                                                  bool* changed,
                                                  size_t nthreads) {
  *changed = false;
  const SccPlan& plan = prog_->seminaive.sccs[scc_idx];
  const bool naive = decl_->fixpoint == FixpointKind::kNaive;

  // Snapshot every internal relation, as in the sequential iteration. All
  // worker reads are bounded by this snapshot and all worker derivations
  // go to buffers, so relations are immutable for the whole parallel
  // phase; rule applications commute.
  MarkMap cur;
  cur.reserve(internal_.size());
  for (auto& [pred, rel] : internal_) cur[pred] = rel->Snapshot();

  // Aggregate heads need one accumulator over ALL body solutions of the
  // rule, so those versions run sequentially after the merge (over the
  // same snapshot — same input the sequential engine gives them).
  std::vector<const RuleVersion*> par_versions, agg_versions;
  std::unordered_set<uint32_t> seen;
  for (const RuleVersion& v : plan.versions) {
    if (naive && !seen.insert(v.rule_index).second) continue;
    (v.is_aggregate ? agg_versions : par_versions).push_back(&v);
  }

  // One buffer per (worker, version): merging version-major below keeps
  // cross-version duplicate attribution identical to the sequential
  // engine, which finishes inserting version k before starting k+1.
  struct Worker {
    Trail trail;
    std::vector<InsertBuffer> buffers;
    EvalStats stats;
    Status status;
    uint64_t ns = 0;
  };
  std::vector<Worker> workers(nthreads);
  for (Worker& wk : workers) wk.buffers.resize(par_versions.size());
  const bool timing = profile_ != nullptr;

  // Term construction must lock while workers run, even when the
  // Database default is single-threaded (e.g. @parallel(N) modules).
  // This flip (and its restore below) are the quiescent points the
  // MaybeMutexLock fiction in TermFactory relies on: no worker exists
  // before the flip, and Run() barriers before the restore, so the flag
  // itself is never read concurrently with a write. See
  // docs/CONCURRENCY.md, "The one fiction".
  TermFactory* factory = db_->factory();
  const bool was_concurrent = factory->concurrent();
  factory->set_concurrent(true);

  db_->thread_pool(nthreads)->Run(nthreads, [&](size_t w) {
    Worker& wk = workers[w];
    const uint64_t t0 = timing ? NowNs() : 0;
    for (size_t vi = 0; vi < par_versions.size(); ++vi) {
      const RuleVersion& v = *par_versions[vi];
      WorkerBufferSink sink(
          HeadRelation(prog_->rules[v.rule_index].head.pred_ref()),
          &wk.buffers[vi]);
      wk.status = ApplyVersion(scc_idx, v, naive, &cur,
                               static_cast<uint32_t>(w),
                               static_cast<uint32_t>(nthreads), &wk.trail,
                               &wk.stats, &sink)
                      .status();
      if (!wk.status.ok()) break;
    }
    if (timing) wk.ns = NowNs() - t0;
  });

  factory->set_concurrent(was_concurrent);

  last_worker_ns_.clear();
  for (const Worker& wk : workers) {
    CORAL_RETURN_IF_ERROR(wk.status);
    stats_.solutions += wk.stats.solutions;
    if (timing) last_worker_ns_.push_back(wk.ns);
  }

  // Merge barrier: serial inserts re-run the full duplicate / subsumption
  // / aggregate-selection machinery, so the relations end the iteration
  // with exactly the tuple sets the sequential insert order produces.
  for (size_t vi = 0; vi < par_versions.size(); ++vi) {
    const RuleVersion& v = *par_versions[vi];
    obs::RuleStats* rs =
        profile_ != nullptr ? &profile_->rule(v.rule_index) : nullptr;
    HeadSink sink = SinkFor(prog_->rules[v.rule_index].head.pred_ref());
    for (const Worker& wk : workers) {
      for (const Tuple* t : wk.buffers[vi].tuples()) {
        if (!sink.Emit(t)) continue;
        *changed = true;
        if (rs != nullptr) {
          rs->inserted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }

  for (const RuleVersion* v : agg_versions) {
    CORAL_ASSIGN_OR_RETURN(bool c, ApplyDirect(scc_idx, *v, naive, &cur));
    *changed |= c;
  }

  if (!naive) prev_marks_[scc_idx] = std::move(cur);
  return Status::OK();
}

Status MaterializedInstance::RunOnceRules(size_t scc_idx) {
  for (const RuleVersion& v : prog_->seminaive.sccs[scc_idx].once) {
    CORAL_RETURN_IF_ERROR(ApplyDirect(scc_idx, v, false, nullptr).status());
  }
  return Status::OK();
}

Status MaterializedInstance::RunIteration(size_t scc_idx, bool* changed) {
  *changed = false;
  const SccPlan& plan = prog_->seminaive.sccs[scc_idx];
  FixpointKind kind = decl_->fixpoint;

  if (kind == FixpointKind::kPredicateSemiNaive) {
    for (const RuleVersion& v : plan.versions) {
      CORAL_ASSIGN_OR_RETURN(bool c, ApplyDirect(scc_idx, v, false, nullptr));
      *changed |= c;
    }
    return Status::OK();
  }

  // BSN / Naive: within one iteration every read is bounded by a snapshot
  // taken at iteration start, so rule applications are data-independent —
  // the property the parallel engine exploits.
  size_t nthreads = EffectiveThreads();
  if (nthreads > 1) {
    return RunIterationParallel(scc_idx, changed, nthreads);
  }

  MarkMap cur;
  cur.reserve(internal_.size());
  for (auto& [pred, rel] : internal_) cur[pred] = rel->Snapshot();

  if (kind == FixpointKind::kNaive) {
    // One application per distinct rule, full windows.
    std::unordered_set<uint32_t> seen;
    for (const RuleVersion& v : plan.versions) {
      if (!seen.insert(v.rule_index).second) continue;
      CORAL_ASSIGN_OR_RETURN(bool c, ApplyDirect(scc_idx, v, true, &cur));
      *changed |= c;
    }
    return Status::OK();
  }

  for (const RuleVersion& v : plan.versions) {
    CORAL_ASSIGN_OR_RETURN(bool c, ApplyDirect(scc_idx, v, false, &cur));
    *changed |= c;
  }
  prev_marks_[scc_idx] = std::move(cur);
  return Status::OK();
}

Status MaterializedInstance::RunIterationObserved(size_t scc_idx,
                                                  bool* changed) {
  // Iteration-granularity deadline poll (the probe-granularity poll lives
  // in RuleCursor::Next); bounds how long a runaway fixpoint can overstay.
  CORAL_RETURN_IF_ERROR(CheckEvalDeadline());
  if (profile_ == nullptr && trace_ == nullptr) {
    return RunIteration(scc_idx, changed);
  }
  const uint64_t iter = stats_.iterations + 1;
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kIterBegin;
    ev.module = decl_->name;
    ev.scc = static_cast<int32_t>(scc_idx);
    ev.iter = iter;
    trace_->Emit(ev);
  }
  const uint64_t ins0 = stats_.inserts;
  const uint64_t sols0 = stats_.solutions;
  last_worker_ns_.clear();
  const uint64_t t0 = NowNs();
  Status st = RunIteration(scc_idx, changed);
  const uint64_t wall = NowNs() - t0;
  if (profile_ != nullptr) {
    obs::IterationStats it;
    it.scc = static_cast<uint32_t>(scc_idx);
    it.inserts = stats_.inserts - ins0;
    it.solutions = stats_.solutions - sols0;
    it.wall_ns = wall;
    it.worker_ns = std::move(last_worker_ns_);
    profile_->RecordIteration(std::move(it));
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kIterEnd;
    ev.module = decl_->name;
    ev.scc = static_cast<int32_t>(scc_idx);
    ev.iter = iter;
    ev.count = stats_.inserts - ins0;
    ev.ns = wall;
    trace_->Emit(ev);
  }
  return st;
}

Status MaterializedInstance::RunGlobalPass(bool* changed) {
  *changed = false;
  size_t n = prog_->seminaive.sccs.size();
  for (size_t s = 0; s < n; ++s) {
    if (!once_done_[s]) {
      CORAL_RETURN_IF_ERROR(RunOnceRules(s));
      once_done_[s] = true;
      *changed = true;
    }
    bool scc_changed = true;
    while (scc_changed) {
      CORAL_RETURN_IF_ERROR(RunIterationObserved(s, &scc_changed));
      ++stats_.iterations;
      *changed |= scc_changed;
    }
  }
  return Status::OK();
}

}  // namespace coral
