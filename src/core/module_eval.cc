#include "src/core/module_eval.h"

#include <functional>
#include <set>

#include "src/core/database.h"
#include "src/core/ordered_search.h"
#include "src/obs/report.h"
#include "src/rewrite/existential.h"
#include "src/util/logging.h"

namespace coral {

StatusOr<std::unique_ptr<GoalSource>> ExternalResolver::Make(
    const Literal* lit, BindEnv* env) const {
  PredRef pred = lit->pred_ref();
  if (const BuiltinFn* fn = db_->builtins()->Find(pred.sym->name,
                                                  pred.arity)) {
    return std::unique_ptr<GoalSource>(
        new BuiltinGoalSource(lit, env, fn, db_->factory()));
  }
  if (Relation* rel = db_->FindBaseRelation(pred)) {
    if (lit->negated) {
      return std::unique_ptr<GoalSource>(
          new NegationGoalSource(lit, env, rel));
    }
    return std::unique_ptr<GoalSource>(
        new RelationGoalSource(lit, env, rel, 0, kMaxMark));
  }
  if (db_->modules()->Exports(pred)) {
    ModuleManager* mm = db_->modules();
    IteratorGoalSource::Opener opener =
        [mm, pred](std::span<const TermRef> args) {
          return mm->OpenQuery(pred, args);
        };
    if (lit->negated) {
      return std::unique_ptr<GoalSource>(
          new NegatedIteratorGoalSource(lit, env, std::move(opener)));
    }
    return std::unique_ptr<GoalSource>(
        new IteratorGoalSource(lit, env, std::move(opener)));
  }
  // Only exported predicates are visible outside their module (§5).
  const std::string owner = db_->modules()->LocalOwner(pred);
  if (!owner.empty()) {
    return Status::FailedPrecondition(
        "predicate " + pred.ToString() + " is local to module " + owner +
        " and not exported");
  }
  // Unknown predicate: the deductive-database convention is an empty
  // relation (created so later inserts are visible).
  Relation* rel = db_->GetOrCreateBaseRelation(pred);
  if (lit->negated) {
    return std::unique_ptr<GoalSource>(new NegationGoalSource(lit, env, rel));
  }
  return std::unique_ptr<GoalSource>(
      new RelationGoalSource(lit, env, rel, 0, kMaxMark));
}

MaterializedInstance::MaterializedInstance(const RewrittenProgram* prog,
                                           const ModuleDecl* decl,
                                           Database* db)
    : prog_(prog), decl_(decl), db_(db) {}

MaterializedInstance::~MaterializedInstance() = default;

Relation* MaterializedInstance::internal(const PredRef& pred) const {
  auto it = internal_.find(pred);
  return it == internal_.end() ? nullptr : it->second.get();
}

Relation* MaterializedInstance::staging(const PredRef& magic_pred) const {
  auto it = staging_.find(magic_pred);
  return it == staging_.end() ? nullptr : it->second.get();
}

Relation* MaterializedInstance::answer_relation() const {
  return internal(prog_->answer_pred);
}

const AggHeadSpec* MaterializedInstance::AggSpecFor(uint32_t rule_index) {
  auto it = agg_specs_.find(rule_index);
  if (it == agg_specs_.end()) {
    it = agg_specs_
             .emplace(rule_index,
                      AnalyzeAggHead(prog_->rules[rule_index].head))
             .first;
  }
  return &it->second;
}

Status MaterializedInstance::Init() {
  // Structural mutation of shared base relations (attaching indexes and
  // aggregate selections, creating referenced relations) is a commit:
  // exclude concurrent readers' lazy snapshot publication for the
  // duration. Ranks: commit (4) < module mu_ (6) < base map (8), so the
  // Exports/LocalOwner and GetOrCreateBaseRelation calls below nest fine.
  WriterLock structural(db_->commit_mutex());
  // Internal relations: every rule head, plus done relations for Ordered
  // Search, plus staging relations for magic predicates under OS.
  for (const Rule& r : prog_->rules) {
    PredRef head = r.head.pred_ref();
    if (internal_.count(head)) continue;
    internal_.emplace(head, std::make_unique<HashRelation>(
                                head.sym->name, head.arity));
  }
  // The answer predicate may have no rules (e.g. empty module); ensure it.
  if (!internal_.count(prog_->answer_pred)) {
    internal_.emplace(prog_->answer_pred,
                      std::make_unique<HashRelation>(
                          prog_->answer_pred.sym->name,
                          prog_->answer_pred.arity));
  }
  if (prog_->uses_magic && !internal_.count(prog_->seed_pred)) {
    internal_.emplace(prog_->seed_pred,
                      std::make_unique<HashRelation>(
                          prog_->seed_pred.sym->name, prog_->seed_pred.arity));
  }
  for (const auto& [magic, done] : prog_->done_of) {
    if (!internal_.count(done)) {
      internal_.emplace(done, std::make_unique<HashRelation>(done.sym->name,
                                                             done.arity));
    }
  }
  if (prog_->ordered_search) {
    for (const auto& [adorned, magic] : prog_->magic_of) {
      if (!internal_.count(magic)) {
        internal_.emplace(magic, std::make_unique<HashRelation>(
                                     magic.sym->name, magic.arity));
      }
      if (!staging_.count(magic)) {
        auto rel = std::make_unique<HashRelation>(
            "stage$" + magic.sym->name, magic.arity);
        rel->set_multiset(true);  // regenerations must be observable
        staging_.emplace(magic, std::move(rel));
      }
    }
  }

  // Multiset semantics (paper §4.2): duplicate checks only on magic.
  for (Symbol ms : decl_->multiset_preds) {
    for (auto& [pred, rel] : internal_) {
      auto oit = prog_->original_of.find(pred);
      Symbol orig = oit != prog_->original_of.end() ? oit->second.sym
                                                    : pred.sym;
      if (orig == ms) rel->set_multiset(true);
    }
  }

  // Aggregate selections (paper §5.5.2) attach to every internal relation
  // whose original predicate matches the declaration; declarations naming
  // a base (module-external) predicate attach to the database relation.
  for (const AggSelDecl& decl : decl_->agg_selections) {
    bool matched_internal = false;
    for (auto& [pred, rel] : internal_) {
      auto oit = prog_->original_of.find(pred);
      Symbol orig = oit != prog_->original_of.end() ? oit->second.sym
                                                    : pred.sym;
      if (orig != decl.pred || pred.arity != decl.pattern.size()) continue;
      matched_internal = true;
      rel->AddAggregateSelection(std::make_unique<AggregateSelection>(
          decl.kind, decl.pattern, decl.var_count, decl.group_args,
          decl.agg_arg));
    }
    if (!matched_internal) {
      PredRef base{decl.pred, static_cast<uint32_t>(decl.pattern.size())};
      db_->GetOrCreateBaseRelation(base)->AddAggregateSelection(
          std::make_unique<AggregateSelection>(decl.kind, decl.pattern,
                                               decl.var_count,
                                               decl.group_args,
                                               decl.agg_arg));
    }
  }

  // Declared indices (paper §5.5.1), same internal-then-base resolution.
  for (const IndexDecl& decl : decl_->indexes) {
    bool matched_internal = false;
    for (auto& [pred, rel] : internal_) {
      auto oit = prog_->original_of.find(pred);
      Symbol orig = oit != prog_->original_of.end() ? oit->second.sym
                                                    : pred.sym;
      if (orig != decl.pred || pred.arity != decl.pattern.size()) continue;
      matched_internal = true;
      if (decl.argument_form) {
        rel->AddArgumentIndex(decl.cols);
      } else {
        rel->AddPatternIndex(decl.pattern, decl.var_count, decl.key_slots);
      }
    }
    if (!matched_internal) {
      PredRef base{decl.pred, static_cast<uint32_t>(decl.pattern.size())};
      auto* rel = dynamic_cast<HashRelation*>(
          db_->GetOrCreateBaseRelation(base));
      if (rel != nullptr) {
        if (decl.argument_form) {
          rel->AddArgumentIndex(decl.cols);
        } else {
          rel->AddPatternIndex(decl.pattern, decl.var_count,
                               decl.key_slots);
        }
      }
    }
  }

  // Optimizer-selected indices (paper §4.2 index selection; §5.3
  // "generates annotations to create any indexes that may be useful"):
  // the rewriter planned one argument index per (relation, bound column
  // set) probe; apply each to the internal relation, or to the base
  // relation when the predicate resolves outside the module. Full-width
  // indexes are kept too: they serve fully-bound lookups (negation as
  // set-difference probes the whole tuple).
  for (const PlannedIndex& pi : prog_->index_plan) {
    HashRelation* target = nullptr;
    auto it = internal_.find(pi.pred);
    if (it != internal_.end()) {
      target = it->second.get();
    } else if (db_->builtins()->Find(pi.pred.sym->name, pi.pred.arity) ==
               nullptr &&
               !db_->modules()->Exports(pi.pred) &&
               db_->modules()->LocalOwner(pi.pred).empty()) {
      target = dynamic_cast<HashRelation*>(
          db_->GetOrCreateBaseRelation(pi.pred));
    }
    if (target != nullptr) target->AddArgumentIndex(pi.cols);
  }
  // Index the answer relation on the query form's bound positions so
  // callers' filtered scans are cheap.
  if (!prog_->bound_positions.empty() &&
      prog_->bound_positions.size() < prog_->answer_pred.arity) {
    auto* rel = dynamic_cast<HashRelation*>(answer_relation());
    if (rel != nullptr) rel->AddArgumentIndex(prog_->bound_positions);
  }

  // Parallel eligibility. The parallel engine covers plain materialized
  // BSN/Naive evaluation; everything else falls back to the sequential
  // engine: Ordered Search (staging interception), @explain (derivation
  // recording), PSN (relies on immediate availability of facts derived
  // earlier in the same pass), inter-module calls (nested evaluation),
  // impure builtins (write/writeln output order, assert/retract commits),
  // and predicates local to other modules (diagnosed sequentially).
  parallel_safe_ = !prog_->ordered_search && !decl_->explain &&
                   decl_->fixpoint != FixpointKind::kPredicateSemiNaive;
  for (const Rule& r : prog_->rules) {
    if (!parallel_safe_) break;
    for (const Literal& lit : r.body) {
      PredRef pred = lit.pred_ref();
      if (internal_.count(pred)) continue;
      if (const BuiltinEntry* builtin =
              db_->builtins()->Lookup(pred.sym->name, pred.arity)) {
        if (!builtin->modes.pure) parallel_safe_ = false;
        continue;
      }
      if (db_->modules()->Exports(pred) ||
          !db_->modules()->LocalOwner(pred).empty()) {
        parallel_safe_ = false;
        continue;
      }
      // Plain base relation: create it now, while still single-threaded,
      // so workers never race through GetOrCreateBaseRelation.
      db_->GetOrCreateBaseRelation(pred);
    }
  }

  size_t n_sccs = prog_->seminaive.sccs.size();
  prev_marks_.resize(n_sccs);
  psn_marks_.resize(n_sccs);
  once_done_.assign(n_sccs, false);
  for (size_t s = 0; s < n_sccs; ++s) {
    psn_marks_[s].assign(prog_->seminaive.sccs[s].versions.size(), 0);
  }

  // Join bytecode: bind compiled rule versions to this activation's
  // relations. Gated here (not at compile time) so set_use_vm takes
  // effect at the next activation without recompiling the form.
  if (db_->use_vm() && vm_module_ != nullptr && !decl_->no_vm) {
    BindVmPrograms();
  }

  // Profiling: bind this activation to the module's profile. The rule
  // slots are created here, while single-threaded; counters aggregate
  // across activations under the module's name.
  if (decl_->profile || db_->profiling()) {
    profile_ = db_->stats()->GetOrCreate(decl_->name);
    profile_->EnsureRules(prog_->rules.size(), [this](size_t i) {
      return prog_->rules[i].ToString();
    });
    profile_->RecordActivation();
  }
  return Status::OK();
}

void MaterializedInstance::BindVmPrograms() {
  size_t n_sccs = prog_->seminaive.sccs.size();
  if (vm_module_->sccs.size() != n_sccs) return;  // stale bytecode
  vm_versions_.resize(n_sccs);
  vm_once_.resize(n_sccs);

  // Binds one compiled rule to relations, or leaves it null when the
  // run-time shape disagrees with what the compiler assumed: a body
  // predicate that now resolves to a builtin or another module's export
  // (the registries may have changed since the form compiled), or a head
  // that is not a plain internal set relation. The interpreter restores
  // full semantics for such rules; on mid-rule fallback the tuples the VM
  // already inserted must be harmless to re-derive, hence the multiset
  // and aggregate-selection head exclusions.
  auto bind = [&](const vm::RuleProgram* rp) {
    VmBoundRule b;
    if (rp == nullptr) return b;
    auto hit = internal_.find(rp->head_pred);
    HashRelation* head = hit == internal_.end() ? nullptr : hit->second.get();
    if (head == nullptr || head->multiset() || !head->selections().empty()) {
      db_->vm_counters()->bind_fallbacks.fetch_add(1,
                                                  std::memory_order_relaxed);
      return b;
    }
    std::vector<Relation*> rels;
    for (const PredRef& pred : rp->preds) {
      Relation* rel = internal(pred);
      if (rel == nullptr) {
        if (db_->builtins()->Find(pred.sym->name, pred.arity) != nullptr ||
            db_->modules()->Exports(pred) ||
            !db_->modules()->LocalOwner(pred).empty()) {
          db_->vm_counters()->bind_fallbacks.fetch_add(
              1, std::memory_order_relaxed);
          return b;
        }
        rel = db_->GetOrCreateBaseRelation(pred);
      }
      rels.push_back(rel);
    }
    b.prog = rp;
    b.rels = std::move(rels);
    b.head = head;
    return b;
  };

  for (size_t s = 0; s < n_sccs; ++s) {
    const vm::SccPrograms& sp = vm_module_->sccs[s];
    vm_versions_[s].resize(prog_->seminaive.sccs[s].versions.size());
    vm_once_[s].resize(prog_->seminaive.sccs[s].once.size());
    for (size_t i = 0; i < vm_versions_[s].size() && i < sp.versions.size();
         ++i) {
      vm_versions_[s][i] = bind(sp.versions[i].get());
      vm_active_ = vm_active_ || vm_versions_[s][i].prog != nullptr;
    }
    for (size_t i = 0; i < vm_once_[s].size() && i < sp.once.size(); ++i) {
      vm_once_[s][i] = bind(sp.once[i].get());
      vm_active_ = vm_active_ || vm_once_[s][i].prog != nullptr;
    }
  }
}

const MaterializedInstance::VmBoundRule* MaterializedInstance::VmRuleFor(
    size_t scc_idx, bool once, size_t version_idx) const {
  const auto& table = once ? vm_once_ : vm_versions_;
  if (scc_idx >= table.size() || version_idx >= table[scc_idx].size()) {
    return nullptr;
  }
  const VmBoundRule& b = table[scc_idx][version_idx];
  return b.prog == nullptr ? nullptr : &b;
}

size_t MaterializedInstance::VersionIndex(size_t scc_idx,
                                          const RuleVersion& v) const {
  const SccPlan& plan = prog_->seminaive.sccs[scc_idx];
  if (&v >= plan.versions.data() &&
      &v < plan.versions.data() + plan.versions.size()) {
    return static_cast<size_t>(&v - plan.versions.data());
  }
  CORAL_DCHECK(&v >= plan.once.data() &&
               &v < plan.once.data() + plan.once.size());
  return static_cast<size_t>(&v - plan.once.data());
}

std::string MaterializedInstance::DisplayName(const PredRef& pred) const {
  auto it = prog_->original_of.find(pred);
  return it != prog_->original_of.end() ? it->second.sym->name
                                        : pred.sym->name;
}

Status MaterializedInstance::Seed(std::span<const TermRef> query_args) {
  if (!prog_->uses_magic) return Status::OK();
  std::vector<TermRef> bound;
  for (uint32_t pos : prog_->bound_positions) {
    CORAL_CHECK(pos < query_args.size());
    bound.push_back(query_args[pos]);
  }
  const Tuple* seed = ResolveTuple(bound, db_->factory());
  if (prog_->ordered_search) {
    auto dit = prog_->done_of.find(prog_->seed_pred);
    Relation* done =
        dit != prog_->done_of.end() ? internal(dit->second) : nullptr;
    if (done != nullptr && done->Contains(seed)) return Status::OK();
    Relation* magic = internal(prog_->seed_pred);
    if (magic != nullptr && magic->Contains(seed)) return Status::OK();
    pending_seeds_.push_back(seed);
    complete_ = false;
    return Status::OK();
  }
  Relation* magic = internal(prog_->seed_pred);
  CORAL_CHECK(magic != nullptr);
  if (magic->Insert(seed)) {
    // Engine-fed tuple: pinned against maintenance deletion, and the
    // resumed evaluation will derive tuples the support counts missed.
    engine_seeds_[prog_->seed_pred].insert(seed);
    counts_valid_ = false;
    if (complete_) {
      // Save-module resumption: new subgoal, continue incrementally.
      complete_ = false;
      cur_scc_ = 0;
    }
  }
  return Status::OK();
}

Status MaterializedInstance::RunStep(bool* done) {
  if (complete_) {
    *done = true;
    return Status::OK();
  }
  if (in_step_) {
    return Status::FailedPrecondition(
        "recursive invocation of module " + decl_->name +
        " during its own evaluation (disallowed for save modules, "
        "paper §5.4.2)");
  }
  in_step_ = true;
  // Sinks may attach between steps (a save module outlives a trace
  // session); re-fetch here, at a serial point.
  trace_ = db_->trace_sink();
  Status st;
  if (prog_->ordered_search) {
    OrderedSearchEval os(this);
    st = os.Run();
    complete_ = true;
  } else {
    size_t n = prog_->seminaive.sccs.size();
    if (cur_scc_ >= n) {
      complete_ = true;
    } else if (!once_done_[cur_scc_]) {
      st = RunOnceRules(cur_scc_);
      once_done_[cur_scc_] = true;
    } else {
      bool changed = false;
      st = RunIterationObserved(cur_scc_, &changed);
      ++stats_.iterations;
      if (st.ok() && !changed) {
        ++cur_scc_;
        if (cur_scc_ >= n) complete_ = true;
      }
    }
  }
  if (complete_ && trace_ != nullptr) {
    // This call made the activation complete (already-complete instances
    // return at the top).
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kModuleDone;
    ev.module = decl_->name;
    ev.iter = stats_.iterations;
    ev.count = stats_.inserts;
    trace_->Emit(ev);
  }
  in_step_ = false;
  *done = complete_;
  return st;
}

std::string MaterializedInstance::Explain(const Tuple* fact) const {
  // Pretty name: strip the adornment of rewritten predicates.
  auto display = [&](const PredRef& pred) { return DisplayName(pred); };
  // (pred, tuple) -> first recorded derivation.
  auto find = [&](const PredRef& pred,
                  const Tuple* t) -> const Derivation* {
    for (const Derivation& d : derivations_) {
      if (d.head_pred == pred && (d.head == t || d.head->Equals(*t))) {
        return &d;
      }
    }
    return nullptr;
  };

  std::string out;
  // Depth-first expansion with cycle guard.
  std::vector<const Tuple*> path;
  std::function<void(const PredRef&, const Tuple*, int)> expand =
      [&](const PredRef& pred, const Tuple* t, int depth) {
        out.append(static_cast<size_t>(depth) * 2, ' ');
        out += display(pred) + t->ToString();
        for (const Tuple* seen : path) {
          if (seen == t) {
            out += "  [cyclic]\n";
            return;
          }
        }
        const Derivation* d = find(pred, t);
        if (d == nullptr) {
          out += "  [base fact]\n";
          return;
        }
        out += "  <- rule " + std::to_string(d->rule_index) + ": " +
               prog_->rules[d->rule_index].ToString() + "\n";
        path.push_back(t);
        for (const auto& [bpred, btuple] : d->body) {
          expand(bpred, btuple, depth + 1);
        }
        path.pop_back();
      };

  // The fact may live under any head predicate whose original name and
  // arity match; try exact adorned preds first, then originals.
  for (const Derivation& d : derivations_) {
    if ((d.head == fact || d.head->Equals(*fact))) {
      expand(d.head_pred, fact, 0);
      // Profiling footer: how much work the module did overall, so an
      // explanation also answers "and what did it cost?".
      if (profile_ != nullptr) {
        out += "--\n";
        out += obs::RenderModuleProfile(*profile_);
      }
      return out;
    }
  }
  return "no recorded derivation for " + fact->ToString() +
         " (is @explain set and the fact derived?)\n";
}

Status MaterializedInstance::RunToCompletion() {
  bool done = false;
  while (!done) {
    CORAL_RETURN_IF_ERROR(RunStep(&done));
  }
  return Status::OK();
}

LazyAnswerIterator::LazyAnswerIterator(
    std::shared_ptr<MaterializedInstance> inst, const Tuple* goal)
    : inst_(std::move(inst)), goal_(goal) {
  goal_env_ = std::make_unique<BindEnv>(goal_->var_count());
}

const Tuple* LazyAnswerIterator::Next() {
  while (true) {
    if (batch_ != nullptr) {
      if (const Tuple* t = batch_->Next()) return t;
      batch_.reset();
    }
    Relation* rel = inst_->answer_relation();
    Mark cur = rel->Snapshot();
    if (cur > seen_) {
      std::vector<TermRef> refs;
      refs.reserve(goal_->arity());
      for (uint32_t i = 0; i < goal_->arity(); ++i) {
        refs.push_back({goal_->arg(i), goal_env_.get()});
      }
      goal_env_->ClearAll();
      batch_ = rel->Select(refs, seen_, cur);
      seen_ = cur;
      continue;
    }
    if (done_) return nullptr;
    Status st = inst_->RunStep(&done_);
    if (!st.ok()) {
      status_ = st;
      return nullptr;
    }
  }
}

}  // namespace coral
