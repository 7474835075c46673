#include "src/core/pipeline.h"

#include "src/core/database.h"
#include "src/core/module_eval.h"
#include "src/rewrite/seminaive.h"
#include "src/util/logging.h"

namespace coral {

PipelinedModule::PipelinedModule(const ModuleDecl* decl, Database* db)
    : decl_(decl), db_(db) {
  // A pipelined module is stored as a list of predicates, each with the
  // rules defining it in the order they occur (paper §5.1).
  for (const Rule& r : decl_->rules) {
    rules_[r.head.pred_ref()].push_back(&r);
  }
}

bool PipelinedModule::Defines(const PredRef& pred) const {
  return rules_.count(pred) > 0;
}

PipelinedPredScan::PipelinedPredScan(const PipelinedModule* mod,
                                     const Literal* lit, BindEnv* env,
                                     Trail* trail, int depth)
    : mod_(mod), lit_(lit), env_(env), trail_(trail), depth_(depth) {
  if (depth_ > PipelinedModule::kMaxDepth) {
    status_ = Status::FailedPrecondition(
        "pipelined evaluation exceeded the maximum proof depth (cyclic "
        "data or unbounded recursion; consider @materialized)");
  }
}

PipelinedPredScan::~PipelinedPredScan() = default;

void PipelinedPredScan::DoReset() {
  cursor_.reset();
  active_rule_ = nullptr;
  rule_idx_ = 0;
}

void PipelinedPredScan::Abandon() {
  // Undo everything this scan bound (head unifications and body bindings
  // of all nesting levels happened after base_) and clear the suspension.
  GoalSource::Abandon();
  cursor_.reset();
  active_rule_ = nullptr;
  rule_idx_ = 0;
}

bool PipelinedPredScan::ActivateRule(const Rule* rule) {
  if (auto* profile = mod_->profile_.load(std::memory_order_acquire)) {
    size_t idx = static_cast<size_t>(rule - mod_->decl_->rules.data());
    profile->rule(idx).applications.fetch_add(1, std::memory_order_relaxed);
  }
  rule_mark_ = trail_->mark();
  if (rule_env_ == nullptr) {
    rule_env_ = std::make_unique<BindEnv>(rule->var_count);
  } else {
    rule_env_->EnsureSize(rule->var_count);
    rule_env_->ClearAll();
  }
  // Unify the goal with the rule head.
  CORAL_CHECK_EQ(rule->head.args.size(), lit_->args.size());
  for (size_t i = 0; i < lit_->args.size(); ++i) {
    if (!Unify(lit_->args[i], env_, rule->head.args[i], rule_env_.get(),
               trail_)) {
      trail_->UndoTo(rule_mark_);
      return false;
    }
  }
  // Build the body cursor; local derived predicates expand into nested
  // pipelined scans (the recursive calls of paper §5.2).
  std::vector<std::unique_ptr<GoalSource>> sources;
  sources.reserve(rule->body.size());
  for (const Literal& bl : rule->body) {
    if (mod_->Defines(bl.pred_ref())) {
      if (bl.negated) {
        // Negation as failure over the local predicate: a fresh nested
        // scan probes for a witness (Prolog-style NAF, paper §5.2 treats
        // pipelining as guaranteeing a top-down evaluation order).
        class NafSource : public GoalSource {
         public:
          NafSource(const PipelinedModule* mod, const Literal* lit,
                    BindEnv* env, Trail* trail, int depth)
              : mod_(mod), lit_(lit), env_(env), probe_trail_(trail),
                depth_(depth) {}
          bool Next(Trail* trail) override {
            trail->UndoTo(base_);
            if (fired_) return false;
            fired_ = true;
            PipelinedPredScan probe(mod_, lit_, env_, probe_trail_,
                                    depth_ + 1);
            probe.Reset(probe_trail_);
            bool found = probe.Next(trail);
            status_ = probe.status();
            trail->UndoTo(base_);
            return status_.ok() && !found;
          }
          const Status& status() const override { return status_; }

         protected:
          void DoReset() override { fired_ = false; }

         private:
          const PipelinedModule* mod_;
          const Literal* lit_;
          BindEnv* env_;
          Trail* probe_trail_;
          int depth_;
          bool fired_ = false;
          Status status_;
        };
        sources.push_back(std::make_unique<NafSource>(
            mod_, &bl, rule_env_.get(), trail_, depth_));
      } else {
        sources.push_back(std::make_unique<PipelinedPredScan>(
            mod_, &bl, rule_env_.get(), trail_, depth_ + 1));
      }
      continue;
    }
    auto src = mod_->db_->OpenGoal(&bl, rule_env_.get());
    if (!src.ok()) {
      status_ = src.status();
      trail_->UndoTo(rule_mark_);
      return false;
    }
    sources.push_back(std::move(src).value());
  }
  cursor_ = std::make_unique<RuleCursor>(
      std::move(sources), ComputeBacktrackPoints(*rule),
      mod_->decl_->intelligent_backtracking, trail_);
  active_rule_ = rule;
  return true;
}

bool PipelinedPredScan::Next(Trail* trail) {
  CORAL_DCHECK(trail == trail_);
  (void)trail;  // the scan drives its own (identical) trail
  if (!status_.ok()) return false;
  auto it = mod_->rules_.find(lit_->pred_ref());
  if (it == mod_->rules_.end()) return false;
  const std::vector<const Rule*>& rules = it->second;

  while (true) {
    if (active_rule_ != nullptr) {
      if (cursor_->Next()) {
        if (auto* profile =
                mod_->profile_.load(std::memory_order_acquire)) {
          size_t idx = static_cast<size_t>(active_rule_ -
                                           mod_->decl_->rules.data());
          obs::RuleStats& rs = profile->rule(idx);
          rs.solutions.fetch_add(1, std::memory_order_relaxed);
          rs.derived.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
      if (!cursor_->status().ok()) status_ = cursor_->status();
      if (auto* profile = mod_->profile_.load(std::memory_order_acquire)) {
        size_t idx = static_cast<size_t>(active_rule_ -
                                         mod_->decl_->rules.data());
        profile->rule(idx).probes.fetch_add(cursor_->probes(),
                                            std::memory_order_relaxed);
      }
      cursor_->UndoAll();
      cursor_.reset();
      trail_->UndoTo(rule_mark_);
      active_rule_ = nullptr;
      if (!status_.ok()) return false;
    }
    if (rule_idx_ >= rules.size()) return false;
    const Rule* rule = rules[rule_idx_++];
    if (!ActivateRule(rule)) continue;  // head unification failed
  }
}

StatusOr<std::unique_ptr<TupleIterator>> PipelinedModule::OpenQuery(
    const PredRef& pred, std::span<const TermRef> args) const {
  // Materialize the goal into callee scope: the caller unifies returned
  // tuples itself (module interface, paper §5.6).
  class PipelinedAnswerIterator : public TupleIterator {
   public:
    PipelinedAnswerIterator(const PipelinedModule* mod, const PredRef& pred,
                            const Tuple* goal)
        : goal_(goal), env_(std::make_unique<BindEnv>(goal->var_count())) {
      lit_.pred = pred.sym;
      lit_.args.assign(goal_->args().begin(), goal_->args().end());
      scan_ = std::make_unique<PipelinedPredScan>(mod, &lit_, env_.get(),
                                                  &trail_, 0);
      scan_->Reset(&trail_);
    }
    const Status& status() const override { return scan_->status(); }
    const Tuple* Next() override {
      if (!scan_->Next(&trail_)) return nullptr;
      std::vector<TermRef> refs;
      refs.reserve(lit_.args.size());
      for (const Arg* a : lit_.args) refs.push_back({a, env_.get()});
      // Resolve under current bindings; the scan stays frozen until the
      // next request (paper §5.2).
      factory_refs_.clear();
      return ResolveTuple(refs, factory_);
    }
    void set_factory(TermFactory* f) { factory_ = f; }

   private:
    const Tuple* goal_;
    std::unique_ptr<BindEnv> env_;
    Literal lit_;
    Trail trail_;
    std::unique_ptr<PipelinedPredScan> scan_;
    TermFactory* factory_ = nullptr;
    std::vector<TermRef> factory_refs_;
  };

  // Refresh the profile binding: the global switch may have been toggled
  // since the previous call. Registry entries are never destroyed while
  // the database lives, so a stale pointer read by a concurrent scan
  // still lands on a valid profile.
  obs::ModuleProfile* profile = nullptr;
  if (decl_->profile || db_->profiling()) {
    profile = db_->stats()->GetOrCreate(decl_->name);
    profile->EnsureRules(decl_->rules.size(), [this](size_t i) {
      return decl_->rules[i].ToString();
    });
    profile->RecordActivation();
  }
  profile_.store(profile, std::memory_order_release);

  const Tuple* goal = ResolveTuple(args, db_->factory());
  auto it = std::make_unique<PipelinedAnswerIterator>(this, pred, goal);
  it->set_factory(db_->factory());
  return std::unique_ptr<TupleIterator>(std::move(it));
}

}  // namespace coral
