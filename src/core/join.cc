#include "src/core/join.h"

#include "src/core/eval_context.h"
#include "src/util/logging.h"

namespace coral {

const Status& GoalSource::status() const {
  static const Status kOk;
  return kOk;
}

namespace {

/// Unifies tuple arguments against literal arguments; helper shared by
/// sources. Returns false (leaving the trail for the caller to undo) on
/// mismatch.
bool UnifyTupleWithLiteral(const Tuple* tuple, BindEnv* tuple_env,
                           const Literal& lit, BindEnv* env, Trail* trail) {
  CORAL_DCHECK(tuple->arity() == lit.args.size());
  for (uint32_t i = 0; i < tuple->arity(); ++i) {
    if (!Unify(lit.args[i], env, tuple->arg(i), tuple_env, trail)) {
      return false;
    }
  }
  return true;
}

std::vector<TermRef> LiteralRefs(const Literal& lit, BindEnv* env) {
  std::vector<TermRef> refs;
  refs.reserve(lit.args.size());
  for (const Arg* a : lit.args) refs.push_back({a, env});
  return refs;
}

}  // namespace

void RelationGoalSource::DoReset() {
  std::vector<TermRef> refs = LiteralRefs(*lit_, env_);
  it_ = rel_->Select(refs, from_, to_);
  if (part_.count > 1) {
    it_ = std::make_unique<PartitionedIterator>(std::move(it_), part_.col,
                                                part_.index, part_.count);
  }
}

bool RelationGoalSource::Next(Trail* trail) {
  trail->UndoTo(base_);  // drop the previous candidate's bindings
  if (it_ == nullptr) return false;
  while (const Tuple* t = it_->Next()) {
    tuple_env_.EnsureSize(t->var_count());
    if (UnifyTupleWithLiteral(t, &tuple_env_, *lit_, env_, trail)) {
      return true;
    }
    trail->UndoTo(base_);
  }
  if (!it_->status().ok() && status_.ok()) status_ = it_->status();
  return false;
}

bool NegationGoalSource::Next(Trail* trail) {
  trail->UndoTo(base_);
  if (fired_) return false;
  fired_ = true;
  std::vector<TermRef> refs = LiteralRefs(*lit_, env_);
  std::unique_ptr<TupleIterator> it = rel_->Select(refs, 0, kMaxMark);
  BindEnv tuple_env(0);
  while (const Tuple* t = it->Next()) {
    tuple_env.EnsureSize(t->var_count());
    bool unifies = UnifyTupleWithLiteral(t, &tuple_env, *lit_, env_, trail);
    trail->UndoTo(base_);
    if (unifies) return false;  // a witness exists: negation fails
  }
  if (!it->status().ok()) {
    if (status_.ok()) status_ = it->status();
    return false;
  }
  return true;
}

void BuiltinGoalSource::DoReset() {
  std::vector<TermRef> refs = LiteralRefs(*lit_, env_);
  auto gen = (*fn_)(refs, factory_);
  if (!gen.ok()) {
    status_ = gen.status();
    gen_ = nullptr;
    return;
  }
  gen_ = std::move(gen).value();
}

bool BuiltinGoalSource::Next(Trail* trail) {
  trail->UndoTo(base_);
  if (gen_ == nullptr) return false;
  if (!lit_->negated) return gen_->Next(trail);
  // `not b(...)` succeeds once, binding nothing, when b has no solution.
  bool witness = gen_->Next(trail);
  trail->UndoTo(base_);
  gen_ = nullptr;
  return !witness;
}

void IteratorGoalSource::DoReset() {
  std::vector<TermRef> refs = LiteralRefs(*lit_, env_);
  auto it = open_(refs);
  if (!it.ok()) {
    status_ = it.status();
    it_ = nullptr;
    return;
  }
  it_ = std::move(it).value();
}

bool IteratorGoalSource::Next(Trail* trail) {
  trail->UndoTo(base_);
  if (it_ == nullptr) return false;
  while (const Tuple* t = it_->Next()) {
    tuple_env_.EnsureSize(t->var_count());
    if (UnifyTupleWithLiteral(t, &tuple_env_, *lit_, env_, trail)) {
      return true;
    }
    trail->UndoTo(base_);
  }
  if (!it_->status().ok() && status_.ok()) status_ = it_->status();
  return false;
}

bool NegatedIteratorGoalSource::Next(Trail* trail) {
  trail->UndoTo(base_);
  if (fired_) return false;
  fired_ = true;
  std::vector<TermRef> refs = LiteralRefs(*lit_, env_);
  auto it = open_(refs);
  if (!it.ok()) {
    status_ = it.status();
    return false;
  }
  BindEnv tuple_env(0);
  while (const Tuple* t = (*it)->Next()) {
    tuple_env.EnsureSize(t->var_count());
    bool unifies = UnifyTupleWithLiteral(t, &tuple_env, *lit_, env_, trail);
    trail->UndoTo(base_);
    if (unifies) return false;
  }
  if (!(*it)->status().ok()) {
    status_ = (*it)->status();
    return false;
  }
  return true;
}

RuleCursor::RuleCursor(std::vector<std::unique_ptr<GoalSource>> sources,
                       std::vector<int> backtrack, bool intelligent_bt,
                       Trail* trail)
    : sources_(std::move(sources)),
      backtrack_(std::move(backtrack)),
      intelligent_bt_(intelligent_bt),
      trail_(trail),
      produced_(sources_.size(), false) {
  CORAL_CHECK_EQ(backtrack_.size(), sources_.size());
}

bool RuleCursor::Next() {
  const int n = static_cast<int>(sources_.size());
  if (pos_ == -2) {
    start_mark_ = trail_->mark();
    if (n == 0) {
      pos_ = -1;  // empty body: succeed exactly once
      return true;
    }
    pos_ = 0;
    sources_[0]->Reset(trail_);
    produced_[0] = false;
  } else if (pos_ == -1) {
    return false;  // exhausted (or empty body already yielded)
  } else {
    pos_ = n - 1;  // resume: retry the deepest literal
  }

  while (pos_ >= 0) {
    GoalSource& src = *sources_[pos_];
    ++probes_;
    // Deadline poll, amortized over ~1k probes so the common case costs
    // one branch; an expired deadline unwinds as an exhausted cursor with
    // status() = kDeadlineExceeded.
    if ((probes_ & 1023u) == 0 && status_.ok()) {
      Status deadline = CheckEvalDeadline();
      if (!deadline.ok()) {
        status_ = std::move(deadline);
        break;
      }
    }
    if (src.Next(trail_)) {
      produced_[pos_] = true;
      if (pos_ == n - 1) return true;
      ++pos_;
      sources_[pos_]->Reset(trail_);
      if (!sources_[pos_]->status().ok() && status_.ok()) {
        status_ = sources_[pos_]->status();
      }
      produced_[pos_] = false;
      continue;
    }
    if (!src.status().ok() && status_.ok()) status_ = src.status();
    // Exhausted at pos_ (its bindings are already undone). Intelligent
    // backtracking jumps over literals that cannot cure a zero-solution
    // failure (paper §4.2); abandon everything in between.
    int target = (!intelligent_bt_ || produced_[pos_])
                     ? pos_ - 1
                     : backtrack_[pos_];
    for (int j = pos_ - 1; j > target; --j) sources_[j]->Abandon();
    pos_ = target;
  }
  trail_->UndoTo(start_mark_);
  pos_ = -1;
  return false;
}

void RuleCursor::UndoAll() {
  if (pos_ != -2) trail_->UndoTo(start_mark_);
  pos_ = -1;
}

}  // namespace coral
