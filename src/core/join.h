// Copyright (c) 1993-style CORAL reproduction authors.
// The nested-loops-with-indexing join executor (paper §4.2, §5.3). A rule
// body is evaluated by a RuleCursor: a resumable depth-first search over
// per-literal GoalSources. Each source presents the get-next-tuple
// discipline; a trail of variable bindings is unwound when a loop advances
// (paper: "CORAL maintains a trail of variable bindings... used to undo
// variable bindings when the nested-loops join considers the next tuple").
// The cursor is the paper's "frozen computation": holding one suspends the
// join, which is how pipelining and lazy evaluation are built.
//
// Undo discipline: every source captures a trail baseline at Reset; on
// each Next it first undoes its own previous solution, and Abandon
// discards it entirely. Stateful sources (nested pipelined scans) manage
// their internal trail segments themselves, which is why the cursor never
// rewinds into a suspended source.

#ifndef CORAL_CORE_JOIN_H_
#define CORAL_CORE_JOIN_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/builtins.h"
#include "src/data/unify.h"
#include "src/lang/ast.h"
#include "src/rel/partition.h"
#include "src/rel/relation.h"

namespace coral {

/// Source of candidate solutions for one body literal.
class GoalSource {
 public:
  virtual ~GoalSource() = default;

  /// (Re)opens the source under the bindings currently in effect and
  /// captures the trail baseline.
  void Reset(Trail* trail) {
    trail_ = trail;
    base_ = trail->mark();
    DoReset();
  }

  /// Produces the next solution, binding variables via the trail. The
  /// source undoes its own previous solution first. Returns false when
  /// exhausted (with the trail back at the baseline).
  virtual bool Next(Trail* trail) = 0;

  /// Discards the source's bindings and iteration state.
  virtual void Abandon() {
    if (trail_ != nullptr) trail_->UndoTo(base_);
  }

  /// First error encountered (builtin faults etc.); OK otherwise.
  virtual const Status& status() const;

 protected:
  virtual void DoReset() = 0;

  Trail* trail_ = nullptr;
  Trail::Mark base_ = 0;
};

/// Hash-partition restriction of a delta scan (parallel fixpoint): yield
/// only tuples of partition `index` of `count`, keyed on column `col`
/// (-1 = whole-tuple hash). count == 0 disables partitioning.
struct PartitionSpec {
  int col = -1;
  uint32_t index = 0;
  uint32_t count = 0;
};

/// Scan of a stored relation restricted to a mark window, using whatever
/// index the relation selects; candidates are unified argument-wise.
class RelationGoalSource : public GoalSource {
 public:
  RelationGoalSource(const Literal* lit, BindEnv* env, const Relation* rel,
                     Mark from, Mark to, PartitionSpec part = {})
      : lit_(lit), env_(env), rel_(rel), from_(from), to_(to), part_(part),
        tuple_env_(0) {}

  bool Next(Trail* trail) override;
  /// The first failure of a scan (e.g. an unreadable storage page).
  const Status& status() const override { return status_; }

 protected:
  void DoReset() override;

 private:
  const Literal* lit_;
  BindEnv* env_;
  const Relation* rel_;
  Mark from_, to_;
  PartitionSpec part_;
  BindEnv tuple_env_;
  std::unique_ptr<TupleIterator> it_;
  Status status_;
};

/// Negation as set-difference (paper §5.4.1): succeeds exactly once when
/// no stored tuple unifies with the (bound) literal; never binds.
class NegationGoalSource : public GoalSource {
 public:
  NegationGoalSource(const Literal* lit, BindEnv* env, const Relation* rel)
      : lit_(lit), env_(env), rel_(rel) {}

  bool Next(Trail* trail) override;
  /// The failure of the witness scan; the negation then fails too.
  const Status& status() const override { return status_; }

 protected:
  void DoReset() override { fired_ = false; }

 private:
  const Literal* lit_;
  BindEnv* env_;
  const Relation* rel_;
  bool fired_ = false;
  Status status_;
};

/// A builtin literal, or its negation.
class BuiltinGoalSource : public GoalSource {
 public:
  BuiltinGoalSource(const Literal* lit, BindEnv* env, const BuiltinFn* fn,
                    TermFactory* factory)
      : lit_(lit), env_(env), fn_(fn), factory_(factory) {}

  bool Next(Trail* trail) override;
  const Status& status() const override { return status_; }

 protected:
  void DoReset() override;

 private:
  const Literal* lit_;
  BindEnv* env_;
  const BuiltinFn* fn_;
  TermFactory* factory_;
  std::unique_ptr<BuiltinGenerator> gen_;
  Status status_;
};

/// Adapts any externally-produced tuple stream (module calls): `open` is invoked at Reset with the literal's current
/// argument bindings and returns a get-next-tuple iterator whose tuples
/// are unified with the literal arguments.
class IteratorGoalSource : public GoalSource {
 public:
  using Opener = std::function<StatusOr<std::unique_ptr<TupleIterator>>(
      std::span<const TermRef> args)>;

  IteratorGoalSource(const Literal* lit, BindEnv* env, Opener open)
      : lit_(lit), env_(env), open_(std::move(open)), tuple_env_(0) {}

  bool Next(Trail* trail) override;
  const Status& status() const override { return status_; }

 protected:
  void DoReset() override;

 private:
  const Literal* lit_;
  BindEnv* env_;
  Opener open_;
  BindEnv tuple_env_;
  std::unique_ptr<TupleIterator> it_;
  Status status_;
};

/// Existence test over an arbitrary opener (negation of module calls).
class NegatedIteratorGoalSource : public GoalSource {
 public:
  NegatedIteratorGoalSource(const Literal* lit, BindEnv* env,
                            IteratorGoalSource::Opener open)
      : lit_(lit), env_(env), open_(std::move(open)) {}

  bool Next(Trail* trail) override;
  const Status& status() const override { return status_; }

 protected:
  void DoReset() override { fired_ = false; }

 private:
  const Literal* lit_;
  BindEnv* env_;
  IteratorGoalSource::Opener open_;
  bool fired_ = false;
  Status status_;
};

/// Resumable nested-loops join over a rule body.
class RuleCursor {
 public:
  /// `sources` has one entry per body literal (left-to-right order);
  /// `backtrack` the precomputed intelligent-backtracking targets (used
  /// when `intelligent_bt`); `trail` is shared with the enclosing
  /// computation so suspended cursors compose.
  RuleCursor(std::vector<std::unique_ptr<GoalSource>> sources,
             std::vector<int> backtrack, bool intelligent_bt, Trail* trail);

  /// Advances to the next solution of the whole body. On true, bindings
  /// are in effect in the environments the sources were built over; they
  /// remain valid until the next call (or UndoAll).
  bool Next();

  /// Undoes all bindings made by this cursor.
  void UndoAll();

  const Status& status() const { return status_; }

  /// Get-next-tuple calls issued to body goal sources so far — the join
  /// probe count the profiler reports. A plain counter: each cursor is
  /// driven by exactly one thread.
  uint64_t probes() const { return probes_; }

 private:
  std::vector<std::unique_ptr<GoalSource>> sources_;
  std::vector<int> backtrack_;
  bool intelligent_bt_;
  Trail* trail_;
  std::vector<bool> produced_;
  int pos_ = -2;  // -2: not started; -1: failed/finished
  Trail::Mark start_mark_ = 0;
  uint64_t probes_ = 0;
  Status status_;
};

}  // namespace coral

#endif  // CORAL_CORE_JOIN_H_
