// Copyright (c) 1993-style CORAL reproduction authors.
// Hash partitioning of delta relations for the parallel semi-naive
// fixpoint. A delta scan is split into N disjoint, covering partitions by
// hashing each tuple: by the column the join will have bound when the
// scan opens (so one subgoal's probes stay on one worker), falling back
// to the whole-tuple hash when no column is bound. Workers collect their
// derived head facts in per-worker InsertBuffers; the engine merges the
// buffers into the real relations at the iteration barrier, where the
// usual duplicate/subsumption/aggregate-selection checks run serially.

#ifndef CORAL_REL_PARTITION_H_
#define CORAL_REL_PARTITION_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "src/rel/relation.h"

namespace coral {

/// Partition key of a stored tuple: the structural hash of column `col`,
/// or of the whole tuple when `col` is out of range (pass -1 for the
/// tuple-hash fallback). Deterministic for the lifetime of the factory,
/// so every worker computing the key for the same tuple agrees.
inline uint64_t PartitionKey(const Tuple* t, int col) {
  if (col >= 0 && static_cast<uint32_t>(col) < t->arity()) {
    return t->arg(static_cast<uint32_t>(col))->Hash();
  }
  return t->Hash();
}

/// Wraps a scan, yielding only tuples of partition `index` out of `count`.
/// The N instances over the same underlying scan are disjoint and cover it.
class PartitionedIterator : public TupleIterator {
 public:
  PartitionedIterator(std::unique_ptr<TupleIterator> inner, int col,
                      uint32_t index, uint32_t count)
      : inner_(std::move(inner)), col_(col), index_(index), count_(count) {}

  const Tuple* Next() override {
    while (const Tuple* t = inner_->Next()) {
      if (PartitionKey(t, col_) % count_ == index_) return t;
    }
    return nullptr;
  }
  const Status& status() const override { return inner_->status(); }

 private:
  std::unique_ptr<TupleIterator> inner_;
  int col_;
  uint32_t index_;
  uint32_t count_;
};

/// A worker-private buffer of one rule version's derived head facts.
/// During the parallel phase of an iteration relations are read-only;
/// everything a worker derives lands here and is inserted at the barrier.
/// Exact-duplicate suppression keeps buffers small; it is only an
/// optimization — the merge re-checks through Relation::Insert, which
/// also handles subsumption and multisets.
class InsertBuffer {
 public:
  /// Buffers `t`. With `dedup`, drops exact repeats already buffered
  /// here; ground tuples are canonical nodes, so pointer identity is an
  /// exact equality test. Never dedup multiset targets.
  void Add(const Tuple* t, bool dedup) {
    if (dedup && t->IsGround() && !seen_.insert(t).second) return;
    tuples_.push_back(t);
  }

  const std::vector<const Tuple*>& tuples() const { return tuples_; }

 private:
  std::vector<const Tuple*> tuples_;
  std::unordered_set<const Tuple*> seen_;
};

}  // namespace coral

#endif  // CORAL_REL_PARTITION_H_
