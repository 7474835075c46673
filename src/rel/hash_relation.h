// Copyright (c) 1993-style CORAL reproduction authors.
// HashRelation: the default in-memory relation (paper §3.2). Ground-tuple
// duplicate checks are O(1) thanks to tuple hash-consing; non-ground
// facts are checked by subsumption. Argument-form and pattern-form hash
// indices can be attached at creation or later (paper §2: "indices can
// also be created at a later time").

#ifndef CORAL_REL_HASH_RELATION_H_
#define CORAL_REL_HASH_RELATION_H_

#include <memory>

#include "src/rel/index.h"
#include "src/rel/memory_relation.h"

namespace coral {

/// Yields a prematerialized candidate posting list, filtering each
/// occurrence against the relation's tombstone boundaries at yield time
/// (so deletions that happen after materialization — e.g. aggregate-
/// selection deletes during consumption — are not served).
class CandidateIterator : public TupleIterator {
 public:
  CandidateIterator(std::vector<Posting> candidates,
                    const TombstoneMap* deleted)
      : candidates_(std::move(candidates)), deleted_(deleted) {}

  const Tuple* Next() override {
    while (pos_ < candidates_.size()) {
      const Posting& p = candidates_[pos_++];
      if (!TombstonedAt(*deleted_, p.tuple, p.sub)) return p.tuple;
    }
    return nullptr;
  }

 private:
  std::vector<Posting> candidates_;
  const TombstoneMap* deleted_;
  size_t pos_ = 0;
};

class HashRelation : public MemoryRelation {
 public:
  HashRelation(std::string name, uint32_t arity)
      : MemoryRelation(std::move(name), arity) {}

  /// Snapshot readers (an installed ReadView over a shared base relation)
  /// are served from the frozen epoch table: Select degrades to a table
  /// scan, Contains to a linear subsumption check, and ProbeArgs declines
  /// so the VM takes its documented window-scan fallback — the live
  /// indexes and count maps are writer-side structures and are never
  /// touched from reader threads.
  bool Contains(const Tuple* t) const override;

  std::unique_ptr<TupleIterator> Select(std::span<const TermRef> pattern,
                                        Mark from, Mark to) const override;
  using Relation::Select;

  /// Attaches an argument-form index on `cols`, backfilling existing
  /// tuples. No-op if an identical index exists.
  void AddArgumentIndex(std::vector<uint32_t> cols);

  /// Attaches a pattern-form index (see PatternIndex), backfilling.
  void AddPatternIndex(std::vector<const Arg*> pattern, uint32_t var_count,
                       std::vector<uint32_t> key_slots);

  /// Attaches a user-defined Index implementation (paper §7.2: "new index
  /// implementations can be added without modifying the rest of the
  /// system"), backfilling existing tuples.
  void AddCustomIndex(std::unique_ptr<Index> index);

  size_t index_count() const { return indexes_.size(); }

  /// True if an argument index on exactly `cols` exists.
  bool HasArgumentIndex(const std::vector<uint32_t>& cols) const;

  /// Uses the widest attached argument index whose columns are a subset
  /// of `cols`; var-bucket postings are included and tombstones filtered.
  /// Declines when no argument index can serve the probe, and always
  /// under a ReadView (see above).
  bool ProbeArgs(std::span<const uint32_t> cols,
                 std::span<const Arg* const> key, Mark from, Mark to,
                 std::vector<const Tuple*>* out) const override;

 protected:
  void DoInsert(const Tuple* t) override;
  bool DoDelete(const Tuple* t) override;

 private:
  void Backfill(Index* index);

  // Live occurrence counts of ground tuples (multisets count > 1).
  std::unordered_map<const Tuple*, uint32_t> ground_counts_;
  // Live non-ground stored tuples, with repeats under multiset semantics.
  std::vector<const Tuple*> nonground_live_;
  // Indexes sorted by descending key width (most selective first).
  std::vector<std::unique_ptr<Index>> indexes_;
  std::vector<const ArgumentIndex*> argument_indexes_;
};

}  // namespace coral

#endif  // CORAL_REL_HASH_RELATION_H_
