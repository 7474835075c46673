#include "src/rel/hash_relation.h"

#include <algorithm>

#include "src/data/unify.h"

namespace coral {

bool HashRelation::Contains(const Tuple* t) const {
  if (const RelReadTable* table = ViewTable()) {
    // Snapshot semantics of the live check: a ground tuple is present by
    // pointer identity (hash-consing), and any stored non-ground fact
    // that subsumes `t` counts. Linear, but snapshot reads on base
    // relations are scan-shaped anyway (no live indexes).
    const bool ground = t->IsGround();
    for (uint32_t s = 0; s < table->sub_count(); ++s) {
      for (const Tuple* stored : table->sub(s)) {
        if (table->IsDeleted(stored, s)) continue;
        if (ground && stored == t) return true;
        if (!stored->IsGround() && SubsumesTuple(stored, t)) return true;
      }
    }
    return false;
  }
  if (t->IsGround() && ground_counts_.count(t) > 0) return true;
  // Only a non-ground stored fact can subsume anything beyond itself.
  for (const Tuple* ng : nonground_live_) {
    if (SubsumesTuple(ng, t)) return true;
  }
  return false;
}

void HashRelation::DoInsert(const Tuple* t) {
  uint32_t sub = AppendToCurrent(t);
  if (t->IsGround()) {
    ++ground_counts_[t];
  } else {
    nonground_live_.push_back(t);
    nonground_seen_ = true;
  }
  for (auto& idx : indexes_) idx->Add(t, sub);
}

bool HashRelation::DoDelete(const Tuple* t) {
  if (t->IsGround()) {
    auto it = ground_counts_.find(t);
    if (it == ground_counts_.end()) return false;
    MarkDeleted(t, it->second);
    ground_counts_.erase(it);
    return true;
  }
  size_t occurrences = 0;
  for (size_t i = 0; i < nonground_live_.size();) {
    if (nonground_live_[i] == t) {
      ++occurrences;
      nonground_live_[i] = nonground_live_.back();
      nonground_live_.pop_back();
    } else {
      ++i;
    }
  }
  if (occurrences == 0) return false;
  MarkDeleted(t, occurrences);
  return true;
}

std::unique_ptr<TupleIterator> HashRelation::Select(
    std::span<const TermRef> pattern, Mark from, Mark to) const {
  if (ViewTable() != nullptr) {
    // Select returns a candidate SUPERSET; the frozen-table scan is one.
    return ScanRange(from, to);
  }
  for (const auto& idx : indexes_) {
    std::vector<Posting> candidates;
    if (idx->TryLookup(pattern, from, to, &candidates)) {
      return std::make_unique<CandidateIterator>(std::move(candidates),
                                                 &deleted_);
    }
  }
  return ScanRange(from, to);
}

void HashRelation::Backfill(Index* index) {
  for (uint32_t s = 0; s < subs_.size(); ++s) {
    for (const Tuple* t : subs_[s].tuples) {
      if (!IsDeletedAt(t, s)) index->Add(t, s);
    }
  }
}

void HashRelation::AddArgumentIndex(std::vector<uint32_t> cols) {
  if (HasArgumentIndex(cols)) return;
  auto idx = std::make_unique<ArgumentIndex>(std::move(cols));
  Backfill(idx.get());
  argument_indexes_.push_back(idx.get());
  indexes_.push_back(std::move(idx));
  std::stable_sort(indexes_.begin(), indexes_.end(),
                   [](const auto& a, const auto& b) {
                     return a->key_width() > b->key_width();
                   });
}

void HashRelation::AddPatternIndex(std::vector<const Arg*> pattern,
                                   uint32_t var_count,
                                   std::vector<uint32_t> key_slots) {
  auto idx = std::make_unique<PatternIndex>(std::move(pattern), var_count,
                                            std::move(key_slots));
  Backfill(idx.get());
  indexes_.push_back(std::move(idx));
  std::stable_sort(indexes_.begin(), indexes_.end(),
                   [](const auto& a, const auto& b) {
                     return a->key_width() > b->key_width();
                   });
}

void HashRelation::AddCustomIndex(std::unique_ptr<Index> index) {
  Backfill(index.get());
  indexes_.push_back(std::move(index));
  std::stable_sort(indexes_.begin(), indexes_.end(),
                   [](const auto& a, const auto& b) {
                     return a->key_width() > b->key_width();
                   });
}

bool HashRelation::ProbeArgs(std::span<const uint32_t> cols,
                             std::span<const Arg* const> key, Mark from,
                             Mark to, std::vector<const Tuple*>* out) const {
  // Live argument indexes are writer-side structures; snapshot readers
  // decline the probe and the VM scans the (view-served) window instead.
  if (ViewTable() != nullptr) return false;
  auto pos_of = [&](uint32_t c) {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == c) return i;
    }
    return cols.size();
  };
  const ArgumentIndex* best = nullptr;
  for (const ArgumentIndex* idx : argument_indexes_) {
    if (idx->cols().empty()) continue;
    bool covered = true;
    for (uint32_t c : idx->cols()) {
      if (pos_of(c) == cols.size()) {
        covered = false;
        break;
      }
    }
    if (covered &&
        (best == nullptr || idx->cols().size() > best->cols().size())) {
      best = idx;
    }
  }
  if (best == nullptr) return false;
  std::vector<Posting> postings;
  if (best->cols().size() == cols.size() &&
      std::equal(best->cols().begin(), best->cols().end(), cols.begin())) {
    best->LookupGround(key, from, to, &postings);
  } else {
    // Partial-cover probe: reorder the key to the index's column order.
    std::vector<const Arg*> idx_key;
    idx_key.reserve(best->cols().size());
    for (uint32_t c : best->cols()) idx_key.push_back(key[pos_of(c)]);
    best->LookupGround(idx_key, from, to, &postings);
  }
  out->reserve(out->size() + postings.size());
  for (const Posting& p : postings) {
    if (!IsDeletedAt(p.tuple, p.sub)) out->push_back(p.tuple);
  }
  return true;
}

bool HashRelation::HasArgumentIndex(const std::vector<uint32_t>& cols) const {
  for (const ArgumentIndex* idx : argument_indexes_) {
    if (idx->cols() == cols) return true;
  }
  return false;
}

}  // namespace coral
