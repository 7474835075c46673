// Copyright (c) 1993-style CORAL reproduction authors.
// Epoch snapshots of shared base relations for the multi-client query
// server. A writer commit (every base-fact write is one live-state
// Database::ApplyUpdate commit) dirties its relations; the next snapshot
// acquisition publishes, per dirty relation, an immutable RelReadTable —
// the frozen subsidiary organization (paper §3.2 marks) plus a
// copy-on-write tombstone set. Reader threads install a ReadView (the
// set of published tables at one epoch) for a query; every access the
// evaluation makes to a shared base relation is served from the view,
// so concurrent commits are invisible until the session refreshes.
// Tables live as long as their relation, so a view outlives any number
// of later commits.

#ifndef CORAL_REL_READVIEW_H_
#define CORAL_REL_READVIEW_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/rel/tombstones.h"

namespace coral {

class Relation;
class Tuple;

/// One relation's frozen state at a publication epoch. `subs` points at
/// the tuple vectors of the relation's CLOSED subsidiaries (append-only,
/// immutable once closed); `tail` is a copy of the open subsidiary taken
/// at publication. Subsidiary k of the snapshot is subs[k] for
/// k < subs.size() and `tail` for k == subs.size(), preserving mark
/// arithmetic. Tombstones are snapshotted wholesale (the boundary map
/// mutates in place on deletion); an occurrence is dead iff its
/// subsidiary is below the tuple's boundary (src/rel/tombstones.h).
struct RelReadTable {
  std::vector<const std::vector<const Tuple*>*> subs;
  std::vector<const Tuple*> tail;
  std::shared_ptr<const TombstoneMap> tombstones;
  uint64_t epoch = 0;

  /// Number of subsidiaries the snapshot covers (closed ones + the tail).
  uint32_t sub_count() const {
    return static_cast<uint32_t>(subs.size()) + 1;
  }
  const std::vector<const Tuple*>& sub(uint32_t k) const {
    return k < subs.size() ? *subs[k] : tail;
  }
  bool IsDeleted(const Tuple* t, uint32_t sub) const {
    return tombstones != nullptr && TombstonedAt(*tombstones, t, sub);
  }
};

/// The set of published tables one query evaluates against. Relations
/// absent from the map either are not shared base relations (module-
/// internal relations always read live state) or did not exist at the
/// view's epoch (they read as empty via the snapshot paths only when
/// marked shared).
struct ReadView {
  uint64_t epoch = 0;
  std::unordered_map<const Relation*, const RelReadTable*> tables;

  const RelReadTable* TableFor(const Relation* rel) const {
    auto it = tables.find(rel);
    return it == tables.end() ? nullptr : it->second;
  }
};

/// The view installed on the calling thread, or nullptr (live reads —
/// the single-user default). Relations consult this in their read paths.
const ReadView* ActiveReadView();

/// RAII installer for the calling thread's view; restores the previous
/// one (views nest, e.g. a session query that triggers a module call).
class ScopedReadView {
 public:
  explicit ScopedReadView(const ReadView* view);
  ~ScopedReadView();
  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;

 private:
  const ReadView* prev_;
};

}  // namespace coral

#endif  // CORAL_REL_READVIEW_H_
