// Copyright (c) 1993-style CORAL reproduction authors.
// Persistent relations (paper §3.2): tuples restricted to fields of
// primitive types (integers, doubles, strings, atoms, bignums — §3.1),
// stored in heap files and indexed by B-trees, paged on demand through
// the client buffer pool. Tuples are deserialized into main-memory terms
// when fetched — the copying the paper admits to ("the current
// implementation does perform some copying... an artifact of the basic
// decision to share constants instead of copying their values").

#ifndef CORAL_STORAGE_PERSISTENT_RELATION_H_
#define CORAL_STORAGE_PERSISTENT_RELATION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/data/term_factory.h"
#include "src/rel/relation.h"
#include "src/storage/btree.h"
#include "src/storage/heap_file.h"

namespace coral {

/// Serializes a primitive ground value. Returns false for values a
/// persistent relation cannot store (functor terms, sets, variables).
bool SerializeValue(const Arg* value, std::string* out);
/// Deserializes one value, advancing *pos.
StatusOr<const Arg*> DeserializeValue(std::span<const char> in, size_t* pos,
                                      TermFactory* factory);

/// Whole-tuple codec.
StatusOr<std::string> SerializeTuple(const Tuple* t);
StatusOr<const Tuple*> DeserializeTuple(std::span<const char> rec,
                                        TermFactory* factory);

class StorageManager;

class PersistentRelation : public Relation {
 public:
  /// True if the tuple is ground with primitive-typed fields only
  /// (paper §3.2's restriction).
  static bool CanStore(const Tuple* t);

  bool Contains(const Tuple* t) const override;
  size_t size() const override { return count_; }
  bool MayHoldNonGround() const override { return false; }  // see CanStore

  /// Refuses non-storable tuples (paper §3.2) and any insert while the
  /// storage manager is read-only or has a latched I/O error. Defined in
  /// the .cc (needs the full StorageManager type).
  Status ValidateInsert(const Tuple* t) const override;

  std::unique_ptr<TupleIterator> ScanRange(Mark from, Mark to) const override;
  std::unique_ptr<TupleIterator> Select(std::span<const TermRef> pattern,
                                        Mark from, Mark to) const override;
  using Relation::Select;
  /// Serves the probe from the widest B-tree whose columns are all bound,
  /// decoding only the records it names. Declines when no B-tree fits,
  /// and on a read or decode error (latched with RecordIoError).
  bool ProbeArgs(std::span<const uint32_t> cols,
                 std::span<const Arg* const> key, Mark from, Mark to,
                 std::vector<const Tuple*>* out) const override;

  /// Marks are not supported on persistent relations (they are base data,
  /// never used as semi-naive deltas): the whole extension is interval 0.
  Mark Snapshot() override { return 1; }
  Mark CurrentMark() const override { return 1; }

  /// Adds a secondary B-tree index on `cols`, backfilling existing
  /// tuples. No-op if one already exists.
  Status AddIndex(std::vector<uint32_t> cols);

  uint64_t heap_first() const { return heap_->first_page(); }

 protected:
  void DoInsert(const Tuple* t) override;
  bool DoDelete(const Tuple* t) override;

 private:
  friend class StorageManager;

  struct StoredIndex {
    std::vector<uint32_t> cols;
    std::unique_ptr<BTree> tree;
  };

  PersistentRelation(std::string name, uint32_t arity, StorageManager* sm)
      : Relation(std::move(name), arity), sm_(sm) {}

  /// Key for `idx` from a stored tuple (always succeeds: tuples ground).
  std::string KeyFor(const StoredIndex& idx, const Tuple* t) const;
  /// Key from a pattern; nullopt when some key column is not ground.
  std::optional<std::string> KeyForPattern(
      const StoredIndex& idx, std::span<const TermRef> pattern) const;
  /// Appends the live tuples `idx` files under `key`, decoding only
  /// those. On a read or decode error latches it with RecordIoError,
  /// leaves *out as it was and returns it.
  Status FetchMatches(const StoredIndex& idx, const std::string& key,
                      std::vector<const Tuple*>* out) const;
  /// The rid of a stored tuple equal to `t`, if any.
  StatusOr<Rid> FindRid(const Tuple* t) const;
  void PersistRoots();

  StorageManager* sm_;
  std::unique_ptr<HeapFile> heap_;
  std::vector<StoredIndex> indexes_;  // indexes_[0] = primary (all cols)
  size_t count_ = 0;
};

}  // namespace coral

#endif  // CORAL_STORAGE_PERSISTENT_RELATION_H_
