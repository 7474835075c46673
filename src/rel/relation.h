// Copyright (c) 1993-style CORAL reproduction authors.
// The Relation interface (paper §3, §3.2): a set (or multiset) of tuples
// with insert/delete, an iterator ('get-next-tuple', the cursor-like
// interface of §2) that supports multiple concurrent scans, and *marks*:
// the ability to distinguish facts inserted before and after a mark,
// implemented as subsidiary relations, one per interval between marks.
// Marks are what every variant of semi-naive evaluation is built on
// (paper §3.2/§5.3).

#ifndef CORAL_REL_RELATION_H_
#define CORAL_REL_RELATION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/data/bindenv.h"
#include "src/data/term_factory.h"
#include "src/data/tuple.h"
#include "src/rel/agg_selection.h"
#include "src/util/status.h"

namespace coral {

/// A mark: tuples inserted before the mark live in subsidiary relations
/// [0, mark); tuples inserted after live in [mark, ...).
using Mark = uint32_t;
inline constexpr Mark kMaxMark = std::numeric_limits<Mark>::max();

/// State of one scan over a relation; analogous to a SQL cursor. Next()
/// returns stored tuples (never copies); nullptr means exhausted.
/// Scans are stable under concurrent insertion (new tuples may or may not
/// be seen) and skip tuples deleted mid-scan.
class TupleIterator {
 public:
  virtual ~TupleIterator() = default;
  virtual const Tuple* Next() = 0;
  /// Error state, if the producer can fail (module calls, storage scans).
  /// Check after Next() returns nullptr. OK by default.
  virtual const Status& status() const;
};

/// An always-empty iterator.
class EmptyIterator : public TupleIterator {
 public:
  const Tuple* Next() override { return nullptr; }
};

/// Iterator over an in-memory vector of tuples.
class VectorIterator : public TupleIterator {
 public:
  explicit VectorIterator(std::vector<const Tuple*> tuples)
      : tuples_(std::move(tuples)) {}
  const Tuple* Next() override {
    return pos_ < tuples_.size() ? tuples_[pos_++] : nullptr;
  }

 private:
  std::vector<const Tuple*> tuples_;
  size_t pos_ = 0;
};

/// Abstract base of all relation implementations: in-memory hash and list
/// relations and persistent relations (paper §7.2). New implementations
/// subclass this without touching the evaluation system; predicates
/// computed by C++ code are builtins (src/core/builtins.h).
class Relation {
 public:
  Relation(std::string name, uint32_t arity)
      : name_(std::move(name)), arity_(arity) {}
  virtual ~Relation() = default;

  const std::string& name() const { return name_; }
  uint32_t arity() const { return arity_; }

  /// Multiset semantics (paper §4.2): duplicate checks are skipped and a
  /// tuple appears once per derivation.
  bool multiset() const { return multiset_; }
  void set_multiset(bool v) { multiset_ = v; }

  /// Inserts a canonical tuple. Returns true iff the relation changed
  /// (false when rejected as a duplicate, as subsumed, or by an aggregate
  /// selection). Applies aggregate selections, which may delete stored
  /// tuples that the new tuple dominates.
  bool Insert(const Tuple* t);

  /// Removes a stored tuple; returns true iff it was present. Keeps
  /// aggregate-selection group tables in sync.
  bool Delete(const Tuple* t);

  /// Number of live (non-deleted) tuples.
  virtual size_t size() const = 0;

  /// Full scan.
  std::unique_ptr<TupleIterator> Scan() const {
    return ScanRange(0, kMaxMark);
  }

  /// Scan of subsidiary relations [from, to).
  virtual std::unique_ptr<TupleIterator> ScanRange(Mark from,
                                                   Mark to) const = 0;

  /// Candidate scan for tuples that may unify with `pattern` (one TermRef
  /// per column; variables mean "any"). Implementations return a SUPERSET
  /// of the unifying tuples — callers must still unify. The default
  /// ignores the pattern.
  virtual std::unique_ptr<TupleIterator> Select(
      std::span<const TermRef> pattern, Mark from, Mark to) const {
    (void)pattern;
    return ScanRange(from, to);
  }

  std::unique_ptr<TupleIterator> Select(
      std::span<const TermRef> pattern) const {
    return Select(pattern, 0, kMaxMark);
  }

  /// Direct probe for the bytecode VM: appends candidates matching ground
  /// `key` values at columns `cols` within subsidiaries [from, to). The
  /// candidates are a SUPERSET — callers still check every column.
  /// Returns false when the relation cannot serve the probe from an
  /// index; the caller then scans the window. The default declines.
  /// An implementation that fails part-way (a storage read or decode
  /// error) declines too, leaving *out as it was: it never returns
  /// partial candidates.
  virtual bool ProbeArgs(std::span<const uint32_t> /*cols*/,
                         std::span<const Arg* const> /*key*/, Mark /*from*/,
                         Mark /*to*/,
                         std::vector<const Tuple*>* /*out*/) const {
    return false;
  }

  /// False only when no tuple this relation ever held was non-ground, so
  /// every window and snapshot of it is ground (the VM's precondition).
  /// Kinds that do not track it answer true.
  virtual bool MayHoldNonGround() const { return true; }

  /// Places a mark: subsequently inserted tuples are distinguishable from
  /// earlier ones. Returns the boundary.
  virtual Mark Snapshot() = 0;

  /// The mark that new insertions fall after (current open interval).
  virtual Mark CurrentMark() const = 0;

  /// True if a stored tuple equal to (or subsuming) `t` exists.
  virtual bool Contains(const Tuple* t) const = 0;

  /// Storage-specific admission check, consulted before Insert attempts
  /// anything (e.g. persistent relations only accept ground tuples of
  /// primitive-typed fields, paper §3.2).
  virtual Status ValidateInsert(const Tuple* t) const {
    (void)t;
    return Status::OK();
  }

  /// Attaches an aggregate selection (paper §5.5.2). Checked on insert.
  void AddAggregateSelection(std::unique_ptr<AggregateSelection> sel) {
    selections_.push_back(std::move(sel));
  }
  const std::vector<std::unique_ptr<AggregateSelection>>& selections() const {
    return selections_;
  }

 protected:
  /// Storage-specific insert; duplicate/selection checks already done.
  virtual void DoInsert(const Tuple* t) = 0;

  /// Storage-specific delete; returns true iff the tuple was present.
  virtual bool DoDelete(const Tuple* t) = 0;

 private:
  std::string name_;
  uint32_t arity_;
  bool multiset_ = false;
  std::vector<std::unique_ptr<AggregateSelection>> selections_;
};

}  // namespace coral

#endif  // CORAL_REL_RELATION_H_
