// Copyright (c) 1993-style CORAL reproduction authors.
// Relations computed by C++ functions (paper §6.2, §7.2): new predicates
// defined in extended C++ are used freely in declarative rules through
// the same get-next-tuple interface as stored relations. The paper loads
// compiled .o files into the running system; we substitute a registration
// API (DESIGN.md §4) — the language-level capability is identical.

#ifndef CORAL_CXX_COMPUTED_RELATION_H_
#define CORAL_CXX_COMPUTED_RELATION_H_

#include <functional>

#include "src/rel/relation.h"

namespace coral {

/// The C++ definition of a predicate: given the call's argument bindings
/// (one TermRef per column; unbound variables mean "free"), produce every
/// matching tuple. Return a non-OK status for unsupported binding
/// patterns (e.g. a generator that needs its first argument bound).
using ComputedPredicateFn = std::function<Status(
    std::span<const TermRef> args, TermFactory* factory,
    std::vector<const Tuple*>* out)>;

class ComputedRelation : public Relation {
 public:
  ComputedRelation(std::string name, uint32_t arity, TermFactory* factory,
                   ComputedPredicateFn fn)
      : Relation(std::move(name), arity),
        factory_(factory),
        fn_(std::move(fn)) {}

  /// Computed relations are not updatable.
  Status ValidateInsert(const Tuple*) const override {
    return Status::Unsupported("relation " + name() +
                               " is defined by C++ code and not updatable");
  }
  bool computed() const override { return true; }
  bool Contains(const Tuple* t) const override;
  size_t size() const override { return 0; }  // unknown / intensional

  std::unique_ptr<TupleIterator> ScanRange(Mark from, Mark to) const override;
  std::unique_ptr<TupleIterator> Select(std::span<const TermRef> pattern,
                                        Mark from, Mark to) const override;
  using Relation::Select;

  Mark Snapshot() override { return 1; }
  Mark CurrentMark() const override { return 1; }

 protected:
  void DoInsert(const Tuple*) override {
    CORAL_CHECK(false) << "insert into computed relation " << name();
  }
  bool DoDelete(const Tuple*) override { return false; }

 private:
  TermFactory* factory_;
  ComputedPredicateFn fn_;
};

}  // namespace coral

#endif  // CORAL_CXX_COMPUTED_RELATION_H_
