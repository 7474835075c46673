// Copyright (c) 1993-style CORAL reproduction authors.
// Set-grouping and aggregate operations in rule heads (paper §1, §5.4.1,
// Fig. 3): heads like s(X, min(<C>)) or children(X, <Y>) group body
// solutions by the non-aggregated head arguments and fold the grouped
// variable with min/max/sum/count/avg/any, or collect it into a set term.
// Aggregation is a sink over head tuples, so it is the same whichever
// engine enumerated the body.

#ifndef CORAL_CORE_AGGREGATE_H_
#define CORAL_CORE_AGGREGATE_H_

#include <unordered_map>
#include <vector>

#include "src/lang/ast.h"
#include "src/util/status.h"
#include "src/vm/vm.h"

namespace coral {

/// Analysis of a rule head's aggregation structure.
struct AggHeadSpec {
  /// Per head argument; AggFn::kNone marks a group-by argument.
  std::vector<AggFn> fns;
  /// The head both engines project each body solution to before
  /// aggregation: the group-by arguments as written and the grouped term
  /// at each aggregate position (s(X, min(<C>)) projects s(X, C)).
  std::vector<const Arg*> pre_head;
};

/// Recognizes min(<C>), sum(<X>), bare <X> (set-of), etc.
AggHeadSpec AnalyzeAggHead(const Literal& head);

/// The sink an aggregate rule's engine feeds: groups pre-aggregation head
/// tuples by their group-by columns and folds the values at the aggregate
/// positions. Emit never reports a change; the grouped tuples come from
/// Finish.
class GroupAccumulator : public vm::TupleSink {
 public:
  GroupAccumulator(const AggHeadSpec* spec, TermFactory* factory)
      : spec_(spec), factory_(factory) {}

  bool Emit(const Tuple* t) override;

  /// Builds the grouped head tuples, or returns the first error a fed
  /// tuple raised. The accumulator is spent afterwards.
  StatusOr<std::vector<const Tuple*>> Finish();

 private:
  struct AggState {
    const Arg* best = nullptr;     // min / max / any
    const Arg* sum = nullptr;      // running sum (as a term)
    int64_t count = 0;
    std::vector<const Arg*> collected;  // set-of
  };
  struct Group {
    const Tuple* first;            // the first tuple fed to the group
    std::vector<AggState> states;  // one per head position
  };

  Status Feed(const Tuple* t);

  const AggHeadSpec* spec_;
  TermFactory* factory_;
  Status status_;  // first Feed error
  std::vector<Group> groups_;  // in first-seen order
  std::unordered_multimap<uint64_t, size_t> index_;  // group-by hash
};

}  // namespace coral

#endif  // CORAL_CORE_AGGREGATE_H_
