// Copyright (c) 1993-style CORAL reproduction authors.
// Adornment (paper §4.1): starting from the query form, propagate binding
// information through rule bodies with the default left-to-right sideways
// information passing, producing adorned copies p@bf of each derived
// predicate reached. Adorned names use '@' so they can never collide with
// user predicate names.

#ifndef CORAL_REWRITE_ADORN_H_
#define CORAL_REWRITE_ADORN_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/data/term_factory.h"
#include "src/lang/ast.h"
#include "src/util/status.h"

namespace coral {

/// Record of one adorned predicate.
struct AdornInfo {
  PredRef original;
  std::string adornment;  // e.g. "bf"
  /// Adorned from head bindings only (see AdornProgram's `restricted`):
  /// its magic rules read nothing but the enclosing rule's head magic.
  bool restricted = false;
};

/// Result of the adornment pass.
struct AdornedProgram {
  std::vector<Rule> rules;  // adorned rule copies, derivation order
  std::unordered_map<PredRef, AdornInfo, PredRefHash> adorned;
  PredRef query_pred;  // adorned name of the query predicate
};

/// Positions of 'b' in an adornment string.
std::vector<uint32_t> BoundPositions(const std::string& adornment);

/// True for an aggregation-marker head argument (`<X>`, `min(<X>)`): its
/// value is computed by grouping, so a binding there restricts nothing.
bool IsAggMarkerArg(const Arg* arg);

/// Adorns `rules` for query form (pred, adornment). Predicates in
/// `no_adorn` (and all non-derived predicates) keep their names and
/// propagate bindings as fully-evaluated relations. Occurrences of
/// predicates in `restricted` are adorned from the enclosing rule's
/// head bindings only, never from body literals to their left, so their
/// magic never depends on what the body computes. A position that holds
/// an aggregate result in some head is adorned free, in the query form
/// and in body literals alike.
StatusOr<AdornedProgram> AdornProgram(
    const std::vector<Rule>& rules,
    const std::unordered_set<PredRef, PredRefHash>& derived,
    const std::unordered_set<PredRef, PredRefHash>& no_adorn,
    const PredRef& query_pred, const std::string& adornment,
    TermFactory* factory,
    const std::unordered_set<PredRef, PredRefHash>& restricted = {});

}  // namespace coral

#endif  // CORAL_REWRITE_ADORN_H_
