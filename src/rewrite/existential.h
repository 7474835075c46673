// Copyright (c) 1993-style CORAL reproduction authors.
// Variable liveness analysis used by the rewriting passes. Supplementary
// predicates carry only the variables that are still needed by later body
// literals or by the head — this pruning is CORAL's implementation footing
// for Existential Query Rewriting (paper §4.1: propagate projections).

#ifndef CORAL_REWRITE_EXISTENTIAL_H_
#define CORAL_REWRITE_EXISTENTIAL_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/lang/ast.h"

namespace coral {

/// Adds the slots of all variables in `term` to `out`.
void CollectVars(const Arg* term, std::set<uint32_t>* out);

/// Slots of all variables appearing in `lit`.
std::set<uint32_t> VarsOfLiteral(const Literal& lit);

/// True when every variable of `term` is in `bound`.
bool TermBound(const Arg* term, const std::set<uint32_t>& bound);

/// What analysis and the optimizer know of a builtin's calls (its
/// registry entry, src/core/builtins.h).
struct BindingModes {
  /// Alternative sets of argument positions that must be bound for a call
  /// to run; a call that runs grounds every argument. Unset for a
  /// predicate defined in C++, which declares no modes, and for an
  /// operator, which is checked by its syntax.
  std::optional<std::vector<std::vector<uint32_t>>> in_sets;
  /// The mode text diagnostics print, e.g. "append(+,+,-) or
  /// append(-,-,+)".
  std::string usage;
  /// False for a builtin with side effects (output, updates): the
  /// optimizer does not move it ahead of the literals that bind its
  /// arguments, and parallel evaluation does not run its rules.
  bool pure = true;
};

/// Modes of builtin name/arity; nullptr when it is not a builtin.
using ModesLookup = std::function<const BindingModes*(
    const std::string& name, uint32_t arity)>;

/// The modes of the builtin `lit` calls; nullptr for a relation, an
/// operator (checked by its syntax) or a negated literal, or when
/// `modes_of` is null.
const BindingModes* ModesOf(const ModesLookup& modes_of, const Literal& lit);

/// True when every input position of some mode of `modes` holds a term
/// bound under `bound`; false when the modes are unknown.
bool ModeSatisfied(const BindingModes& modes, const Literal& lit,
                   const std::set<uint32_t>& bound);

/// For each body position i of `rule`, the variables needed at or after i:
/// vars of literals i..n-1 plus the head. Index n holds just the head's
/// variables. Used to project supplementary predicates down to live
/// variables.
std::vector<std::set<uint32_t>> NeededAfter(const Rule& rule);

}  // namespace coral

#endif  // CORAL_REWRITE_EXISTENTIAL_H_
