// Copyright (c) 1993-style CORAL reproduction authors.
// Magic Templates rewriting (paper §4.1, citing [18]): given the adorned
// program, guard every rule by a magic literal carrying the head's bound
// arguments, and derive magic facts for each derived body literal from the
// rule prefix to its left (from the head's magic alone for a literal
// adorned as restricted, see AdornInfo). Magic facts may be non-ground (Templates, not
// just Sets): our relations store non-ground tuples natively.

#ifndef CORAL_REWRITE_MAGIC_H_
#define CORAL_REWRITE_MAGIC_H_

#include <unordered_map>

#include "src/data/term_factory.h"
#include "src/rewrite/adorn.h"
#include "src/util/status.h"

namespace coral {

/// Output of a magic-style rewriting pass.
struct MagicProgram {
  std::vector<Rule> rules;
  /// The magic predicate of the query form; seeded with the query's bound
  /// arguments at evaluation time.
  PredRef seed_pred;
  /// adorned predicate -> its magic predicate.
  std::unordered_map<PredRef, PredRef, PredRefHash> magic_of;
};

/// Builds the magic literal m_q(bound args) for an adorned literal.
Literal MakeMagicLiteral(const Literal& lit, const std::string& adornment,
                         TermFactory* factory);

/// Plain Magic Templates.
StatusOr<MagicProgram> MagicTemplates(const AdornedProgram& adorned,
                                      TermFactory* factory);

}  // namespace coral

#endif  // CORAL_REWRITE_MAGIC_H_
