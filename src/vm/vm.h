// Copyright (c) 1993-style CORAL reproduction authors.
// The join bytecode executor: a nested-loops join over the Levels of a
// RuleProgram with a flat register file of canonical ground Args. No
// BindEnv, no trail, no unification on the hot path — every match is a
// pointer comparison (docs/VM.md). Any tuple the VM cannot handle
// (non-ground stored facts) aborts the application; the caller decides
// what runs instead (see RunResult::kFallback).

#ifndef CORAL_VM_VM_H_
#define CORAL_VM_VM_H_

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/data/term_factory.h"
#include "src/rel/relation.h"
#include "src/vm/bytecode.h"

namespace coral::vm {

/// Per-opcode execution counts for one run; the caller folds them into
/// the Database-wide obs::VmCounters once per rule application.
struct OpCounts {
  uint64_t scan_full = 0;
  uint64_t scan_delta = 0;
  uint64_t probe_index = 0;
  uint64_t probe_scan_fallbacks = 0;
  uint64_t unify_arg = 0;
  uint64_t test_builtin = 0;
  uint64_t project = 0;
  uint64_t insert = 0;
};

/// Receives derived head tuples. Sequential evaluation inserts directly
/// (returning whether the relation changed); parallel workers buffer for
/// the barrier merge and maintenance passes count or collect, and both
/// return false.
class TupleSink {
 public:
  virtual ~TupleSink() = default;
  virtual bool Emit(const Tuple* t) = 0;
};

enum class RunResult {
  kOk,
  /// A stored candidate tuple was non-ground (or a storage scan failed):
  /// the fixpoint re-runs this rule application through the interpreter
  /// (tuples already emitted stay — head relations accepted by the
  /// compiler are duplicate-eliminating, so the re-run is idempotent);
  /// a maintenance pass gives up and the instance is invalidated.
  kFallback,
};

/// What one body level reads. The fixpoint passes a relation and a mark
/// window; view maintenance (docs/MAINTENANCE.md) also reads tuple lists
/// and reconstructed states, each expressible as "live relation minus a
/// skip-set, plus an extra list".
struct LevelInput {
  /// Stored relation scanned (or probed) over [from, to); null reads
  /// `extra` only.
  const Relation* rel = nullptr;
  Mark from = 0;
  Mark to = kMaxMark;
  /// Tuples of `rel` to pass over; null skips nothing.
  const std::unordered_set<const Tuple*>* skip = nullptr;
  /// Tuples read after `rel`'s, regardless of the window; null for none.
  const std::vector<const Tuple*>* extra = nullptr;
};

struct RunInput {
  const RuleProgram* prog = nullptr;
  /// One input per prog->levels entry, in level order.
  std::span<const LevelInput> levels;
  TermFactory* factory = nullptr;
  /// Parallel partition filter, applied at body literal `part_lit`
  /// (PartitionKey(t, part_col) % part_count == part_index); part_lit < 0
  /// disables it.
  int part_lit = -1;
  int part_col = -1;
  uint32_t part_index = 0;
  uint32_t part_count = 1;
};

struct RunStats {
  uint64_t solutions = 0;  // full body matches (PROJECT executions)
  uint64_t tuples = 0;     // candidate tuples examined across all levels
  bool changed = false;    // any Emit returned true
  OpCounts ops;
};

RunResult Execute(const RunInput& in, TupleSink* sink, RunStats* out);

}  // namespace coral::vm

#endif  // CORAL_VM_VM_H_
