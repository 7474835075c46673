// Per-layer measurement from outside the engine: each function times
// calls into one layer's public functions, or reads the counters the
// public API already exposes, on the workload's own inputs. Used by the
// traced run only.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <coral/coral.h>

#include "perfbench/harness.h"

namespace perfbench {

/// Runs the compile pipeline on `text` the way the module manager does —
/// Parser::ParseProgram, AnalyzeModule, RewriteModule and
/// absint::AnalyzeRules per export form, vm::CompileModule and
/// vm::AuditModule — and reports lang.parse_ms, analysis.ms, rewrite.ms,
/// rewrite.rules_out, vm.compile_ms and vm.instructions.
void MeasureCompilePipeline(coral::Database* db, const std::string& text,
                            Tracer* tracer, Result* out);

/// One read op: the queries it issues, in order.
using ReadOp = std::vector<std::string>;

/// Times `ops` through three read paths on the workload's own database:
/// embedded Database::EvalQuery (core.eval_ms), Session::EvalQuery
/// (core.session_eval_ms, core.snapshot_penalty), and in-process server
/// dispatch with its JSON codec (server.handle_ms, server.json_parse_us,
/// server.json_write_us). Call it last: the first Session switches the
/// database into concurrent mode for good.
void MeasureReadPaths(coral::Database* db, const std::vector<ReadOp>& ops,
                      Tracer* tracer, Result* out);

/// Serves `db` from a loopback coral::server::Server and sends each of
/// `queries` once over one JSONL connection: server.side_p50_ms (the
/// evaluation time each response reports), server.wire_ms (round trip
/// minus that), and the server's shed/error/timeout counts.
void MeasureServerRoundTrips(coral::Database* db,
                             const std::vector<std::string>& queries,
                             Tracer* tracer, Result* out);

/// Runs `commit` (one write op of the workload), then times the
/// Database::AcquireReadSnapshot that publishes it
/// (rel.snapshot_acquire_ms).
void MeasureSnapshotAcquire(coral::Database* db,
                            const std::function<void()>& commit,
                            Result* out);

/// The public counters of one database at one instant.
struct Counters {
  uint64_t vm_applications = 0, vm_probe_index = 0, vm_scan_full = 0,
           vm_scan_delta = 0, vm_insert = 0, vm_fallbacks = 0,
           vm_probe_scan_fallbacks = 0;
  uint64_t iterations = 0, solutions = 0, derived = 0, inserted = 0;
  uint64_t maint_maintained = 0, maint_invalidated = 0,
           maint_derived_inserted = 0, maint_derived_deleted = 0,
           maint_rederived = 0;
  uint64_t hashcons_entries = 0, bytes_allocated = 0;

  static Counters Take(coral::Database* db);
};

/// Puts the per-op growth of every counter between `before` and `after`
/// over `ops` ops, with the ratios built from them and their bases.
void PutCounterDeltas(const Counters& before, const Counters& after,
                      uint64_t ops, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
