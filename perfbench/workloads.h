// The workloads and the closed-loop scaffolding they share. Each
// workload runs in its own process (see run.py), builds its inputs from
// the seed, sets up and warms up (timed as setup_s), then runs a timed
// closed loop of identical-cost ops, checking every answer against an
// oracle of its own.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's own files: spans of the traced run and the
  /// persistent workload's database. Must exist.
  std::string work_dir;
};

Result RunConsultQuery(const Options& opt);
Result RunUpdateProbe(const Options& opt);
Result RunPersistentQuery(const Options& opt);

/// Setups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// A timed phase fails its steadiness check when the median op cost of
/// its last quarter exceeds that of its first quarter by this factor.
/// update_probe's ops already drift by up to 1.75x over a 20-s phase
/// (tombstones; README.md), and noise alone moved the other workloads by
/// up to 1.6x, so the limit catches only a drift worse than those.
inline constexpr double kMaxDrift = 2.5;

/// Tallies of one timed phase. Reads and writes are separate op kinds
/// and are never pooled into one latency sample.
struct Phase {
  Samples reads;
  Samples writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Mean wall time per attempted op, for the tracing-overhead ratio.
  double MsPerOp() const {
    return attempted > 0 ? wall_s * 1e3 / static_cast<double>(attempted) : 0;
  }
};

/// Runs `step` (one closed-loop iteration, which records into `phase`)
/// until `seconds` have passed. Returns the wall time in seconds.
inline double ClosedLoop(double seconds, const std::function<void()>& step) {
  int64_t start = NowNs();
  int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < stop) step();
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// Median wall time of `setups` calls of `setup`, in seconds. The last
/// call's state is what the timed phase uses.
double TimeSetups(int setups, const std::function<void()>& setup);

/// Puts the end-to-end metrics of an untraced phase and its steadiness
/// checks.
void PutEndToEnd(const Phase& phase, double setup_s, Result* out);

/// Puts trace.overhead_frac (traced ms per op over untraced, minus one)
/// with its base, trace.untraced_op_ms, and writes the spans.
void PutTraceOverhead(const Phase& untraced, const Phase& traced,
                      const Tracer& tracer, const Options& opt,
                      const std::string& workload, Result* out);

/// Records each span name's count and total and self time per op in the
/// run record, a readable summary of the spans file.
void RecordSpanSummary(const Tracer& tracer, uint64_t ops, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
