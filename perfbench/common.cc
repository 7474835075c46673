#include <cstdio>

#include "perfbench/workloads.h"

namespace perfbench {

double TimeSetups(int setups, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    int64_t t = NowNs();
    setup();
    times.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }
  return Median(times);
}

void PutEndToEnd(const Phase& phase, double setup_s, Result* out) {
  uint64_t ok = phase.attempted - phase.failed;
  out->attempted = phase.attempted;
  out->failed = phase.failed;
  out->Put("setup_s", setup_s, "s");
  out->Put("ops_per_s", phase.wall_s > 0 ? ok / phase.wall_s : 0, "1/s");
  out->Put("query_p50_ms", phase.reads.p(0.5), "ms");
  out->Put("query_p90_ms", phase.reads.p(0.9), "ms");
  out->Put("write_p50_ms", phase.writes.p(0.5), "ms");
  out->Put("write_p90_ms", phase.writes.p(0.9), "ms");
  out->Put("success_frac",
           phase.attempted > 0
               ? static_cast<double>(ok) / static_cast<double>(phase.attempted)
               : 0,
           "frac");
  out->Put("peak_rss_mb", PeakRssMb(), "MiB");

  out->record["reads"] = std::to_string(phase.reads.size());
  out->record["writes"] = std::to_string(phase.writes.size());
  for (const auto& [kind, samples] :
       {std::pair<const char*, const Samples*>{"read", &phase.reads},
        {"write", &phase.writes}}) {
    double drift = samples->Drift();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", drift);
    out->record[std::string("drift.") + kind] = buf;
    if (drift > kMaxDrift) {
      out->Problem(std::string(kind) + " latency drifted by " + buf +
                   "x from the first to the last quarter of the phase");
    }
    if (samples->size() < 20) {
      out->Problem(std::string("too few ") + kind + " ops (" +
                   std::to_string(samples->size()) +
                   ") for a p90 with ten samples beyond it");
    }
  }
}

void PutTraceOverhead(const Phase& untraced, const Phase& traced,
                      const Tracer& tracer, const Options& opt,
                      const std::string& workload, Result* out) {
  double base = untraced.MsPerOp();
  out->Put("trace.untraced_op_ms", base, "ms");
  out->Put("trace.overhead_frac", base > 0 ? traced.MsPerOp() / base - 1 : 0,
           "frac");
  if (!opt.work_dir.empty()) {
    std::string path = opt.work_dir + "/spans-" + workload + "-s" +
                       std::to_string(opt.seed) + ".jsonl";
    tracer.Write(path);
    out->record["spans_file"] = path;
  }
}

void RecordSpanSummary(const Tracer& tracer, uint64_t ops, Result* out) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  for (const auto& [name, t] : tracer.Summarize()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "count=%llu total_ms_per_op=%.5f self_ms_per_op=%.5f",
                  static_cast<unsigned long long>(t.count), t.total_ms / n,
                  t.self_ms / n);
    out->record["span." + name] = buf;
  }
}

}  // namespace perfbench
