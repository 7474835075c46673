#include "src/obs/server_metrics.h"

#include "src/util/json.h"

namespace coral::obs {

double ServerMetrics::LatencyQuantileMs(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = latency_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) {
      // Upper bound of bucket i covers [2^i, 2^(i+1)) ns.
      double upper_ns = static_cast<double>(1ULL << (i < 63 ? i + 1 : 63));
      return upper_ns / 1e6;
    }
  }
  return 0.0;
}

std::string ServerMetrics::ToJson() const {
  return JsonWriter()
      .Field("queries", queries())
      .Field("consults", consults())
      .Field("errors", errors())
      .Field("timeouts", timeouts())
      .Field("shed", shed())
      .Field("sessions_opened", sessions_opened())
      .Field("open_sessions", open_sessions())
      .Field("latency_p50_ms", LatencyQuantileMs(0.5))
      .Field("latency_p99_ms", LatencyQuantileMs(0.99))
      .Build();
}

}  // namespace coral::obs
