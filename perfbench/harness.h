// Shared measurement plumbing for the benchmark driver: seeded RNG,
// latency samples, the per-run result, and the span tracer used by the
// traced run. Everything here lives outside the engine: the engine is
// only ever called through its public functions.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the only source of randomness, seeded from --seed, so one
/// seed always generates the same inputs and the same op sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Quantile by linear interpolation between closest ranks.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The process's peak resident set (VmHWM) in MiB.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Latencies of one op kind, in ms, in the order the ops ran. Ops of
/// different kinds (or different cost) are never pooled in one Samples.
struct Samples {
  std::vector<double> ms;

  void Add(double v) { ms.push_back(v); }
  size_t size() const { return ms.size(); }
  double p(double q) const { return Quantile(ms, q); }
  double Sum() const {
    double s = 0;
    for (double v : ms) s += v;
    return s;
  }
  /// Median of the last quarter over median of the first quarter: how
  /// far op cost drifted while the phase ran (1.0 = no drift).
  double Drift() const {
    size_t q = ms.size() / 4;
    if (q < 4) return 1.0;
    std::vector<double> first(ms.begin(), ms.begin() + q);
    std::vector<double> last(ms.end() - q, ms.end());
    double a = Median(first);
    return a > 0 ? Median(last) / a : 1.0;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;       // ops whose answer did not match the oracle
  bool checks_ok = true;     // steadiness guards (drift) and other checks
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> record;  // run record extras

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(std::string what) {
    checks_ok = false;
    problems.push_back(std::move(what));
  }
};

/// Spans recorded from the benchmark's own code around each call into a
/// layer. One Tracer per thread; spans stay in memory until the run ends.
/// Disabled, Begin/End cost one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root
    uint64_t op;     // spans of one op share this id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(uint64_t op) { op_ = op; }

  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, NowNs(), 0, parent, op_});
    int32_t id = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans (re-basing parent indexes).
  void Merge(const Tracer& other) {
    int32_t base = static_cast<int32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// Total and self time (ms) and count per span name. Self time is the
  /// span's duration minus the time its direct children cover.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.total_ms += dur;
      t.self_ms += dur - static_cast<double>(child_ns[i]) / 1e6;
      ++t.count;
    }
    return out;
  }

  /// One JSON object per span, one per line.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
    }
  }

 private:
  bool enabled_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name) : t_(t), id_(t->Begin(name)) {}
  ~SpanScope() { t_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
