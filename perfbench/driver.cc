// Benchmark driver: runs one workload in this process and prints its
// metrics, a run record, and (last line) the result JSON.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans and counters and reports the per-layer metrics.
// run.py builds this binary and is the supported entry point.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"query_p50_ms", "ms"},    {"query_p90_ms", "ms"},
    {"write_p50_ms", "ms"},    {"write_p90_ms", "ms"},
    {"success_frac", "frac"},  {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"lang.parse_ms", "ms"},
    {"analysis.ms", "ms"},
    {"rewrite.ms", "ms"},
    {"rewrite.rules_out", "count"},
    {"vm.compile_ms", "ms"},
    {"vm.instructions", "count"},
    {"vm.compile_share", "ratio"},
    {"vm.applications", "count"},
    {"vm.probe_index", "count"},
    {"vm.scan_full", "count"},
    {"vm.scan_delta", "count"},
    {"vm.insert", "count"},
    {"vm.fallbacks", "count"},
    {"vm.probe_scan_fallbacks", "count"},
    {"vm.probe_hit_ratio", "ratio"},
    {"core.eval_ms", "ms"},
    {"core.eval_ms.reach_wide", "ms"},
    {"core.eval_ms.reach_deep", "ms"},
    {"core.eval_ms.shortest_path", "ms"},
    {"core.iterations", "count"},
    {"core.solutions", "count"},
    {"core.derived", "count"},
    {"core.inserted", "count"},
    {"core.dup_ratio", "ratio"},
    {"core.session_eval_ms", "ms"},
    {"core.snapshot_penalty", "ratio"},
    {"maint.commit_ms", "ms"},
    {"maint.probe_ms", "ms"},
    {"maint.warmup_ms", "ms"},
    {"maint.derived_inserted", "count"},
    {"maint.derived_deleted", "count"},
    {"maint.rederived", "count"},
    {"maint.maintained", "count"},
    {"maint.invalidated", "count"},
    {"maint.maintained_frac", "ratio"},
    {"data.hashcons_entries", "count"},
    {"data.bytes_allocated", "bytes"},
    {"rel.snapshot_acquire_ms", "ms"},
    {"storage.commit_ms", "ms"},
    {"storage.scan_us_per_tuple", "us"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_fetches", "count"},
    {"storage.disk_reads", "count"},
    {"storage.disk_writes", "count"},
    {"storage.wal_bytes", "bytes"},
    {"server.json_parse_us", "us"},
    {"server.json_write_us", "us"},
    {"server.handle_ms", "ms"},
    {"server.wire_ms", "ms"},
    {"server.side_p50_ms", "ms"},
    {"server.shed", "count"},
    {"server.errors", "count"},
    {"server.timeouts", "count"},
    {"trace.untraced_op_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "consult_query|update_probe|persistent_query "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0) return Usage();
  Options opt;
  opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opt.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str())
                                      : 10.0;
  opt.trace = args["trace"] == "1";
  opt.work_dir = args["work-dir"];
  if (opt.seconds <= 0) return Usage();

  const std::string& workload = args["workload"];
  Result result;
  if (workload == "consult_query") {
    result = RunConsultQuery(opt);
  } else if (workload == "update_probe") {
    result = RunUpdateProbe(opt);
  } else if (workload == "persistent_query") {
    result = RunPersistentQuery(opt);
  } else {
    return Usage();
  }

  std::map<std::string, Metric> got;
  for (const Metric& m : result.metrics) got[m.name] = m;
  if (opt.trace && got.count("vm.compile_ms") && got.count("core.eval_ms") &&
      got["core.eval_ms"].value > 0) {
    got["vm.compile_share"] = {
        "vm.compile_share",
        got["vm.compile_ms"].value / got["core.eval_ms"].value, "ratio"};
  }

  // Every metric of the selected kind is reported; a layer this
  // workload's ops never call reads 0 and is listed as bypassed.
  std::string bypassed;
  std::vector<Metric> report;
  if (opt.trace) {
    for (const MetricSpec& s : kPerLayer) {
      auto it = got.find(s.name);
      if (it == got.end()) {
        report.push_back({s.name, 0.0, s.unit});
        bypassed += std::string(bypassed.empty() ? "" : ",") + s.name;
      } else {
        report.push_back(it->second);
      }
    }
  } else {
    for (const MetricSpec& s : kEndToEnd) {
      auto it = got.find(s.name);
      if (it == got.end()) {
        result.Problem(std::string("metric not measured: ") + s.name);
        report.push_back({s.name, 0.0, s.unit});
      } else {
        report.push_back(it->second);
      }
    }
  }

  for (const Metric& m : report) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  utsname uts{};
  uname(&uts);
  std::map<std::string, std::string> record = result.record;
  record["workload"] = workload;
  record["seed"] = std::to_string(opt.seed);
  record["seconds"] = JsonNumber(opt.seconds);
  record["trace"] = opt.trace ? "1" : "0";
  record["build_type"] = PERFBENCH_BUILD_TYPE;
  record["compiler"] = PERFBENCH_COMPILER;
  record["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  record["kernel"] = std::string(uts.sysname) + " " + uts.release;
  record["flush_policy"] =
      "persistent_query: WAL fsync and dirty-page flush on every "
      "StorageManager::Commit; other workloads have no durable storage";
  if (!bypassed.empty()) record["bypassed_layers"] = bypassed;
  std::string rec = "{";
  for (const auto& [k, v] : record) {
    if (rec.size() > 1) rec += ",";
    rec += JsonString(k) + ":" + JsonString(v);
  }
  rec += "}";
  std::printf("RECORD %s\n", rec.c_str());

  // A run that fails before its timed phase reports its setup as one
  // failed op.
  if (result.attempted == 0) {
    result.attempted = 1;
    result.failed = 1;
  }
  bool correct = result.failed == 0 && result.checks_ok;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result.attempted);
  json += ",\"failed\":" + std::to_string(result.failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < report.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonString(report[i].name) + ":{\"value\":" +
            JsonNumber(report[i].value) + ",\"unit\":" +
            JsonString(report[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
