// Tests for the evaluation observability subsystem (src/obs): exact
// per-rule and per-iteration statistics on a hand-computed transitive
// closure, thread-count invariance of the exact counters, trace-event
// sequencing, and the report renderer.
//
// The fixture is a 5-node chain par(n0..n4) closed under
//
//   rule 0:  tc(X, Y) :- par(X, Y).            (non-recursive, "once")
//   rule 1:  tc(X, Y) :- par(X, Z), tc(Z, Y).  (one delta version)
//
// with @no_rewriting, so the full closure (10 tuples) is computed by
// basic semi-naive iteration. Hand-computed expectations:
//   once pass: rule 0 applied once, 4 solutions, 4 inserts.
//   iter 1: delta = 4 base pairs  -> 3 solutions (distance-2 pairs)
//   iter 2: delta = 3             -> 2 solutions (distance-3 pairs)
//   iter 3: delta = 2             -> 1 solution  (distance-4 pair)
//   iter 4: delta = 1             -> 0 solutions, fixpoint
// so rule 1: applications 4, solutions/derived/inserted 6, and the
// iteration log reads [3, 2, 1, 0].

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include <coral/coral.h>

namespace coral {
namespace {

constexpr const char* kChainFacts =
    "par(n0, n1). par(n1, n2). par(n2, n3). par(n3, n4).\n";

std::string TcModule(const std::string& annotations) {
  return "module tcmod.\n"
         "export tc(ff).\n"
         "@no_rewriting.\n" +
         annotations +
         "tc(X, Y) :- par(X, Y).\n"
         "tc(X, Y) :- par(X, Z), tc(Z, Y).\n"
         "end_module.\n";
}

class StatsTest : public ::testing::Test {
 protected:
  void Load(const std::string& src) {
    auto st = db.Consult(src);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  size_t Count(const std::string& query) {
    auto result = db.EvalQuery(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows.size() : 0;
  }

  uint64_t Val(const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  }

  /// Asserts the exact hand-computed TC counters on the given profile.
  void CheckTcProfile(const obs::ModuleProfile* p, bool parallel) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->activations(), 1u);
    ASSERT_EQ(p->rule_count(), 2u);

    const obs::RuleStats& r0 = p->rule(0);
    EXPECT_EQ(Val(r0.applications), 1u);
    EXPECT_EQ(Val(r0.solutions), 4u);
    EXPECT_EQ(Val(r0.derived), 4u);
    EXPECT_EQ(Val(r0.inserted), 4u);
    EXPECT_EQ(r0.duplicates(), 0u);

    const obs::RuleStats& r1 = p->rule(1);
    EXPECT_EQ(Val(r1.applications), 4u);
    EXPECT_EQ(Val(r1.solutions), 6u);
    EXPECT_EQ(Val(r1.derived), 6u);
    EXPECT_EQ(Val(r1.inserted), 6u);
    EXPECT_EQ(r1.duplicates(), 0u);

    EXPECT_EQ(p->total_solutions(), 10u);
    EXPECT_EQ(p->total_inserted(), 10u);
    EXPECT_EQ(p->total_duplicates(), 0u);

    // The iteration log covers the fixpoint loop (the once pass is not an
    // iteration): deltas 3, 2, 1 and the empty round that detects the
    // fixpoint.
    EXPECT_EQ(p->total_iterations(), 4u);
    std::vector<obs::IterationStats> iters = p->iterations();
    ASSERT_EQ(iters.size(), 4u);
    const uint64_t want_inserts[] = {3, 2, 1, 0};
    const uint64_t want_solutions[] = {3, 2, 1, 0};
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(iters[i].inserts, want_inserts[i]) << "iteration " << i;
      EXPECT_EQ(iters[i].solutions, want_solutions[i]) << "iteration " << i;
      if (!parallel) {
        EXPECT_TRUE(iters[i].worker_ns.empty()) << "iteration " << i;
      }
    }
    EXPECT_EQ(p->rule_text(0), "tc(X,Y) :- par(X,Y).");
  }

  Database db;
};

// The exact counters hold on every rule-application path: join bytecode
// and the interpreter, each sequential and with four workers. The
// thread-count-invariant counters (applications, solutions, derived,
// inserted, duplicates, delta sizes) must match the serial run exactly;
// probes and times are schedule-dependent and are not compared across
// thread counts.
class StatsTcPathTest
    : public StatsTest,
      public ::testing::WithParamInterface<std::tuple<bool, int>> {};

TEST_P(StatsTcPathTest, TcCountersExact) {
  const auto [use_vm, threads] = GetParam();
  db.set_use_vm(use_vm);
  Load(std::string(kChainFacts) +
       TcModule(threads > 1 ? "@profile.\n@parallel(4).\n" : "@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  CheckTcProfile(p, /*parallel=*/threads > 1);
  // The path under test really ran: the VM applied the rules without
  // falling back, or never ran at all.
  EXPECT_EQ(Val(db.vm_counters()->applications) > 0, use_vm);
  EXPECT_EQ(Val(db.vm_counters()->runtime_fallbacks), 0u);
  if (threads > 1) {
    // Parallel iterations record per-worker busy time.
    std::vector<obs::IterationStats> iters = p->iterations();
    ASSERT_FALSE(iters.empty());
    EXPECT_EQ(iters[0].worker_ns.size(), 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VmAndThreads, StatsTcPathTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Vm" : "Interp") +
             (std::get<1>(info.param) > 1 ? "FourThreads" : "Serial");
    });

TEST_F(StatsTest, DuplicateDerivationsAreCounted) {
  // par = {(a,b), (b,c), (a,c)}: the once pass inserts all three; the
  // first delta round re-derives (a,c) via (a,b)+(b,c), which the
  // duplicate check rejects.
  Load("par(a, b). par(b, c). par(a, c).\n" + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 3u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  ASSERT_NE(p, nullptr);
  const obs::RuleStats& r1 = p->rule(1);
  EXPECT_EQ(Val(r1.derived), 1u);
  EXPECT_EQ(Val(r1.inserted), 0u);
  EXPECT_EQ(r1.duplicates(), 1u);
  EXPECT_EQ(p->total_duplicates(), 1u);
}

TEST_F(StatsTest, ProfilingDisabledCollectsNothing) {
  Load(std::string(kChainFacts) + TcModule(""));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  EXPECT_TRUE(db.stats()->empty());
  EXPECT_EQ(db.stats()->Find("tcmod"), nullptr);
}

TEST_F(StatsTest, GlobalSwitchProfilesUnannotatedModules) {
  Load(std::string(kChainFacts) + TcModule(""));
  db.set_profiling(true);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  CheckTcProfile(db.stats()->Find("tcmod"), /*parallel=*/false);
}

TEST_F(StatsTest, CountsAggregateAcrossActivations) {
  // A non-save module is re-evaluated per query; the registry keys by
  // module name, so a second activation doubles every exact counter.
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->activations(), 2u);
  EXPECT_EQ(Val(p->rule(0).applications), 2u);
  EXPECT_EQ(Val(p->rule(1).applications), 8u);
  EXPECT_EQ(p->total_inserted(), 20u);
  EXPECT_EQ(p->total_iterations(), 8u);
}

TEST_F(StatsTest, ClearStatsDropsEverything) {
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  EXPECT_FALSE(db.stats()->empty());
  db.ClearStats();
  EXPECT_TRUE(db.stats()->empty());
  // Profiling stays on: the next activation re-registers.
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->activations(), 1u);
}

TEST_F(StatsTest, TraceEventSequenceSerial) {
  Load(std::string(kChainFacts) + TcModule(""));
  obs::CollectingTraceSink sink;
  db.set_trace_sink(&sink);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  db.set_trace_sink(nullptr);

  const std::vector<obs::TraceEvent>& ev = sink.events();
  ASSERT_FALSE(ev.empty());
  EXPECT_EQ(ev.front().kind, obs::TraceKind::kModuleCall);
  EXPECT_EQ(ev.front().module, "tcmod");

  size_t begins = 0, ends = 0, fires = 0, inserts = 0, dones = 0;
  for (const obs::TraceEvent& e : ev) {
    switch (e.kind) {
      case obs::TraceKind::kIterBegin: ++begins; break;
      case obs::TraceKind::kIterEnd: ++ends; break;
      case obs::TraceKind::kRuleFire: ++fires; break;
      case obs::TraceKind::kInsert: ++inserts; break;
      case obs::TraceKind::kModuleDone: ++dones; break;
      default: break;
    }
  }
  EXPECT_EQ(begins, 4u);
  EXPECT_EQ(ends, 4u);
  // One rule-fire per delta-version application inside the fixpoint loop
  // (the once pass also fires rule 0 once).
  EXPECT_EQ(fires, 5u);
  EXPECT_EQ(inserts, 10u);
  EXPECT_EQ(dones, 1u);
}

TEST_F(StatsTest, JsonlSinkEmitsOneObjectPerEvent) {
  Load(std::string(kChainFacts) + TcModule(""));
  std::ostringstream out;
  obs::JsonlTraceSink sink(&out);
  db.set_trace_sink(&sink);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  db.set_trace_sink(nullptr);

  std::istringstream in(out.str());
  std::string line;
  size_t n = 0, inserts = 0;
  while (std::getline(in, line)) {
    auto ev = obs::TraceEvent::FromJson(line);
    ASSERT_TRUE(ev.ok()) << line << ": " << ev.status().ToString();
    if (ev->kind == obs::TraceKind::kInsert) ++inserts;
    ++n;
  }
  EXPECT_GE(n, 10u);
  EXPECT_EQ(inserts, 10u);
}

TEST_F(StatsTest, ReportRendersRulesAndIterations) {
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("tcmod"), std::string::npos) << report;
  EXPECT_NE(report.find("tc(X,Y) :- par(X,Z), tc(Z,Y)."), std::string::npos)
      << report;
  EXPECT_NE(report.find("10 tuple(s) inserted"), std::string::npos)
      << report;
}

TEST_F(StatsTest, EmptyReportExplainsHowToEnable) {
  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("@profile"), std::string::npos) << report;
}

}  // namespace
}  // namespace coral
