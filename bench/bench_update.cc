// Incremental view maintenance vs. from-scratch recomputation
// (docs/MAINTENANCE.md): a saved transitive-closure module is kept up to
// date across single-edge base updates. The maintained arm commits each
// update through Session::ApplyUpdate with maintenance on (DRed +
// resumed fixpoint repair the instance in place); the recompute arm runs
// the identical updates with Database::set_maintenance(false), so every
// commit invalidates the instance and the probe query pays a full
// re-evaluation. EXPERIMENTS.md records the ratio at 10^5 base facts.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/database.h"
#include "src/core/session.h"
#include "src/lang/parser.h"

namespace coral {
namespace {

// `edges` base facts as disjoint chains of kChainLen edges each: the
// closure is recursive but bounded (kChainLen*(kChainLen+1)/2 tuples per
// chain), so the full-TC instance stays linear in the base size instead
// of quadratic.
constexpr int kChainLen = 10;

std::string ChainGraph(int edges) {
  std::string out;
  int chains = edges / kChainLen;
  for (int c = 0; c < chains; ++c) {
    out += bench::ChainFacts("edge", kChainLen,
                             "c" + std::to_string(c) + "n");
  }
  return out;
}

constexpr char kTcModule[] = R"(
  module tc.
  export tc(ff).
  @save_module.
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- edge(X, Z), tc(Z, Y).
  end_module.
)";

std::string EdgeText(int chain, int i) {
  std::string p = "c" + std::to_string(chain) + "n";
  return "edge(" + p + std::to_string(i) + ", " + p +
         std::to_string(i + 1) + ").";
}

/// One timed iteration = commit a single-edge update (delete on even
/// iterations, re-insert on odd — every commit is a real net change) and
/// probe the closure from the touched chain's root. The probe is what a
/// client pays to read fresh answers: with maintenance it scans the
/// repaired instance; without, it re-materializes the module.
void RunUpdateCycle(benchmark::State& state, bool maintain) {
  int edges = static_cast<int>(state.range(0));
  int chains = edges / kChainLen;
  Database db;
  bench::MaybeProfile(&db);
  db.set_maintenance(maintain);
  if (!db.Consult(kTcModule).ok()) return;
  if (!db.Consult(ChainGraph(edges)).ok()) return;
  Session session(&db);
  // Materialize the saved instance before timing, and warm the
  // maintenance pass: the first commit pays one-time support counting
  // and probe-index backfill, which steady-state commits never repay.
  (void)db.EvalQuery("tc(c0n0, Y)");
  (void)session.ApplyUpdate("-" + EdgeText(0, kChainLen - 1) + "\n");
  (void)session.ApplyUpdate("+" + EdgeText(0, kChainLen - 1) + "\n");

  uint64_t maintained = 0, invalidated = 0, rederived = 0;
  int iter = 0;
  for (auto _ : state) {
    int chain = (iter / 2) % chains;  // delete/re-insert pair per chain
    bool deleting = (iter % 2) == 0;
    std::string line = (deleting ? "-" : "+") +
                       EdgeText(chain, kChainLen - 1) + "\n";
    auto up = session.ApplyUpdate(line);
    if (!up.ok()) {
      state.SkipWithError(up.status().ToString().c_str());
      return;
    }
    maintained += up->maintained;
    invalidated += up->invalidated;
    rederived += up->rederived;
    auto res = db.EvalQuery("tc(c" + std::to_string(chain) + "n0, Y)");
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(res->rows.size());
    ++iter;
  }
  // Leave no chain truncated for the next benchmark's Arg.
  if (iter % 2 == 1) {
    (void)session.ApplyUpdate("+" + EdgeText((iter / 2) % chains,
                                             kChainLen - 1) + "\n");
  }
  state.counters["maintained"] = static_cast<double>(maintained);
  state.counters["invalidated"] = static_cast<double>(invalidated);
  state.counters["rederived"] = static_cast<double>(rederived);
  bench::MaybeDumpProfile(&db, maintain ? "update maintained"
                                        : "update recompute");
}

void BM_SingleEdgeUpdate_Maintained(benchmark::State& state) {
  RunUpdateCycle(state, /*maintain=*/true);
}
void BM_SingleEdgeUpdate_Recompute(benchmark::State& state) {
  RunUpdateCycle(state, /*maintain=*/false);
}
BENCHMARK(BM_SingleEdgeUpdate_Maintained)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleEdgeUpdate_Recompute)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Batch flavour: one commit carrying kBatch edge deletions spread over
/// distinct chains (then a commit re-inserting them). Maintenance cost
/// scales with the delta; recomputation pays the whole instance per
/// commit regardless.
void RunBatchUpdate(benchmark::State& state, bool maintain) {
  int edges = static_cast<int>(state.range(0));
  int chains = edges / kChainLen;
  const int kBatch = 16;
  Database db;
  bench::MaybeProfile(&db);
  db.set_maintenance(maintain);
  if (!db.Consult(kTcModule).ok()) return;
  if (!db.Consult(ChainGraph(edges)).ok()) return;
  Session session(&db);
  (void)db.EvalQuery("tc(c0n0, Y)");
  (void)session.ApplyUpdate("-" + EdgeText(0, kChainLen - 1) + "\n");
  (void)session.ApplyUpdate("+" + EdgeText(0, kChainLen - 1) + "\n");

  int iter = 0;
  for (auto _ : state) {
    bool deleting = (iter % 2) == 0;
    std::string text;
    for (int b = 0; b < kBatch; ++b) {
      int chain = (iter / 2 * kBatch + b) % chains;
      text += (deleting ? "-" : "+") + EdgeText(chain, kChainLen - 1) +
              "\n";
    }
    auto up = session.ApplyUpdate(text);
    if (!up.ok()) {
      state.SkipWithError(up.status().ToString().c_str());
      return;
    }
    auto res = db.EvalQuery("tc(c0n0, Y)");
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(res->rows.size());
    ++iter;
  }
  state.counters["batch"] = kBatch;
}

void BM_BatchUpdate_Maintained(benchmark::State& state) {
  RunBatchUpdate(state, /*maintain=*/true);
}
void BM_BatchUpdate_Recompute(benchmark::State& state) {
  RunBatchUpdate(state, /*maintain=*/false);
}
BENCHMARK(BM_BatchUpdate_Maintained)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchUpdate_Recompute)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Write burst: `writes` one-fact InsertFact calls with no read between
/// them, then one probe. This is the traffic of Coral::Insert in a C++
/// loop or of assert in a pipelined rule. With maintenance every write
/// repairs the instance, and the first one after materialization pays
/// the pass's one-time support counting and probe-index backfill; without
/// it the first write drops the instance, the rest find nothing to
/// repair, and the probe recomputes. Each iteration starts untimed from a
/// freshly materialized instance; each write extends a chain's end with
/// a fresh edge, so every write is a real change.
void RunWriteBurst(benchmark::State& state, bool maintain) {
  int edges = static_cast<int>(state.range(0));
  int writes = static_cast<int>(state.range(1));
  int chains = edges / kChainLen;
  std::string graph = ChainGraph(edges);
  std::string burst;
  for (int k = 0; k < writes; ++k) {
    std::string p = "c" + std::to_string(k % chains) + "n";
    burst += "edge(" + p + std::to_string(kChainLen) + ", x" +
             std::to_string(k) + ").\n";
  }
  std::unique_ptr<Database> db;
  for (auto _ : state) {
    state.PauseTiming();
    db = std::make_unique<Database>();
    db->set_maintenance(maintain);
    if (!db->Consult(kTcModule).ok() || !db->Consult(graph).ok() ||
        !db->EvalQuery("tc(c0n0, Y)").ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    Parser parser(burst, db->factory());
    auto prog = parser.ParseProgram();
    if (!prog.ok()) {
      state.SkipWithError(prog.status().ToString().c_str());
      return;
    }
    state.ResumeTiming();
    for (const Rule& fact : prog->top_facts) {
      auto ins = db->InsertFact(fact);
      if (!ins.ok() || !*ins) {
        state.SkipWithError("insert failed");
        return;
      }
    }
    auto res = db->EvalQuery("tc(c0n0, Y)");
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(res->rows.size());
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
}

void BM_WriteBurstThenQuery_Maintained(benchmark::State& state) {
  RunWriteBurst(state, /*maintain=*/true);
}
void BM_WriteBurstThenQuery_Recompute(benchmark::State& state) {
  RunWriteBurst(state, /*maintain=*/false);
}
BENCHMARK(BM_WriteBurstThenQuery_Maintained)
    ->Args({10000, 1})
    ->Args({10000, 100})
    ->Args({10000, 1000})
    ->Args({10000, 3000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WriteBurstThenQuery_Recompute)
    ->Args({10000, 1})
    ->Args({10000, 100})
    ->Args({10000, 1000})
    ->Args({10000, 3000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coral

int main(int argc, char** argv) {
  coral::bench::ParseThreadsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
