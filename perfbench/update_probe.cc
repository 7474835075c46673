// update_probe: the ApplyUpdate commit plus the next probe. A saved
// recursive transitive closure (maintained by DRed) and a saved
// non-recursive join view (maintained by counting) sit over disjoint
// chains of kChainLen edges. One write op is one Session::ApplyUpdate
// commit that re-inserts the edge the previous commit deleted and
// deletes one new seeded edge, so the base stays the same size and every
// commit does the same kind of work; one read op probes both saved views
// on the chain just touched with Database::EvalQuery. Expected answers
// are chain arithmetic: with edge p -> p+1 of a chain missing, its head
// reaches exactly nodes 1..p.

#include <coral/coral.h>

#include <memory>

#include "perfbench/answers.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kChains = 10000;
constexpr int kChainLen = 10;  // edges per chain

constexpr char kModules[] = R"(
module tc.
export tc(ff).
@save_module.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.

module jv.
export two(ff).
@save_module.
two(X, Z) :- edge(X, Y), edge(Y, Z).
end_module.
)";

int Node(int chain, int i) { return chain * (kChainLen + 1) + i; }

std::string Edge(int chain, int pos) {
  return "edge(" + std::to_string(Node(chain, pos)) + ", " +
         std::to_string(Node(chain, pos + 1)) + ").";
}

struct Removed {
  int chain;
  int pos;
};

}  // namespace

Result RunUpdateProbe(const Options& opt) {
  Result out;
  std::string text = kModules;
  for (int c = 0; c < kChains; ++c) {
    for (int i = 0; i < kChainLen; ++i) {
      text += Edge(c, i);
      text += '\n';
    }
  }

  Rng rng(opt.seed);
  Tracer tracer(false);
  std::unique_ptr<coral::Database> db;
  std::unique_ptr<coral::Session> session;
  Removed removed{-1, 0};  // chain -1: nothing removed yet
  double warmup_ms = 0;

  // One commit: restore the removed edge, remove a fresh one.
  auto write = [&](Phase* phase) {
    int chain;
    do {
      chain = static_cast<int>(rng.Below(kChains));
    } while (chain == removed.chain);
    Removed next{chain, static_cast<int>(rng.Below(kChainLen))};
    const size_t restores = removed.chain >= 0 ? 1 : 0;
    std::string batch = "-" + Edge(next.chain, next.pos) + "\n";
    if (restores > 0) batch += "+" + Edge(removed.chain, removed.pos) + "\n";
    removed = next;
    SpanScope span(&tracer, "op.write");
    int64_t t = NowNs();
    auto r = session->ApplyUpdate(batch);
    phase->writes.Add(static_cast<double>(NowNs() - t) / 1e6);
    phase->Count(r.ok() && r->base_inserted == restores && r->base_deleted == 1 &&
                 r->maintained > 0 && r->invalidated == 0);
  };
  auto read = [&](Phase* phase) {
    const std::string head = std::to_string(Node(removed.chain, 0));
    SpanScope span(&tracer, "op.read");
    int64_t t = NowNs();
    auto tc = db->EvalQuery("tc(" + head + ", Y)");
    auto two = db->EvalQuery("two(" + head + ", Y)");
    phase->reads.Add(static_cast<double>(NowNs() - t) / 1e6);
    std::vector<int64_t> want_tc, want_two;
    for (int i = 1; i <= removed.pos; ++i) {
      want_tc.push_back(Node(removed.chain, i));
    }
    if (removed.pos >= 2) want_two.push_back(Node(removed.chain, 2));
    phase->Count(SameInts(tc, "Y", want_tc) && SameInts(two, "Y", want_two));
  };

  double setup_s = TimeSetups(kSetups, [&]() {
    session.reset();
    db.reset();
    db = std::make_unique<coral::Database>();
    auto consulted = db->Consult(text);
    if (!consulted.ok()) {
      out.Problem("consult: " + consulted.status().ToString());
      return;
    }
    session = std::make_unique<coral::Session>(db.get());
    // Warm-up: materialize both saved instances, then the first commit,
    // which pays one-time support counting and probe-index backfill.
    removed = {-1, 0};
    Phase warm;
    if (!db->EvalQuery("tc(0, Y)").ok() || !db->EvalQuery("two(0, Y)").ok()) {
      out.Problem("materializing the saved modules failed");
    }
    int64_t t = NowNs();
    write(&warm);
    warmup_ms = static_cast<double>(NowNs() - t) / 1e6;
    read(&warm);
    if (warm.failed > 0) out.Problem("warm-up commit or probe was wrong");
  });
  if (!out.checks_ok) return out;

  auto step = [&](Phase* phase) {
    return [&, phase]() {
      tracer.set_op(phase->attempted);
      write(phase);
      read(phase);
    };
  };
  if (!opt.trace) {
    Phase phase;
    phase.wall_s = ClosedLoop(opt.seconds, step(&phase));
    PutEndToEnd(phase, setup_s, &out);
    return out;
  }

  Phase untraced;
  untraced.wall_s = ClosedLoop(opt.seconds / 2, step(&untraced));
  db->set_profiling(true);
  tracer.set_enabled(true);
  Counters before = Counters::Take(db.get());
  Phase traced;
  traced.wall_s = ClosedLoop(opt.seconds / 2, step(&traced));
  Counters after = Counters::Take(db.get());
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  out.Put("maint.commit_ms", traced.writes.Sum() / traced.writes.size(), "ms");
  out.Put("maint.probe_ms", traced.reads.Sum() / traced.reads.size(), "ms");
  // The probes are embedded Database::EvalQuery calls.
  out.Put("core.eval_ms", traced.reads.Sum() / traced.reads.size(), "ms");
  out.Put("maint.warmup_ms", warmup_ms, "ms");
  PutCounterDeltas(before, after, traced.writes.size(), &out);
  RecordSpanSummary(tracer, traced.attempted, &out);
  PutTraceOverhead(untraced, traced, tracer, opt, "update_probe", &out);

  MeasureCompilePipeline(db.get(), text, &tracer, &out);
  // No MeasureReadPaths here: a Session reader ignores the saved
  // instances and evaluates each probe from scratch against its snapshot
  // with scan-only joins, which over this base runs for minutes (the
  // session deadline fires only between fixpoint steps). README.md
  // records the measured penalty on a smaller base.
  Phase extra;
  MeasureSnapshotAcquire(db.get(), [&]() { write(&extra); }, &out);
  return out;
}

}  // namespace perfbench
