// persistent_query: the only workload whose data is larger than the
// program's own cache. Base edges live in a PersistentRelation (heap
// file plus a B-tree on column 0) behind a buffer pool of fewer frames
// than the heap has pages, attached to the Database with
// StorageManager::AttachTo. One read op is a bound reachability query
// over a forest of identical trees. One write op replaces the batch of
// kBatch tuples in a second persistent relation (delete the previous
// batch, insert a fresh one) outside any transaction, so pages are
// written back through the pool but never forced. Reads and writes
// alternate on one thread.
//
// Durable commits are not in the timed loop: a one-tuple Begin / Insert /
// Commit is mostly a handful of WAL fsyncs, and on a shared disk its
// median moved between 1.0 and 2.1 ms across identical runs, more than
// any end-to-end bound allows. The traced run times them instead
// (storage.commit_ms, fsync on every commit).

#include <coral/coral.h>

#include <cstdio>
#include <memory>

#include "perfbench/answers.h"
#include "perfbench/layers.h"
#include "perfbench/oracle.h"
#include "perfbench/workloads.h"
#include "src/obs/storage_metrics.h"
#include "src/storage/disk_manager.h"

namespace perfbench {
namespace {

constexpr int kTrees = 32;
constexpr int kFanout = 2;
constexpr int kDepth = 5;          // 62 edges per tree
constexpr size_t kPoolFrames = 4;  // the heap alone needs more pages
constexpr int kBatch = 1024;    // tuples replaced per write op
constexpr int kBatches = 4;     // distinct batches the writes cycle through
constexpr int kCommits = 200;   // durable commits timed by the traced run

constexpr char kModule[] = R"(
module preach.
export preach(bf).
preach(X, Y) :- pedge(X, Y).
preach(X, Y) :- preach(X, Z), pedge(Z, Y).
end_module.
)";

const coral::Tuple* Pair(coral::TermFactory* f, int64_t a, int64_t b) {
  const coral::Arg* args[] = {f->MakeInt(a), f->MakeInt(b)};
  return f->MakeTuple(args);
}

struct StorageCounters {
  uint64_t hits = 0, misses = 0, reads = 0, writes = 0, wal_bytes = 0;

  static StorageCounters Take(coral::StorageManager* sm) {
    return {sm->pool()->hits(), sm->pool()->misses(), sm->disk()->reads(),
            sm->disk()->writes(),
            coral::obs::StorageMetrics::Instance().wal_bytes_appended.load()};
  }
};

}  // namespace

Result RunPersistentQuery(const Options& opt) {
  Result out;
  Rng rng(opt.seed);
  const Forest forest = MakeForest(kTrees, kFanout, kDepth,
                                   [&](size_t n) { return rng.Below(n); });
  const std::string prefix =
      (opt.work_dir.empty() ? std::string(".") : opt.work_dir) +
      "/persistent_query";
  auto remove_files = [&]() {
    std::remove((prefix + ".db").c_str());
    std::remove((prefix + ".wal").c_str());
  };

  Tracer tracer(false);
  std::unique_ptr<coral::Database> db;
  std::unique_ptr<coral::StorageManager> sm;
  coral::PersistentRelation* plog = nullptr;
  uint64_t writes_done = 0;
  int64_t commits_done = 0;

  auto close_all = [&]() {
    db.reset();
    if (sm) {
      coral::Status st = sm->Close();
      if (!st.ok()) out.Problem("storage close: " + st.ToString());
      sm.reset();
    }
    remove_files();
  };

  auto read = [&](Phase* phase) {
    size_t tree = rng.Below(kTrees);
    SpanScope span(&tracer, "op.read");
    int64_t t = NowNs();
    auto r = db->EvalQuery("preach(" + std::to_string(forest.roots[tree]) +
                           ", Y)");
    phase->reads.Add(static_cast<double>(NowNs() - t) / 1e6);
    phase->Count(SameInts(r, "Y", forest.answers[tree]));
  };
  // The writes cycle through a fixed set of batches, so the term space
  // and the relation stay the same size however many ops a run gets to.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      batches[static_cast<size_t>(b)].emplace_back(
          b * kBatch + i, static_cast<int64_t>(rng.Below(1 << 20)));
    }
  }
  std::vector<const coral::Tuple*> batch;  // plog's current contents
  auto write = [&](Phase* phase) {
    std::vector<const coral::Tuple*> next;
    for (const auto& [a, b] : batches[writes_done++ % kBatches]) {
      next.push_back(Pair(db->factory(), a, b));
    }
    SpanScope span(&tracer, "op.write");
    int64_t start = NowNs();
    bool ok = true;
    for (const coral::Tuple* t : batch) ok = plog->Delete(t) && ok;
    for (const coral::Tuple* t : next) ok = plog->Insert(t) && ok;
    phase->writes.Add(static_cast<double>(NowNs() - start) / 1e6);
    batch = std::move(next);
    phase->Count(ok && plog->size() == static_cast<size_t>(kBatch));
  };
  // One durable one-tuple transaction (traced run only).
  auto commit = [&]() {
    const coral::Tuple* t = Pair(db->factory(), -1 - commits_done++, 0);
    coral::Status st = sm->Begin();
    bool inserted = st.ok() && plog->Insert(t);
    if (st.ok()) st = sm->Commit();
    return st.ok() && inserted;
  };

  double setup_s = TimeSetups(kSetups, [&]() {
    close_all();
    db = std::make_unique<coral::Database>();
    coral::StorageManager::Options so;
    so.pool_frames = kPoolFrames;
    auto opened = coral::StorageManager::Open(prefix, db->factory(), so);
    if (!opened.ok()) {
      out.Problem("storage open: " + opened.status().ToString());
      return;
    }
    sm = std::move(opened).value();
    auto pedge = sm->CreateRelation("pedge", 2);
    auto log = sm->CreateRelation("plog", 2);
    if (!pedge.ok() || !log.ok() || !(*pedge)->AddIndex({0}).ok()) {
      out.Problem("creating the persistent relations failed");
      return;
    }
    plog = *log;
    writes_done = 0;
    batch.clear();
    // Bulk load outside a transaction, like the timed writes: inside one,
    // every page's first change forces a WAL fsync, and setup_s would
    // measure the shared disk instead of the engine.
    for (const auto& [parent, child] : forest.edges) {
      (*pedge)->Insert(Pair(db->factory(), parent, child));
    }
    coral::Status st = sm->AttachTo(db.get());
    if (st.ok()) st = db->Consult(kModule).status();
    if (!st.ok()) {
      out.Problem("persistent setup: " + st.ToString());
      return;
    }
    // Warm-up: compile the query form, cycle the pool, one write.
    Phase warm;
    for (int i = 0; i < 4; ++i) read(&warm);
    write(&warm);
    if (warm.failed > 0) out.Problem("warm-up read or write was wrong");
  });
  if (!out.checks_ok) {
    close_all();
    return out;
  }
  out.record["heap_pages"] = std::to_string(sm->disk()->num_pages());
  out.record["pool_frames"] = std::to_string(kPoolFrames);

  auto step = [&](Phase* phase) {
    return [&, phase]() {
      tracer.set_op(phase->attempted);
      read(phase);
      write(phase);
    };
  };
  if (!opt.trace) {
    Phase phase;
    phase.wall_s = ClosedLoop(opt.seconds, step(&phase));
    PutEndToEnd(phase, setup_s, &out);
    close_all();
    return out;
  }

  Phase untraced;
  untraced.wall_s = ClosedLoop(opt.seconds / 2, step(&untraced));
  db->set_profiling(true);
  tracer.set_enabled(true);
  Counters before = Counters::Take(db.get());
  StorageCounters sbefore = StorageCounters::Take(sm.get());
  Phase traced;
  traced.wall_s = ClosedLoop(opt.seconds / 2, step(&traced));
  Counters after = Counters::Take(db.get());
  StorageCounters safter = StorageCounters::Take(sm.get());
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  const double ops = static_cast<double>(traced.attempted);
  const double fetches = static_cast<double>(
      (safter.hits - sbefore.hits) + (safter.misses - sbefore.misses));
  out.Put("storage.pool_fetches", fetches / ops, "count");
  out.Put("storage.pool_hit_ratio",
          fetches > 0 ? static_cast<double>(safter.hits - sbefore.hits) /
                            fetches
                      : 0,
          "ratio");
  out.Put("storage.disk_reads",
          static_cast<double>(safter.reads - sbefore.reads) / ops, "count");
  out.Put("storage.disk_writes",
          static_cast<double>(safter.writes - sbefore.writes) / ops, "count");
  {
    SpanScope span(&tracer, "storage.commits");
    StorageCounters cbefore = StorageCounters::Take(sm.get());
    int64_t t = NowNs();
    for (int i = 0; i < kCommits; ++i) {
      if (!commit()) out.Problem("durable commit failed");
    }
    out.Put("storage.commit_ms",
            static_cast<double>(NowNs() - t) / 1e6 / kCommits, "ms");
    StorageCounters cafter = StorageCounters::Take(sm.get());
    out.Put("storage.wal_bytes",
            static_cast<double>(cafter.wal_bytes - cbefore.wal_bytes) /
                kCommits,
            "bytes");
  }
  {
    // Decode cost of one full scan of the base relation.
    coral::Relation* pedge = sm->FindRelation("pedge", 2);
    SpanScope span(&tracer, "storage.scan");
    int64_t t = NowNs();
    size_t n = 0;
    for (int pass = 0; pass < 20; ++pass) {
      auto it = pedge->Scan();
      while (it->Next() != nullptr) ++n;
    }
    out.Put("storage.scan_us_per_tuple",
            n > 0 ? static_cast<double>(NowNs() - t) / 1e3 / n : 0, "us");
  }
  PutCounterDeltas(before, after, traced.reads.size(), &out);
  RecordSpanSummary(tracer, traced.attempted, &out);
  PutTraceOverhead(untraced, traced, tracer, opt, "persistent_query", &out);

  MeasureCompilePipeline(db.get(), kModule, &tracer, &out);
  std::vector<ReadOp> reads;
  for (int i = 0; i < 4; ++i) {
    reads.push_back({"preach(" + std::to_string(forest.roots[i]) + ", Y)"});
  }
  MeasureReadPaths(db.get(), reads, &tracer, &out);
  std::vector<std::string> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back("preach(" + std::to_string(forest.roots[i]) + ", Y)");
  }
  MeasureServerRoundTrips(db.get(), requests, &tracer, &out);
  Phase extra;
  MeasureSnapshotAcquire(db.get(), [&]() { write(&extra); }, &out);
  close_all();
  return out;
}

}  // namespace perfbench
