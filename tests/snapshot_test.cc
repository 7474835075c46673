// Concurrency tests for the session/snapshot layer: N reader sessions
// querying while M writer commits land must each see a result equal to
// some from-scratch evaluation at a commit boundary (snapshot isolation
// — never a torn read in the middle of a batch), deadlines must abort
// runaway queries, and Database teardown must be safe with observers
// registered. Run under CORAL_SANITIZE="thread" in the CI thread matrix,
// these tests are the data-race harness for the commit/publish protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/obs/trace.h"

namespace coral {
namespace {

std::string PathModule() {
  return "module paths.\n"
         "export path(bf, ff).\n"
         "path(X, Y) :- edge(X, Y).\n"
         "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
         "end_module.\n";
}

std::string EdgeBatch(int from, int count) {
  std::string out;
  for (int i = from; i < from + count; ++i) {
    out += "edge(" + std::to_string(i) + ", " + std::to_string(i + 1) +
           ").\n";
  }
  return out;
}

// Readers see some commit-boundary state, verified against from-scratch
// evaluations: a chain grows in batches of kBatch edges; every reader
// answer count must equal the count a fresh database produces at one of
// the boundaries.
TEST(SnapshotTest, ReadersSeeCommitBoundariesOnly) {
  constexpr int kBatches = 6;
  constexpr int kBatch = 10;
  constexpr int kReaders = 4;

  // From-scratch reference: answer counts at every commit boundary.
  std::set<size_t> boundary_counts;
  for (int b = 1; b <= kBatches; ++b) {
    Database fresh;
    ASSERT_TRUE(fresh.Consult(PathModule()).ok());
    ASSERT_TRUE(fresh.Consult(EdgeBatch(1, b * kBatch)).ok());
    auto result = fresh.EvalQuery("?- path(1, X).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    boundary_counts.insert(result->rows.size());
  }
  ASSERT_EQ(boundary_counts.size(), kBatches);  // distinct per boundary

  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult(EdgeBatch(1, kBatch)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done, &torn, &boundary_counts] {
      while (!done.load(std::memory_order_acquire)) {
        Session session(&db);
        auto result = session.EvalQuery("?- path(1, X).");
        if (!result.ok()) {
          ADD_FAILURE() << result.status().ToString();
          torn.fetch_add(1);
          return;
        }
        if (boundary_counts.count(result->rows.size()) == 0) {
          torn.fetch_add(1);
        }
      }
    });
  }

  // Writer: commit the remaining batches, one Consult per boundary.
  for (int b = 1; b < kBatches; ++b) {
    auto committed = db.Consult(EdgeBatch(1 + b * kBatch, kBatch));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0)
      << "a reader observed a state not matching any commit boundary";
}

// Same discipline on direct base-relation queries (no module): counts
// must be multiples of the batch size.
TEST(SnapshotTest, BaseRelationScansAreSnapshotted) {
  constexpr int kBatches = 5;
  constexpr int kBatch = 50;
  Database db;
  ASSERT_TRUE(db.Consult(EdgeBatch(1, kBatch)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Session session(&db);
      auto result = session.EvalQuery("?- edge(X, Y).");
      if (!result.ok()) {
        ADD_FAILURE() << result.status().ToString();
        return;
      }
      if (result->rows.size() % kBatch != 0) torn.fetch_add(1);
    }
  });
  for (int b = 1; b < kBatches; ++b) {
    ASSERT_TRUE(db.Consult(EdgeBatch(1 + b * kBatch, kBatch)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(SnapshotTest, SessionReadsItsOwnWritesAfterConsult) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Consult("edge(1, 2).\nedge(2, 3).\n").ok());
  auto result = session.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);

  // A second session holds its snapshot across the first one's commit
  // until it refreshes.
  Session other(&db);
  auto before = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(session.Consult("edge(3, 4).\n").ok());
  auto stale = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows.size(), before->rows.size());
  other.Refresh();
  auto fresh = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 3u);
}

TEST(SnapshotTest, LoadFactsCountsNewFacts) {
  Database db;
  Session session(&db);
  auto first = session.LoadFacts("p(1). p(2). p(3).");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), 3u);
  auto dup = session.LoadFacts("p(2). p(4).");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 1u);  // p(2) already present
  auto rejected = session.LoadFacts("?- p(X).");
  EXPECT_FALSE(rejected.ok());
}

// assert/retract are commits: a session created after an embedded
// assert or retract sees it (the published view was current before).
TEST(SnapshotTest, EmbeddedAssertAndRetractAreCommits) {
  Database db;
  ASSERT_TRUE(db.Consult("e(1, 2).").ok());
  {
    Session before(&db);
    auto result = before.EvalQuery("?- e(X, Y).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u);
  }
  ASSERT_TRUE(db.EvalQuery("assert(e(2, 3))").ok());
  {
    Session after(&db);
    auto result = after.EvalQuery("?- e(X, Y).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 2u);
  }
  ASSERT_TRUE(db.EvalQuery("retract(e(1, 2))").ok());
  Session after(&db);
  auto result = after.EvalQuery("?- e(X, Y).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

// A retract inside a pinned session deletes from live state, not from
// the session's frozen snapshot.
TEST(SnapshotTest, RetractInPinnedSessionDeletesLiveFacts) {
  Database db;
  ASSERT_TRUE(db.Consult("e(1, 2).").ok());
  Session pinned(&db);
  auto before = pinned.EvalQuery("?- e(X, Y).");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->rows.size(), 1u);
  Session writer(&db);
  ASSERT_TRUE(writer.LoadFacts("e(5, 6).").ok());

  auto retracted = pinned.EvalQuery("?- retract(e(5, X)).");
  ASSERT_TRUE(retracted.ok()) << retracted.status().ToString();
  EXPECT_EQ(retracted->rows.size(), 1u);
  auto live = db.EvalQuery("?- e(5, X).");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_TRUE(live->rows.empty());
  auto rest = db.EvalQuery("?- e(X, Y).");
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(rest->rows.size(), 1u);
}

TEST(SnapshotTest, BindingsSubstituteIntoQueries) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Consult("edge(1, 2).\nedge(1, 3).\nedge(2, 3).\n")
                  .ok());
  session.Bind("src", "1");
  auto result = session.EvalQuery("?- edge($src, X).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  auto unbound = session.EvalQuery("?- edge($nope, X).");
  EXPECT_FALSE(unbound.ok());
}

TEST(SnapshotTest, DeadlineAbortsCrossProduct) {
  Database db;
  std::string facts;
  for (int i = 0; i < 64; ++i) {
    facts += "wide(" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(db.Consult(facts).ok());
  Session session(&db, /*deadline_ms=*/15);
  // A cyclic chain of inequalities: unsatisfiable, but no static analysis
  // proves it, and every filter needs two bound variables so the
  // reordering optimizer cannot short-circuit the enumeration — the
  // engine must walk ~C(64,4) ascending 4-tuples before concluding
  // emptiness, far beyond a 15 ms budget.
  auto result = session.EvalQuery(
      "?- wide(A), wide(B), wide(C), wide(D), "
      "A < B, B < C, C < D, D < A.");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  // Clearing the deadline makes the same session usable again.
  session.set_deadline_ms(0);
  auto quick = session.EvalQuery("?- wide(0).");
  EXPECT_TRUE(quick.ok());
}

// Satellite regression: a TraceSink registered at teardown time must not
// observe a destroyed registry — ~Database detaches observers before
// tearing down evaluation state.
TEST(SnapshotTest, TeardownWithRegisteredObserversIsClean) {
  class CountingSink : public obs::TraceSink {
   public:
    void Emit(const obs::TraceEvent&) override { events_.fetch_add(1); }
    std::atomic<uint64_t> events_{0};
  };
  CountingSink sink;
  {
    Database db;
    db.set_trace_sink(&sink);
    ASSERT_TRUE(db.Consult(PathModule()).ok());
    ASSERT_TRUE(db.Consult(EdgeBatch(1, 5)).ok());
    auto result = db.EvalQuery("?- path(1, X).");
    ASSERT_TRUE(result.ok());
    // db destroyed here with the sink still registered.
  }
  EXPECT_GT(sink.events_.load(), 0u);

  // And with sessions still holding snapshots: views are shared_ptrs,
  // so a snapshot outliving the database must not be dereferenced, but
  // dropping it after teardown must be safe.
  std::shared_ptr<const ReadView> survivor;
  {
    Database db;
    ASSERT_TRUE(db.Consult(EdgeBatch(1, 3)).ok());
    survivor = db.AcquireReadSnapshot();
  }
  survivor.reset();  // must not touch freed relation memory
}

TEST(SnapshotTest, EpochAdvancesPerPublication) {
  Database db;
  ASSERT_TRUE(db.Consult("p(1).").ok());
  auto v1 = db.AcquireReadSnapshot();
  uint64_t e1 = v1->epoch;
  // No commit since: same view, same epoch.
  auto v1b = db.AcquireReadSnapshot();
  EXPECT_EQ(v1.get(), v1b.get());
  ASSERT_TRUE(db.Consult("p(2).").ok());
  auto v2 = db.AcquireReadSnapshot();
  EXPECT_GT(v2->epoch, e1);
}

}  // namespace
}  // namespace coral
