// Tests of the incremental update path (docs/MAINTENANCE.md): the
// Database::ApplyUpdate / Session::ApplyUpdate API, counting maintenance
// of non-recursive save modules, DRed + resumed fixpoint for recursive
// ones, the one commit path every other base write goes through
// (InsertFact, DeleteFacts, Consult, LoadFacts, assert/retract) with its
// all-or-nothing batches, and the fallback to invalidation for uncovered
// shapes and for instances whose answers are being scanned.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/core/update.h"
#include "src/cxx/coral.h"

namespace coral {
namespace {

class MaintenanceTest : public ::testing::Test {
 protected:
  void Load(const std::string& src) {
    auto st = db.Consult(src);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  std::vector<std::string> Ask(const std::string& query) {
    auto result = db.EvalQuery(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << " for "
                             << query;
    std::vector<std::string> rows;
    if (result.ok()) {
      for (const AnswerRow& r : result->rows) rows.push_back(r.ToString());
      std::sort(rows.begin(), rows.end());
    }
    return rows;
  }

  size_t Count(const std::string& query) { return Ask(query).size(); }

  /// Parses `line` (one fact, no +/- prefix) into a Rule via a throwaway
  /// consult-free path: ApplyUpdate's own batches are built with it.
  UpdateResult Update(const std::string& inserts,
                      const std::string& deletes = "") {
    Session s(&db);
    std::string text;
    {
      std::istringstream in(inserts);
      for (std::string l; std::getline(in, l);) {
        if (!l.empty()) text += "+" + l + "\n";
      }
    }
    {
      std::istringstream in(deletes);
      for (std::string l; std::getline(in, l);) {
        if (!l.empty()) text += "-" + l + "\n";
      }
    }
    VmMark before = MarkVm();
    auto result = s.ApplyUpdate(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return UpdateResult{};
    ExpectVmMaintenance(before, *result);
    return *result;
  }

  struct VmMark {
    uint64_t applications;
    uint64_t runtime_fallbacks;
  };
  VmMark MarkVm() {
    return {db.vm_counters()->applications.load(),
            db.vm_counters()->runtime_fallbacks.load()};
  }
  /// Maintenance joins run as bytecode: a maintained update adds VM
  /// applications and no runtime fallbacks.
  void ExpectVmMaintenance(const VmMark& before, const UpdateResult& r) {
    if (r.maintained == 0) return;
    VmMark after = MarkVm();
    EXPECT_GT(after.applications, before.applications);
    EXPECT_EQ(after.runtime_fallbacks, before.runtime_fallbacks);
  }

  /// The answers of `query` over `program` evaluated from scratch in a
  /// fresh database: the oracle for updates that invalidate.
  static std::vector<std::string> FromScratch(const std::string& program,
                                              const std::string& query) {
    Database fresh;
    auto st = fresh.Consult(program);
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    auto result = fresh.EvalQuery(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> rows;
    if (result.ok()) {
      for (const AnswerRow& r : result->rows) rows.push_back(r.ToString());
      std::sort(rows.begin(), rows.end());
    }
    return rows;
  }

  /// Registers sq/1, a predicate defined by C++ code: inserting into it
  /// is Unsupported, which makes any batch that writes it fail
  /// validation.
  void RegisterSquares() {
    Status st = Coral(&db).RegisterPredicate(
        "sq", 1,
        [](std::span<const TermRef>, TermFactory*,
           std::vector<const Tuple*>*) { return Status::OK(); });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  /// Stored facts of the base relation `name`/`arity` (0 if none exists).
  size_t Stored(const std::string& name, uint32_t arity) {
    Relation* rel =
        db.FindBaseRelation({db.factory()->symbols().Intern(name), arity});
    return rel == nullptr ? 0 : rel->size();
  }

  Database db;
};

constexpr char kAncSave[] = R"(
  module saved.
  export anc(bf).
  @save_module.
  anc(X, Y) :- par(X, Y).
  anc(X, Y) :- par(X, Z), anc(Z, Y).
  end_module.
)";

// ---------------------------------------------------------------------
// Satellite: stale answers must never be served, whatever the mutation
// path. Each of these mutates base facts AFTER the save module
// materialized, and checks the next query reflects the change.
// ---------------------------------------------------------------------

TEST_F(MaintenanceTest, InsertFactMaintainsSavedModule) {
  Load(kAncSave);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(a, X)"), 2u);  // materializes the saved instance
  const obs::MaintenanceCounters& mc = db.maintenance_counters();
  uint64_t maintained = mc.maintained.load();
  uint64_t invalidated = mc.invalidated.load();
  Load("par(c, d).");  // Consult's facts commit through ApplyUpdate
  EXPECT_EQ(mc.maintained.load(), maintained + 1);
  EXPECT_EQ(mc.invalidated.load(), invalidated);
  // The profile shows the repair although no ApplyUpdate call was made.
  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("ApplyUpdate calls: 0\n"), std::string::npos)
      << report;
  EXPECT_NE(report.find("maintained:        " +
                        std::to_string(maintained + 1) + "\n"),
            std::string::npos)
      << report;
  // par(c, d) arrived after materialization; anc must include it.
  EXPECT_EQ(Count("anc(a, X)"), 3u);
  EXPECT_EQ(Ask("anc(b, X)"), (std::vector<std::string>{"X = c", "X = d"}));
}

TEST_F(MaintenanceTest, DeleteFactsInvalidatesSavedModule) {
  Load(kAncSave);
  Load("par(a, b). par(b, c). par(c, d).");
  EXPECT_EQ(Count("anc(a, X)"), 3u);
  UpdateResult r = Update("", "par(b, c).");
  EXPECT_EQ(r.base_deleted, 1u);
  EXPECT_EQ(Count("anc(a, X)"), 1u);  // only par(a, b) remains reachable
  EXPECT_TRUE(Ask("anc(b, X)").empty());
}

TEST_F(MaintenanceTest, AssertBuiltinMaintainsSavedModule) {
  Load(kAncSave);
  Load("par(a, b).");
  EXPECT_EQ(Count("anc(a, X)"), 1u);
  const obs::MaintenanceCounters& mc = db.maintenance_counters();
  uint64_t maintained = mc.maintained.load();
  uint64_t invalidated = mc.invalidated.load();
  // assert/1 from a top-level query is a commit like ApplyUpdate.
  EXPECT_EQ(Count("assert(par(b, c))"), 1u);
  EXPECT_EQ(mc.maintained.load(), maintained + 1);
  EXPECT_EQ(mc.invalidated.load(), invalidated);
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  // retract/1 likewise.
  EXPECT_EQ(Count("retract(par(b, c))"), 1u);
  EXPECT_EQ(mc.maintained.load(), maintained + 2);
  EXPECT_EQ(mc.invalidated.load(), invalidated);
  EXPECT_EQ(Count("anc(a, X)"), 1u);
}

TEST_F(MaintenanceTest, AssertDuringSavedScanInvalidates) {
  Load(kAncSave);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  uint64_t invalidated = db.maintenance_counters().invalidated.load();
  // Each answer of the open anc scan asserts a new par fact. Repairing
  // the instance under the scan would feed it forever; instead the first
  // assert drops it and the scan ends over the answers it started with.
  EXPECT_EQ(Count("anc(a, X), assert(par(X, f(X)))"), 2u);
  EXPECT_EQ(db.maintenance_counters().invalidated.load(), invalidated + 1);
  EXPECT_EQ(Count("anc(a, X)"), 4u);
}

TEST_F(MaintenanceTest, UnrelatedPredicateDoesNotInvalidate) {
  Load(kAncSave);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  uint64_t inserts_before = db.modules()->last_stats().inserts;
  Load("other(1, 2).");  // not read by the module
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  // The saved instance survived: no derivations repeated.
  EXPECT_EQ(db.modules()->last_stats().inserts, inserts_before);
}

// ---------------------------------------------------------------------
// Tentpole: ApplyUpdate maintains covered saved instances in place.
// ---------------------------------------------------------------------

TEST_F(MaintenanceTest, CountingMaintainsNonRecursiveJoin) {
  Load(R"(
    module joins.
    export reach2(ff).
    @save_module.
    reach2(X, Z) :- hop(X, Y), hop(Y, Z).
    end_module.
  )");
  Load("hop(1, 2). hop(2, 3). hop(2, 4).");
  EXPECT_EQ(Ask("reach2(X, Y)"),
            (std::vector<std::string>{"X = 1, Y = 3", "X = 1, Y = 4"}));

  UpdateResult r = Update("hop(3, 5).");
  EXPECT_EQ(r.base_inserted, 1u);
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(r.invalidated, 0u);
  EXPECT_EQ(Ask("reach2(X, Y)"),
            (std::vector<std::string>{"X = 1, Y = 3", "X = 1, Y = 4",
                                      "X = 2, Y = 5"}));

  // Deleting hop(2, 3) kills 1->3 and 2->5 (the only derivations using
  // it), and the support count of nothing else changes.
  r = Update("", "hop(2, 3).");
  EXPECT_EQ(r.base_deleted, 1u);
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Ask("reach2(X, Y)"), (std::vector<std::string>{"X = 1, Y = 4"}));
}

TEST_F(MaintenanceTest, CountingHandlesMultipleDerivations) {
  Load(R"(
    module multi.
    export out(ff).
    @save_module.
    out(X, Z) :- left(X, Y), right(Y, Z).
    end_module.
  )");
  // out(1, 9) has two derivations (via 2 and via 3): deleting one leaves
  // the tuple; deleting both removes it.
  Load("left(1, 2). left(1, 3). right(2, 9). right(3, 9).");
  EXPECT_EQ(Count("out(X, Y)"), 1u);
  UpdateResult r = Update("", "left(1, 2).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Count("out(X, Y)"), 1u);  // still derivable via left(1, 3)
  r = Update("", "left(1, 3).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Count("out(X, Y)"), 0u);
}

TEST_F(MaintenanceTest, DRedMaintainsRecursiveClosure) {
  Load(kAncSave);
  Load("par(a, b). par(b, c). par(c, d).");
  EXPECT_EQ(Count("anc(a, X)"), 3u);

  // Insertion into a recursive module: new tuples propagate through the
  // resumed fixpoint.
  UpdateResult r = Update("par(d, e).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(r.invalidated, 0u);
  EXPECT_EQ(Count("anc(a, X)"), 4u);
  EXPECT_GE(r.derived_inserted, 1u);

  // Deletion cuts the chain; everything below the cut disappears.
  r = Update("", "par(b, c).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Ask("anc(a, X)"), (std::vector<std::string>{"X = b"}));
  EXPECT_GE(r.derived_deleted, 1u);
}

TEST_F(MaintenanceTest, DRedRederivesAlternatePaths) {
  Load(R"(
    module tcm.
    export tc(bf).
    @save_module.
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    end_module.
  )");
  // Diamond: a->b->d and a->c->d; deleting a->b must keep tc(a, d)
  // (rederivable via c) while dropping tc(a, b).
  Load("edge(a, b). edge(b, d). edge(a, c). edge(c, d).");
  EXPECT_EQ(Ask("tc(a, X)"),
            (std::vector<std::string>{"X = b", "X = c", "X = d"}));
  UpdateResult r = Update("", "edge(a, b).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Ask("tc(a, X)"), (std::vector<std::string>{"X = c", "X = d"}));
}

TEST_F(MaintenanceTest, MixedBatchNetsInsertAndDelete) {
  Load(kAncSave);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  // One batch: delete par(b, c), add par(b, d) and re-add par(b, c).
  // The delete+insert of par(b, c) nets out; only par(b, d) is new.
  UpdateResult r = Update("par(b, c).\npar(b, d).", "par(b, c).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Ask("anc(a, X)"),
            (std::vector<std::string>{"X = b", "X = c", "X = d"}));
}

TEST_F(MaintenanceTest, NewSeedBetweenUpdatesRebuildsCounts) {
  Load(kAncSave);
  Load("par(a, b). par(b, c). par(c, d).");
  EXPECT_EQ(Count("anc(a, X)"), 3u);
  UpdateResult r = Update("par(d, e).");
  EXPECT_EQ(r.maintained, 1u);
  // A different subgoal re-seeds the saved instance (dropping the
  // support counts); the next update must still be correct.
  EXPECT_EQ(Count("anc(c, X)"), 2u);
  r = Update("", "par(c, d).");
  EXPECT_EQ(r.maintained, 1u);
  EXPECT_EQ(Ask("anc(a, X)"), (std::vector<std::string>{"X = b", "X = c"}));
  EXPECT_TRUE(Ask("anc(c, X)").empty());
}

TEST_F(MaintenanceTest, RepeatedUpdatesStayConsistent) {
  Load(kAncSave);
  std::string facts;
  for (int i = 0; i < 10; ++i) {
    facts += "par(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
  }
  Load(facts);
  EXPECT_EQ(Count("anc(n0, X)"), 10u);
  // Grow the chain one edge at a time; every step must be maintained and
  // visible.
  for (int i = 10; i < 15; ++i) {
    UpdateResult r = Update("par(n" + std::to_string(i) + ", n" +
                            std::to_string(i + 1) + ").");
    EXPECT_EQ(r.maintained, 1u) << "step " << i;
    EXPECT_EQ(Count("anc(n0, X)"), static_cast<size_t>(i + 1));
  }
  // Shrink it back.
  for (int i = 14; i >= 10; --i) {
    UpdateResult r = Update("", "par(n" + std::to_string(i) + ", n" +
                                    std::to_string(i + 1) + ").");
    EXPECT_EQ(r.maintained, 1u) << "step " << i;
    EXPECT_EQ(Count("anc(n0, X)"), static_cast<size_t>(i));
  }
}

// ---------------------------------------------------------------------
// A batch is validated before anything changes: a rejected batch leaves
// base facts and saved answers as they were, whatever the write path.
// ---------------------------------------------------------------------

TEST_F(MaintenanceTest, FailedBatchChangesNothing) {
  Load(kAncSave);
  Load("par(a, b). par(b, c). par(c, d).");
  RegisterSquares();
  EXPECT_EQ(Count("anc(a, X)"), 3u);
  Session s(&db);
  auto r = s.ApplyUpdate("-par(b, c).\n+sq(3).\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(Stored("par", 2), 3u);
  EXPECT_EQ(Count("anc(a, X)"), 3u);
}

TEST_F(MaintenanceTest, FailedLoadFactsStoresNothing) {
  RegisterSquares();
  Session s(&db);
  auto r = s.LoadFacts("e(1, 2). e(2, 3). sq(4).");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Stored("e", 2), 0u);
}

TEST_F(MaintenanceTest, FailedConsultStoresNoFacts) {
  RegisterSquares();
  auto r = db.Consult("e(1, 2). e(2, 3). sq(4).");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Stored("e", 2), 0u);
}

// ---------------------------------------------------------------------
// Fallback: uncovered shapes invalidate (and answers stay correct).
// ---------------------------------------------------------------------

TEST_F(MaintenanceTest, NegationFallsBackToInvalidation) {
  Load(R"(
    module neg.
    export lonely(f).
    @save_module.
    lonely(X) :- node(X), not linked(X).
    end_module.
  )");
  Load("node(1). node(2). linked(1).");
  EXPECT_EQ(Ask("lonely(X)"), (std::vector<std::string>{"X = 2"}));
  UpdateResult r = Update("linked(2).");
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_TRUE(Ask("lonely(X)").empty());
}

TEST_F(MaintenanceTest, AggregationFallsBackToInvalidation) {
  Load(R"(
    module agg.
    export total(f).
    @save_module.
    total(sum(<X>)) :- item(X).
    end_module.
  )");
  Load("item(3). item(4).");
  EXPECT_EQ(Ask("total(X)"), (std::vector<std::string>{"X = 7"}));
  UpdateResult r = Update("item(5).");
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_EQ(Ask("total(X)"), (std::vector<std::string>{"X = 12"}));
}

TEST_F(MaintenanceTest, NonGroundUpdateFallsBackToInvalidation) {
  Load(kAncSave);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  // A non-ground insert can subsume future queries; counting keys on
  // interned ground tuples, so this batch invalidates instead.
  UpdateResult r = Update("par(c, W).");
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_EQ(Count("anc(a, X)"), 3u);
}

TEST_F(MaintenanceTest, NonComparisonBuiltinFallsBackToInvalidation) {
  // between/3 is a generator, not a comparison: the maintenance joins
  // cannot run it as bytecode, so the pass gives up before touching the
  // instance.
  constexpr char kSpan[] = R"(
    module spans.
    export span(ff).
    @save_module.
    span(X, Y) :- lim(X, H), between(X, H, Y).
    end_module.
  )";
  Load(kSpan);
  Load("lim(1, 2).");
  EXPECT_EQ(Ask("span(X, Y)"),
            (std::vector<std::string>{"X = 1, Y = 1", "X = 1, Y = 2"}));
  UpdateResult r = Update("lim(5, 6).");
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_EQ(Ask("span(X, Y)"),
            FromScratch(std::string(kSpan) + "lim(1, 2). lim(5, 6).",
                        "span(X, Y)"));
  EXPECT_EQ(Count("span(X, Y)"), 4u);
}

TEST_F(MaintenanceTest, NonGroundBaseFactFallsBackToInvalidation) {
  // tag(W, red) is stored non-ground. The instance's heads stay ground,
  // but a maintenance join that reads the fact falls off the VM, so the
  // pass gives up and the instance is invalidated.
  constexpr char kTagged[] = R"(
    module tagged.
    export out(f).
    @save_module.
    out(X) :- sel(X), tag(X, Y).
    end_module.
  )";
  Load(kTagged);
  Load("sel(1). sel(2). tag(W, red).");
  EXPECT_EQ(Ask("out(X)"), (std::vector<std::string>{"X = 1", "X = 2"}));
  UpdateResult r = Update("sel(3).");
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_EQ(Ask("out(X)"),
            FromScratch(std::string(kTagged) +
                            "sel(1). sel(2). sel(3). tag(W, red).",
                        "out(X)"));
  EXPECT_EQ(Count("out(X)"), 3u);
}

// Base deletes find their victims through the relation's indexes
// (Select), then filter by subsumption: the stored facts after each
// batch must not depend on which argument indexes exist.
TEST_F(MaintenanceTest, IndexedDeletesMatchScannedDeletes) {
  constexpr char kFacts[] =
      "e(1, 1). e(2, 1). e(2, 2). e(3, 2). e(4, 4). e(Y, 1). e(3, Z).";
  const std::vector<std::string> batches = {
      "e(2, 1).",  // ground: must not remove the stored e(Y, 1)
      "e(X, 2).",  // pattern on the second column
      "e(4, Y).",  // pattern on the first column
      "e(3, Z).",  // a stored non-ground fact, deleted by itself
      "e(Y, 1).",  // removes e(1, 1) and the stored e(Y, 1)
  };
  auto stored = [](Database* d) {
    std::vector<std::string> out;
    Relation* rel =
        d->FindBaseRelation({d->factory()->symbols().Intern("e"), 2});
    if (rel == nullptr) return out;
    auto it = rel->Scan();
    while (const Tuple* t = it->Next()) out.push_back(t->ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::vector<std::string>> runs;
  for (const char* index : {"", "@make_index e(X, Y) (X).",
                            "@make_index e(X, Y) (Y).",
                            "@make_index e(X, Y) (X, Y)."}) {
    Database d;
    ASSERT_TRUE(d.Consult(index).ok()) << index;
    ASSERT_TRUE(d.Consult(kFacts).ok());
    std::vector<std::string> trace;
    for (const std::string& batch : batches) {
      Session s(&d);
      auto r = s.ApplyUpdate("-" + batch);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      trace.push_back(batch + " deleted " + std::to_string(r->base_deleted));
      for (const std::string& t : stored(&d)) trace.push_back(t);
      if (batch == "e(2, 1).") {
        EXPECT_EQ(r->base_deleted, 1u) << index;
        EXPECT_NE(std::find(trace.begin(), trace.end(), "(Y,1)"),
                  trace.end())
            << index;
      }
    }
    EXPECT_EQ(stored(&d), std::vector<std::string>{}) << index;
    runs.push_back(std::move(trace));
  }
  for (size_t i = 1; i < runs.size(); ++i) EXPECT_EQ(runs[i], runs[0]);
}

TEST_F(MaintenanceTest, UpdateBeforeFirstQueryIsCheap) {
  Load(kAncSave);
  Load("par(a, b).");
  // No query yet: no saved instance exists, nothing to maintain.
  UpdateResult r = Update("par(b, c).");
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 0u);
  EXPECT_EQ(Count("anc(a, X)"), 2u);
}

// ---------------------------------------------------------------------
// Session text API, counters, report.
// ---------------------------------------------------------------------

TEST_F(MaintenanceTest, SessionTextApi) {
  Load(kAncSave);
  Load("par(a, b).");
  EXPECT_EQ(Count("anc(a, X)"), 1u);
  Session s(&db);
  VmMark before = MarkVm();
  auto r = s.ApplyUpdate("% grow then cut\n  +par(b, c).\n\n-par(a, b).\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectVmMaintenance(before, *r);
  EXPECT_EQ(r->base_inserted, 1u);
  EXPECT_EQ(r->base_deleted, 1u);
  EXPECT_TRUE(Ask("anc(a, X)").empty());
  EXPECT_EQ(Ask("anc(b, X)"), (std::vector<std::string>{"X = c"}));

  auto bad = s.ApplyUpdate("par(x, y).");
  EXPECT_FALSE(bad.ok());
  bad = s.ApplyUpdate("+par(x, y) :- q(x).");
  EXPECT_FALSE(bad.ok());
}

TEST_F(MaintenanceTest, CountersAndProfileReport) {
  Load(kAncSave);
  Load("par(a, b).");
  EXPECT_EQ(Count("anc(a, X)"), 1u);
  Update("par(b, c).");
  const obs::MaintenanceCounters& mc = db.maintenance_counters();
  EXPECT_GE(mc.updates.load(), 1u);
  EXPECT_GE(mc.maintained.load(), 1u);
  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("incremental updates"), std::string::npos);
  EXPECT_NE(report.find("maintained"), std::string::npos);
}

TEST_F(MaintenanceTest, EmptyBatchIsANoOp) {
  Load(kAncSave);
  Load("par(a, b).");
  EXPECT_EQ(Count("anc(a, X)"), 1u);
  UpdateResult r = Update("");
  EXPECT_EQ(r.base_inserted, 0u);
  EXPECT_EQ(r.base_deleted, 0u);
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(r.invalidated, 0u);
  // Duplicate insert and missing delete also net to nothing.
  r = Update("par(a, b).", "par(zz, zz).");
  EXPECT_EQ(r.base_inserted, 0u);
  EXPECT_EQ(r.base_deleted, 0u);
  EXPECT_EQ(r.maintained, 0u);
  EXPECT_EQ(Count("anc(a, X)"), 1u);
}

}  // namespace
}  // namespace coral
