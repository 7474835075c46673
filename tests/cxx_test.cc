// Tests of the CORAL/C++ interface (paper §6): embedded commands,
// relation/tuple/arg manipulation from C++, C_ScanDesc cursors, and
// predicates defined by C++ functions used inside declarative rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

#include <coral/coral.h>

namespace coral {
namespace {

TEST(CxxTest, EmbeddedCommandsAndQueries) {
  Coral c;
  auto out = c.Command(R"(
    edge(1, 2). edge(2, 3).
    module tc. export t(bf).
    t(X, Y) :- edge(X, Y).
    t(X, Y) :- edge(X, Z), t(Z, Y).
    end_module.
    ?- t(1, X).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("X = 3"), std::string::npos);
}

TEST(CxxTest, ArgAndTupleConstruction) {
  Coral c;
  const Arg* l = c.List({c.Int(1), c.Int(2)});
  EXPECT_EQ(l->ToString(), "[1,2]");
  const Arg* f = c.Functor("addr", {c.Atom("main"), c.Atom("madison")});
  EXPECT_EQ(f->ToString(), "addr(main,madison)");
  const Tuple* t = c.MakeTuple({c.Atom("john"), f});
  EXPECT_EQ(t->ToString(), "(john,addr(main,madison))");
  auto parsed = c.Term("addr(main, madison)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, f);  // hash-consing across construction routes
}

TEST(CxxTest, InsertDeleteAndScan) {
  Coral c;
  ASSERT_TRUE(c.Insert("emp", {c.Atom("alice"), c.Int(120)}).ok());
  ASSERT_TRUE(c.Insert("emp", {c.Atom("bob"), c.Int(100)}).ok());
  auto scan = c.OpenScan("emp(X, S)");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->Count(), 2u);
  // Selective scan.
  auto scan2 = c.OpenScan("emp(alice, S)");
  ASSERT_TRUE(scan2.ok());
  auto rows = scan2->ToVector();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->arg(1), c.Int(120));
  // Pattern delete: all of alice's rows (second column free).
  auto removed = c.Delete("emp", {c.Atom("alice"),
                                  c.factory()->CanonicalVar(0)});
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  auto scan3 = c.OpenScan("emp(X, S)");
  ASSERT_TRUE(scan3.ok());
  EXPECT_EQ(scan3->Count(), 1u);
}

TEST(CxxTest, ScanOverModuleExport) {
  Coral c;
  ASSERT_TRUE(c.Consult(R"(
    par(tom, bob). par(bob, ann). par(bob, pat).
    module anc. export anc(bf).
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )").ok());
  auto scan = c.OpenScan("anc(tom, D)");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->Count(), 3u);
}

TEST(CxxTest, ScanHidesNonGroundAnswers) {
  // Paper §6.1: variables cannot be returned as answers through the C++
  // interface.
  Coral c;
  ASSERT_TRUE(c.Consult("likes(X, icecream). likes(sam, pie).").ok());
  auto scan = c.OpenScan("likes(P, W)");
  ASSERT_TRUE(scan.ok());
  auto rows = scan->ToVector();
  ASSERT_EQ(rows.size(), 1u);  // the non-ground fact is hidden
  EXPECT_EQ(rows[0]->ToString(), "(sam,pie)");
}

TEST(CxxTest, RegisteredPredicateCalledFromRules) {
  // A predicate defined in C++ (paper §6.2): sqrtint(X, Y) with Y the
  // integer square root of X; requires X bound.
  Coral c;
  ASSERT_TRUE(c.RegisterPredicate(
                   "sqrtint", 2,
                   [](std::span<const TermRef> args, TermFactory* f,
                      std::vector<const Tuple*>* out) -> Status {
                     TermRef x = Deref(args[0].term, args[0].env);
                     if (x.term->kind() != ArgKind::kInt) {
                       return Status::FailedPrecondition(
                           "sqrtint needs a bound integer");
                     }
                     int64_t v = ArgCast<IntArg>(x.term)->value();
                     if (v < 0) return Status::OK();
                     auto r = static_cast<int64_t>(std::sqrt(double(v)));
                     const Arg* t[] = {x.term, f->MakeInt(r)};
                     out->push_back(f->MakeTuple(t));
                     return Status::OK();
                   })
                  .ok());
  ASSERT_TRUE(c.Consult(R"(
    num(16). num(25). num(10).
    module m. export root_of(bf).
    root_of(X, R) :- num(X), sqrtint(X, R).
    end_module.
  )").ok());
  auto out = c.Command("?- root_of(25, R).");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("R = 5"), std::string::npos);
  // Direct scan over the computed relation.
  auto scan = c.OpenScan("sqrtint(144, R)");
  ASSERT_TRUE(scan.ok());
  auto rows = scan->ToVector();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->arg(1), c.Int(12));
}

TEST(CxxTest, ComputedPredicateKeepsWrittenJoinOrder) {
  // The geo module of examples/cxx_extension.cpp, without
  // @no_reorder_joins. haversine needs its four coordinates bound; the
  // optimizer cannot see that, so a rule reading it keeps the written
  // order instead of probing haversine before city binds LatB/LonB.
  Coral c;
  ASSERT_TRUE(c.RegisterPredicate(
                   "haversine", 5,
                   [](std::span<const TermRef> args, TermFactory* f,
                      std::vector<const Tuple*>* out) -> Status {
                     double v[4];
                     for (int i = 0; i < 4; ++i) {
                       TermRef r = Deref(args[i].term, args[i].env);
                       if (r.term->kind() != ArgKind::kDouble) {
                         return Status::FailedPrecondition(
                             "haversine needs bound coordinates");
                       }
                       v[i] = ArgCast<DoubleArg>(r.term)->value();
                     }
                     auto rad = [](double d) { return d * M_PI / 180.0; };
                     double dlat = rad(v[2] - v[0]), dlon = rad(v[3] - v[1]);
                     double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                                std::cos(rad(v[0])) * std::cos(rad(v[2])) *
                                    std::sin(dlon / 2) * std::sin(dlon / 2);
                     double km = 2 * 6371.0 * std::asin(std::sqrt(a));
                     const Arg* t[5];
                     for (int i = 0; i < 4; ++i) {
                       t[i] = Deref(args[i].term, args[i].env).term;
                     }
                     t[4] = f->MakeDouble(std::round(km));
                     out->push_back(f->MakeTuple(t));
                     return Status::OK();
                   })
                  .ok());
  auto st = c.Consult(R"(
    city(madison, 43.07, -89.40).
    city(chicago, 41.88, -87.63).
    city(seattle, 47.61, -122.33).
    city(boston, 42.36, -71.06).
    module geo.
    export distance(bbf), near_madison(ff).
    distance(A, B, Km) :- city(A, LatA, LonA), city(B, LatB, LonB),
                          haversine(LatA, LonA, LatB, LonB, Km).
    near_madison(B, Km) :- distance(madison, B, Km), Km < 1000.0,
                           B \= madison.
    end_module.
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto out = c.Command("?- distance(madison, B, Km).");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const char* city : {"madison", "chicago", "seattle", "boston"}) {
    EXPECT_NE(out->find(std::string("B = ") + city), std::string::npos)
        << *out;
  }
  auto near = c.Command("?- near_madison(B, Km).");
  ASSERT_TRUE(near.ok()) << near.status().ToString();
  EXPECT_NE(near->find("B = chicago"), std::string::npos) << *near;
  EXPECT_EQ(near->find("B = seattle"), std::string::npos) << *near;
  auto plan = c.db()->PlanListing("geo", "distance", "bbf");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("as written (C++ predicate, binding modes unknown): "
                       "distance@bbf("),
            std::string::npos)
      << *plan;
}

TEST(CxxTest, RegisteredPredicateRejectsDuplicateAndUpdates) {
  Coral c;
  auto fn = [](std::span<const TermRef>, TermFactory*,
               std::vector<const Tuple*>*) { return Status::OK(); };
  ASSERT_TRUE(c.RegisterPredicate("p", 1, fn).ok());
  EXPECT_FALSE(c.RegisterPredicate("p", 1, fn).ok());
  // Inserting into a computed relation is refused.
  auto ins = c.Command("p(1).");
  EXPECT_FALSE(ins.ok());
}

TEST(CxxTest, RegisteredPredicateRunsInterpretedWithItsInputsBound) {
  // sqrtint is a builtin with unknown modes: the VM compiler skips the
  // rule for that stated reason instead of compiling sqrtint as a scan
  // that would call it with X free and abort at run time.
  Coral c;
  int free_calls = 0;
  ASSERT_TRUE(c.RegisterPredicate(
                   "sqrtint", 2,
                   [&free_calls](std::span<const TermRef> args,
                                 TermFactory* f,
                                 std::vector<const Tuple*>* out) -> Status {
                     TermRef x = Deref(args[0].term, args[0].env);
                     if (x.term->kind() != ArgKind::kInt) {
                       ++free_calls;
                       return Status::FailedPrecondition(
                           "sqrtint needs a bound integer");
                     }
                     int64_t v = ArgCast<IntArg>(x.term)->value();
                     auto r = static_cast<int64_t>(std::sqrt(double(v)));
                     const Arg* t[] = {x.term, f->MakeInt(r)};
                     out->push_back(f->MakeTuple(t));
                     return Status::OK();
                   })
                  .ok());
  ASSERT_TRUE(c.Consult(R"(
    num(1). num(4). num(9). num(16). num(25).
    module m. export roots(ff).
    roots(X, R) :- num(X), sqrtint(X, R).
    end_module.
  )").ok());
  auto plan = c.db()->PlanListing("m", "roots", "ff");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("interpreted: builtin sqrtint/2"), std::string::npos)
      << *plan;
  auto out = c.EvalQuery("roots(X, R)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<std::string> rows;
  for (const AnswerRow& row : out->rows) rows.push_back(row.ToString());
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<std::string>{
                      "X = 1, R = 1", "X = 16, R = 4", "X = 25, R = 5",
                      "X = 4, R = 2", "X = 9, R = 3"}));
  EXPECT_EQ(free_calls, 0);
  const obs::VmCounters* vm = c.db()->vm_counters();
  EXPECT_EQ(vm->runtime_fallbacks.load(), 0u);
  EXPECT_EQ(vm->probe_scan_fallbacks.load(), 0u);
  // Its negation succeeds where it has no solution, as for a relation.
  auto neg = c.EvalQuery("num(X), not sqrtint(X, 2)");
  ASSERT_TRUE(neg.ok()) << neg.status().ToString();
  EXPECT_EQ(neg->rows.size(), 4u);
}

TEST(CxxTest, BuiltinsAreOnePredicateRegistry) {
  // append/3 is computed by code: it cannot be redefined from C++, holds
  // no facts, and scans like the query literal.
  Coral c;
  auto fn = [](std::span<const TermRef>, TermFactory*,
               std::vector<const Tuple*>*) { return Status::OK(); };
  Status st = c.RegisterPredicate("append", 3, fn);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st.ToString();
  auto scan = c.OpenScan("append(X, Y, [1, 2])");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->Count(), 3u);
  auto ins = c.Insert("append", {c.Int(1), c.Int(2), c.Int(3)});
  EXPECT_EQ(ins.status().code(), StatusCode::kUnsupported);
  // No base relation stands in for a predicate computed by code, whether
  // standard or registered from C++.
  EXPECT_EQ(c.GetRelation("append", 3), nullptr);
  ASSERT_TRUE(c.RegisterPredicate("sq", 1, fn).ok());
  EXPECT_EQ(c.GetRelation("sq", 1), nullptr);
  EXPECT_EQ(c.db()->FindBaseRelation(
                PredRef{c.factory()->symbols().Intern("sq"), 1}),
            nullptr);
  EXPECT_NE(c.GetRelation("sq", 2), nullptr);
}

TEST(CxxTest, ModuleExportsAreOneDefiner) {
  // q/2 is exported by mq: C++ can neither define it again nor store
  // tuples for it, and its answers stay the module's.
  Coral c;
  ASSERT_TRUE(c.Consult(R"(
    r(1, 3).
    module mq. export q(bf).
    q(X, Y) :- r(X, Y).
    end_module.
  )").ok());
  auto fn = [](std::span<const TermRef>, TermFactory*,
               std::vector<const Tuple*>*) { return Status::OK(); };
  Status st = c.RegisterPredicate("q", 2, fn);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st.ToString();
  EXPECT_EQ(c.GetRelation("q", 2), nullptr);
  PredRef q{c.factory()->symbols().Intern("q"), 2};
  EXPECT_EQ(c.db()->FindBaseRelation(q), nullptr);
  HashRelation external("q", 2);
  EXPECT_EQ(c.db()->RegisterExternalRelation(q, &external).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(c.Insert("q", {c.Int(1), c.Int(9)}).status().code(),
            StatusCode::kUnsupported);
  auto out = c.EvalQuery("q(1, Y)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->ToString(), "Y = 3\n");
  // A builtin name cannot be taken over by a relation either.
  HashRelation member("member", 2);
  EXPECT_EQ(c.db()
                ->RegisterExternalRelation(
                    {c.factory()->symbols().Intern("member"), 2}, &member)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(CxxTest, RelationAbstractionFromCxx) {
  // Manipulate a declaratively computed relation imperatively without
  // breaking the relation abstraction (paper §6 mode 1).
  Coral c;
  ASSERT_TRUE(c.Consult(R"(
    e(1,2). e(2,3). e(3,4).
    module tc. export t(ff).
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    end_module.
  )").ok());
  auto scan = c.OpenScan("t(X, Y)");
  ASSERT_TRUE(scan.ok());
  // Copy answers into a new base relation through the commit path; the
  // Relation handle reads it back.
  while (const Tuple* t = scan->Next()) {
    ASSERT_TRUE(c.Insert("closure", {t->arg(0), t->arg(1)}).ok());
  }
  const Relation* closure = c.GetRelation("closure", 2);
  ASSERT_NE(closure, nullptr);
  EXPECT_EQ(closure->size(), 6u);
  // The copied relation is queryable like any base relation.
  auto out = c.Command("?- closure(1, X).");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("X = 4"), std::string::npos);
}

TEST(CxxTest, GetRelationIsReadOnlyAndWritesKeepSavedViewsFresh) {
  // A write through a live Relation* would skip validation, the commit
  // lock and maintenance, leaving a saved view stale for good. The
  // handle is read only; Coral::Insert commits and maintains.
  Coral c;
  ASSERT_TRUE(c.Consult(R"(
    module tc. export t(bf). @save_module.
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    end_module.
    e(1, 2). e(2, 3).
  )").ok());
  EXPECT_TRUE((std::is_const_v<
               std::remove_pointer_t<decltype(c.GetRelation("e", 2))>>));
  auto count = [&c] {
    auto res = c.EvalQuery("t(1, Y)");
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? res->rows.size() : 0;
  };
  EXPECT_EQ(count(), 2u);
  ASSERT_TRUE(c.Insert("e", {c.Int(3), c.Int(4)}).ok());
  EXPECT_EQ(count(), 3u);
  ASSERT_TRUE(c.Insert("e", {c.Int(4), c.Int(5)}).ok());
  EXPECT_EQ(count(), 4u);
  const Relation* e = c.GetRelation("e", 2);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->size(), 4u);
}

}  // namespace
}  // namespace coral
