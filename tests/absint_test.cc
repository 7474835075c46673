// Tests for the abstract-interpretation framework (src/analysis/absint,
// src/analysis/domains): hand-computed groundness/type/cardinality
// fixpoints for the classic programs (transitive closure under a bf
// seed, same-generation, functor-building list recursion), the CRL2xx
// and CRL13x diagnostics with golden messages, diagnostic determinism
// (Normalize + JSON rendering), and the optimizer wiring — plan
// listings, the Database::set_auto_optimize toggle, @no_reorder_joins,
// and on/off answer equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/absint.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/domains.h"
#include "src/core/database.h"
#include "src/lang/parser.h"
#include "src/rewrite/depgraph.h"

namespace coral {
namespace {

using absint::AddCard;
using absint::ArgFacts;
using absint::Card;
using absint::Ground;
using absint::JoinCard;
using absint::JoinGround;
using absint::MeetGround;
using absint::MulCard;
using absint::PredFacts;
using absint::TypeSetToString;

// ---------------------------------------------------------------------
// Domain algebra
// ---------------------------------------------------------------------

TEST(DomainsTest, GroundLattice) {
  EXPECT_EQ(JoinGround(Ground::kBottom, Ground::kGround), Ground::kGround);
  EXPECT_EQ(JoinGround(Ground::kGround, Ground::kGround), Ground::kGround);
  EXPECT_EQ(JoinGround(Ground::kGround, Ground::kNonGround), Ground::kTop);
  EXPECT_EQ(JoinGround(Ground::kGround, Ground::kTop), Ground::kTop);

  EXPECT_EQ(MeetGround(Ground::kTop, Ground::kGround), Ground::kGround);
  EXPECT_EQ(MeetGround(Ground::kGround, Ground::kNonGround),
            Ground::kBottom);
  EXPECT_EQ(MeetGround(Ground::kNonGround, Ground::kNonGround),
            Ground::kNonGround);

  EXPECT_EQ(absint::GroundChar(Ground::kGround), 'g');
  EXPECT_EQ(absint::GroundChar(Ground::kNonGround), 'n');
  EXPECT_EQ(absint::GroundChar(Ground::kTop), '?');
  EXPECT_EQ(absint::GroundChar(Ground::kBottom), '.');
}

TEST(DomainsTest, TypeSetRendering) {
  EXPECT_EQ(TypeSetToString(absint::kTypeBottom), "none");
  EXPECT_EQ(TypeSetToString(absint::kTypeTop), "top");
  EXPECT_EQ(TypeSetToString(absint::kTInt | absint::kTAtom), "int|atom");
  EXPECT_EQ(TypeSetToString(absint::kTNumeric), "int|double|bigint");
  EXPECT_EQ(TypeSetToString(absint::kTList), "list");
}

TEST(DomainsTest, CardAlgebra) {
  // Join is max over the chain empty < one < few < many < unbounded.
  EXPECT_EQ(JoinCard(Card::kOne, Card::kMany), Card::kMany);
  EXPECT_EQ(JoinCard(Card::kEmpty, Card::kFew), Card::kFew);

  // Multiplication: empty absorbs, one is the identity, few*few stays
  // small, many and unbounded dominate.
  EXPECT_EQ(MulCard(Card::kEmpty, Card::kUnbounded), Card::kEmpty);
  EXPECT_EQ(MulCard(Card::kOne, Card::kFew), Card::kFew);
  EXPECT_EQ(MulCard(Card::kFew, Card::kFew), Card::kFew);
  EXPECT_EQ(MulCard(Card::kFew, Card::kMany), Card::kMany);
  EXPECT_EQ(MulCard(Card::kUnbounded, Card::kOne), Card::kUnbounded);

  // Union of rule contributions: two singletons make a few.
  EXPECT_EQ(AddCard(Card::kOne, Card::kOne), Card::kFew);
  EXPECT_EQ(AddCard(Card::kEmpty, Card::kOne), Card::kOne);
  EXPECT_EQ(AddCard(Card::kFew, Card::kOne), Card::kFew);
  EXPECT_EQ(AddCard(Card::kMany, Card::kFew), Card::kMany);
}

TEST(DomainsTest, ModeString) {
  PredFacts f;
  f.args = {ArgFacts{Ground::kGround, absint::kTypeTop},
            ArgFacts{Ground::kNonGround, absint::kTypeTop},
            ArgFacts{Ground::kTop, absint::kTypeTop},
            ArgFacts{Ground::kBottom, absint::kTypeBottom}};
  EXPECT_EQ(f.ModeString(), "gn?.");
}

// ---------------------------------------------------------------------
// AnalyzeRules: hand-computed fixpoints
// ---------------------------------------------------------------------

class AbsIntTest : public ::testing::Test {
 protected:
  /// Parses one module and runs the abstract interpretation over its
  /// rules with the given options (is_builtin is filled in).
  absint::AnalysisResult Analyze(const std::string& text,
                                 absint::AbsIntOptions ai = {}) {
    Parser parser(text, db_.factory());
    auto prog = parser.ParseProgram();
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    if (!prog.ok() || prog->modules.empty()) return absint::AnalysisResult();
    const ModuleDecl& mod = prog->modules[0];
    DepGraph graph = DepGraph::Build(mod.rules);
    ai.is_builtin = db_.builtins()->IsBuiltin();
    return absint::AnalyzeRules(mod.rules, graph, ai);
  }

  PredRef P(const char* name, uint32_t arity) {
    return PredRef{db_.factory()->symbols().Intern(name), arity};
  }

  static std::vector<bool> Seed(const std::string& ad) {
    std::vector<bool> b;
    for (char c : ad) b.push_back(c == 'b');
    return b;
  }

  Database db_;
};

TEST_F(AbsIntTest, TransitiveClosureUnderBfSeed) {
  // With tc(bf): the first argument carries ground query constants down
  // the recursion (the stored tc facts have a ground first column, so Z
  // in tc(Z, Y) is ground too); the second is unconstrained (base e).
  absint::AbsIntOptions ai;
  ai.seeds.emplace(P("tc", 2), Seed("bf"));
  absint::AnalysisResult res = Analyze(
      "module m.\n"
      "export tc(bf).\n"
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "end_module.\n",
      std::move(ai));

  EXPECT_EQ(res.Summary(),
            "tc/2: mode=g?, types=(top, top), card=many, recursive\n");
  const PredFacts* tc = res.Find(P("tc", 2));
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->args[0].ground, Ground::kGround);
  EXPECT_EQ(tc->args[1].ground, Ground::kTop);
  EXPECT_TRUE(tc->recursive);
  EXPECT_FALSE(tc->functor_growth);

  // The must-bound call-side fixpoint keeps the bf pattern stable.
  EXPECT_TRUE(res.IsBoundPos(P("tc", 2), 0));
  EXPECT_FALSE(res.IsBoundPos(P("tc", 2), 1));

  // Base predicates resolve through the base_card callback (kMany when
  // absent); derived predicates ignore it.
  EXPECT_EQ(res.CardOf(P("e", 2)), Card::kMany);
}

TEST_F(AbsIntTest, BaseCardCallbackFeedsCardOf) {
  absint::AbsIntOptions ai;
  ai.seeds.emplace(P("tc", 2), Seed("bf"));
  ai.base_card = [](const PredRef&) { return Card::kFew; };
  absint::AnalysisResult res = Analyze(
      "module m.\n"
      "export tc(bf).\n"
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "end_module.\n",
      std::move(ai));
  EXPECT_EQ(res.CardOf(P("e", 2)), Card::kFew);
  // Recursion still promotes the derived predicate to many.
  EXPECT_EQ(res.CardOf(P("tc", 2)), Card::kMany);
}

TEST_F(AbsIntTest, SameGenerationUnderBfSeed) {
  absint::AbsIntOptions ai;
  ai.seeds.emplace(P("sg", 2), Seed("bf"));
  absint::AnalysisResult res = Analyze(
      "module m.\n"
      "export sg(bf).\n"
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
      "end_module.\n",
      std::move(ai));
  EXPECT_EQ(res.Summary(),
            "sg/2: mode=g?, types=(top, top), card=many, recursive\n");
  EXPECT_TRUE(res.IsBoundPos(P("sg", 2), 0));
  EXPECT_FALSE(res.IsBoundPos(P("sg", 2), 1));
}

TEST_F(AbsIntTest, TypedFactsPropagateThroughJoin) {
  // a's integers widen to the numeric class when they constrain X; the
  // head facts of a itself keep the exact constructor kind.
  absint::AnalysisResult res = Analyze(
      "module m.\n"
      "export p(f).\n"
      "a(1).\n"
      "a(2).\n"
      "b(x).\n"
      "p(X) :- a(X).\n"
      "p(Y) :- b(Y).\n"
      "end_module.\n");
  EXPECT_EQ(res.Summary(),
            "a/1: mode=g, types=(int), card=few\n"
            "b/1: mode=g, types=(atom), card=one\n"
            "p/1: mode=g, types=(int|double|bigint|atom), card=few\n");
}

TEST_F(AbsIntTest, AppendBoundBoundFreeStaysGround) {
  // app(bbf): the seed grounds L in the base fact, so the stored third
  // column is ground, so R in the recursive call is ground — the whole
  // mode is ggg even though the head builds [H|R].
  absint::AbsIntOptions ai;
  ai.seeds.emplace(P("app", 3), Seed("bbf"));
  absint::AnalysisResult res = Analyze(
      "module lists.\n"
      "export app(bbf).\n"
      "app([], L, L).\n"
      "app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "end_module.\n",
      std::move(ai));
  EXPECT_EQ(res.Summary(),
            "app/3: mode=ggg, types=(list, top, top), card=many, "
            "recursive\n");
  // The bound first argument descends structurally (T inside [H|T]), so
  // no functor growth despite the [H|R] construction in the head.
  ASSERT_EQ(res.rules.size(), 2u);
  EXPECT_FALSE(res.rules[1].functor_growth);
}

TEST_F(AbsIntTest, AppendFreeSeedGrowsUnbounded) {
  // Under an all-free seed nothing descends: the analysis pins the
  // nonground fact columns ('n' for the copied L), tops out the mixed
  // ones, and promotes the cardinality to unbounded.
  absint::AbsIntOptions ai;
  ai.seeds.emplace(P("app", 3), Seed("fff"));
  absint::AnalysisResult res = Analyze(
      "module lists.\n"
      "export app(fff).\n"
      "app([], L, L).\n"
      "app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "end_module.\n",
      std::move(ai));
  EXPECT_EQ(res.Summary(),
            "app/3: mode=??n, types=(list, top, top), card=unbounded, "
            "recursive, functor-growth\n");
  ASSERT_EQ(res.rules.size(), 2u);
  EXPECT_TRUE(res.rules[1].functor_growth);
  EXPECT_EQ(res.rules[1].growth_pos, 0);
}

TEST_F(AbsIntTest, AssumedFactsSeedGroundColumns) {
  // Engine-fed predicates (magic seeds, done markers) start non-empty
  // and ground; rules firing off them inherit the groundness.
  absint::AbsIntOptions ai;
  ai.assumed_facts.insert(P("m_q", 1));
  absint::AnalysisResult res = Analyze(
      "module m.\n"
      "export q(b).\n"
      "q(X) :- m_q(X).\n"
      "m_q(X) :- m_q(X).\n"  // keep m_q derived so facts exist for it
      "end_module.\n",
      std::move(ai));
  const PredFacts* q = res.Find(P("q", 1));
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->args[0].ground, Ground::kGround);
  EXPECT_NE(q->card, Card::kEmpty);
}

// ---------------------------------------------------------------------
// Analyzer diagnostics: CRL2xx and CRL13x golden messages
// ---------------------------------------------------------------------

class AbsIntDiagTest : public ::testing::Test {
 protected:
  DiagnosticList Analyze(const std::string& text, bool strict = false) {
    Parser parser(text, db_.factory());
    auto prog = parser.ParseProgram();
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    if (!prog.ok()) return DiagnosticList();
    AnalyzerOptions opts;
    opts.strict = strict;
    opts.is_builtin = db_.builtins()->IsBuiltin();
    opts.modes_of = db_.builtins()->ModesOf();
    return AnalyzeProgram(*prog, opts);
  }

  static const Diagnostic* Find(const DiagnosticList& dl,
                                const char* code) {
    for (const Diagnostic& d : dl.items()) {
      if (std::string(d.code) == code) return &d;
    }
    return nullptr;
  }

  Database db_;
};

TEST_F(AbsIntDiagTest, TypeConflictProvesRuleEmpty) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export q(f).\n"
      "a(1).\n"
      "a(2).\n"
      "b(x).\n"
      "q(X) :- a(X), b(X).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kTypeConflictEmpty);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->pred, "q/1");
  EXPECT_EQ(d->loc.line, 6);
  EXPECT_EQ(d->message,
            "type analysis proves this rule can never derive a fact: "
            "variable 'X' admits no type (int|double|bigint vs atom)");
}

TEST_F(AbsIntDiagTest, CrossProductProbeReported) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(ff).\n"
      "p(X, Y) :- a(X), b(Y).\n"
      "a(1).\n"
      "b(2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kUnindexableProbe);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->pred, "b/1");
  EXPECT_EQ(d->loc.line, 3);
  EXPECT_EQ(d->message,
            "join probe on 'b/1' has no bound argument under any literal "
            "order (cross product); no index can support it");
}

TEST_F(AbsIntDiagTest, CrossProductNotReportedWhenJoinConnected) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(ff).\n"
      "p(X, Y) :- a(X), c(X, Y).\n"
      "a(1).\n"
      "c(1, 2).\n"
      "end_module.\n");
  EXPECT_EQ(Find(dl, diag::kUnindexableProbe), nullptr) << dl.ToString();
}

TEST_F(AbsIntDiagTest, FunctorGrowthUnderFreeSeed) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export nat(f).\n"
      "nat(z).\n"
      "nat(s(X)) :- nat(X).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kInfiniteDomain);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->pred, "nat/1");
  EXPECT_EQ(d->message,
            "recursion grows argument 1 of 'nat/1' through functor 's' "
            "with no bound argument descending structurally; the "
            "inferred domain is infinite and evaluation may not "
            "terminate");
}

TEST_F(AbsIntDiagTest, FunctorGrowthSuppressedByBoundDescent) {
  // nat(b): the bound argument descends structurally (X inside s(X)), so
  // evaluation terminates for any ground query — no CRL203.
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export nat(b).\n"
      "nat(z).\n"
      "nat(s(X)) :- nat(X).\n"
      "end_module.\n");
  EXPECT_EQ(Find(dl, diag::kInfiniteDomain), nullptr) << dl.ToString();
}

TEST_F(AbsIntDiagTest, AppendAdornmentsDecideFunctorGrowth) {
  const char* body =
      "app([], L, L).\n"
      "app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "end_module.\n";
  DiagnosticList bound = Analyze(
      std::string("module lists.\nexport app(bbf).\n") + body);
  EXPECT_EQ(Find(bound, diag::kInfiniteDomain), nullptr)
      << bound.ToString();
  DiagnosticList free_seed = Analyze(
      std::string("module lists.\nexport app(fff).\n") + body);
  EXPECT_NE(Find(free_seed, diag::kInfiniteDomain), nullptr)
      << free_seed.ToString();
}

TEST_F(AbsIntDiagTest, MakeIndexArityMismatch) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(bf).\n"
      "@make_index q(A, B, C) (A).\n"
      "p(X, Y) :- q(X, Y).\n"
      "q(1, 2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kIndexArity);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->pred, "q/3");
  EXPECT_EQ(d->message,
            "@make_index pattern for 'q' has arity 3, but the module "
            "uses q/2; the index can never match");
}

TEST_F(AbsIntDiagTest, MakeIndexDuplicateReported) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(bf).\n"
      "@make_index q(A, B) (A).\n"
      "@make_index q(C, D) (C).\n"
      "p(X, Y) :- q(X, Y).\n"
      "q(1, 2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kDuplicateIndex);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->pred, "q/2");
  EXPECT_NE(d->message.find("duplicate @make_index on 'q/2': identical "
                            "key columns were already declared"),
            std::string::npos)
      << d->message;
  EXPECT_EQ(d->loc.line, 4);
}

TEST_F(AbsIntDiagTest, MakeIndexAutoCoveredNote) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(bf).\n"
      "@make_index q(A, B) (A).\n"
      "p(X, Y) :- q(X, Y).\n"
      "q(1, 2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kIndexAutoCovered);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kNote);
  EXPECT_EQ(d->pred, "q/2");
  EXPECT_EQ(d->message,
            "automatic index selection already creates an index on "
            "argument(s) 1 of 'q/2'; this @make_index is redundant "
            "unless auto-optimization is disabled");
}

TEST_F(AbsIntDiagTest, MakeIndexOnUnprobedColumnsNotAutoCovered) {
  // The rule probes q with the first column bound; an index on the
  // second is not what the optimizer plans, so no redundancy note.
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(bf).\n"
      "@make_index q(A, B) (B).\n"
      "p(X, Y) :- q(X, Y).\n"
      "q(1, 2).\n"
      "end_module.\n");
  EXPECT_EQ(Find(dl, diag::kIndexAutoCovered), nullptr) << dl.ToString();
}

TEST_F(AbsIntDiagTest, ReorderAnnotationConflictWarns) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "@reorder_joins.\n"
      "@no_reorder_joins.\n"
      "export p(b).\n"
      "p(X) :- a(X), b(X), c(X).\n"
      "a(1). b(1). c(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kAnnotationConflict);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_NE(d->message.find("@reorder_joins conflicts with "
                            "@no_reorder_joins"),
            std::string::npos)
      << d->message;
}

// ---------------------------------------------------------------------
// Diagnostic determinism and JSON rendering
// ---------------------------------------------------------------------

TEST(DiagnosticsTest, NormalizeSortsAndDedupes) {
  auto make = [](int line, const char* code, const char* pred,
                 const char* msg) {
    Diagnostic d;
    d.severity = DiagSeverity::kWarning;
    d.code = code;
    d.pred = pred;
    d.message = msg;
    d.loc.line = line;
    d.loc.col = 1;
    return d;
  };
  DiagnosticList dl;
  dl.Add(make(9, diag::kSingletonVar, "p/1", "later"));
  dl.Add(make(2, diag::kUnindexableProbe, "b/1", "probe"));
  dl.Add(make(2, diag::kTypeConflictEmpty, "p/1", "dead"));
  dl.Add(make(2, diag::kTypeConflictEmpty, "p/1", "dead (dup)"));
  dl.Normalize();

  ASSERT_EQ(dl.size(), 3u);
  // (line, col, code, pred) orders; the (code, line, col, pred)
  // duplicate collapsed to the first occurrence.
  EXPECT_EQ(std::string(dl.items()[0].code), diag::kTypeConflictEmpty);
  EXPECT_EQ(dl.items()[0].message, "dead");
  EXPECT_EQ(std::string(dl.items()[1].code), diag::kUnindexableProbe);
  EXPECT_EQ(std::string(dl.items()[2].code), diag::kSingletonVar);
}

TEST(DiagnosticsTest, NormalizeIsIdempotentAndOrderIndependent) {
  auto make = [](int line, int col, const char* code) {
    Diagnostic d;
    d.severity = DiagSeverity::kWarning;
    d.code = code;
    d.message = code;
    d.loc.line = line;
    d.loc.col = col;
    return d;
  };
  DiagnosticList a;
  a.Add(make(1, 2, diag::kSingletonVar));
  a.Add(make(1, 1, diag::kDeadPredicate));
  DiagnosticList b;
  b.Add(make(1, 1, diag::kDeadPredicate));
  b.Add(make(1, 2, diag::kSingletonVar));
  a.Normalize();
  b.Normalize();
  EXPECT_EQ(a.ToJsonLines("f.crl"), b.ToJsonLines("f.crl"));
  std::string once = a.ToJsonLines("f.crl");
  a.Normalize();
  EXPECT_EQ(a.ToJsonLines("f.crl"), once);
}

TEST(DiagnosticsTest, ToJsonGolden) {
  Diagnostic d;
  d.severity = DiagSeverity::kWarning;
  d.code = diag::kTypeConflictEmpty;
  d.message = "msg \"quoted\"";
  d.module_name = "m";
  d.pred = "p/1";
  d.loc.line = 3;
  d.loc.col = 7;
  EXPECT_EQ(d.ToJson("a.crl"),
            "{\"code\":\"CRL201\",\"severity\":\"warning\","
            "\"file\":\"a.crl\",\"line\":3,\"col\":7,\"module\":\"m\","
            "\"pred\":\"p/1\",\"message\":\"msg \\\"quoted\\\"\"}");

  DiagnosticList dl;
  dl.Add(d);
  EXPECT_EQ(dl.ToJsonLines("a.crl"), d.ToJson("a.crl") + "\n");
}

// ---------------------------------------------------------------------
// Optimizer wiring: plan listings, toggles, answer equality
// ---------------------------------------------------------------------

constexpr char kPathModule[] =
    "module paths.\n"
    "export path(bf).\n"
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "end_module.\n";

class PlanTest : public ::testing::Test {
 protected:
  void Load(Database* db, const std::string& src) {
    auto st = db->Consult(src);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  std::vector<std::string> Ask(Database* db, const std::string& query) {
    auto result = db->EvalQuery(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> rows;
    if (result.ok()) {
      for (const AnswerRow& r : result->rows) rows.push_back(r.ToString());
      std::sort(rows.begin(), rows.end());
    }
    return rows;
  }
};

TEST_F(PlanTest, PlanListingShowsModesOrderAndIndexes) {
  Database db;
  Load(&db, "edge(a, b). edge(b, c). edge(c, d).");
  Load(&db, kPathModule);
  auto plan = db.PlanListing("paths", "path", "bf");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("inferred modes:"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("join order: bound-args-first"), std::string::npos)
      << *plan;
  // edge is probed with its first column bound by the magic guard.
  EXPECT_NE(plan->find("edge/2: args (1)"), std::string::npos) << *plan;
}

TEST_F(PlanTest, PlanListingExplainsMagicFallback) {
  Database db;
  Load(&db, "edge(a, b, 1). edge(b, c, 2). e(a, b). b(a).");
  // Nothing tangled: every predicate is adorned.
  Load(&db, kPathModule);
  auto plan = db.PlanListing("paths", "path", "bf");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("magic:\n  unadorned: (none)\n"), std::string::npos)
      << *plan;

  // Fig. 3: p is restricted to the bound source, nothing left unadorned.
  Load(&db,
       "module s_p.\n"
       "export s_p(bfff).\n"
       "@aggregate_selection p(X, Y, P, C) (X, Y) min(C).\n"
       "@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).\n"
       "s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).\n"
       "s_p_length(X, Y, min(<C>)) :- p(X, Y, _, C).\n"
       "p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),\n"
       "                   append([edge(Z, Y)], P, P1), C1 = C + EC.\n"
       "p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).\n"
       "end_module.\n");
  plan = db.PlanListing("s_p", "s_p", "bfff");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("magic:\n  restricted by grouping: p/4\n"
                       "  unadorned: (none)\n"),
            std::string::npos)
      << *plan;
  EXPECT_EQ(Ask(&db, "s_p(a, c, P, C)"),
            std::vector<std::string>{"P = [edge(b,c),edge(a,b)], C = 3"});

  // A negated literal keeps full protection.
  Load(&db,
       "module neg.\n"
       "export t(b).\n"
       "t(X) :- p(X), not s(X).\n"
       "p(X) :- e(X, Y), t(Y).\n"
       "p(X) :- b(X).\n"
       "s(X) :- b(X).\n"
       "end_module.\n");
  plan = db.PlanListing("neg", "t", "b");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("magic:\n  unadorned: s/1 (negated literal)\n"),
            std::string::npos)
      << *plan;

  // A selection grouping that misses the bound column.
  Load(&db,
       "module sel.\n"
       "export s(bff).\n"
       "@aggregate_selection q(X, Y, C) (Y) min(C).\n"
       "s(X, Y, C) :- sl(X, Y, C), q(X, Y, C).\n"
       "sl(X, Y, min(<C>)) :- q(X, Y, C).\n"
       "q(X, Y, C) :- edge(X, Y, C).\n"
       "q(X, Y, C) :- q(X, Z, C1), edge(Z, Y, C2), C = C1 + C2.\n"
       "end_module.\n");
  plan = db.PlanListing("sel", "s", "bff");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("unadorned: q/3 (aggregate selection on q/3 does "
                       "not group by bound column 1)"),
            std::string::npos)
      << *plan;

  // r's magic still comes through cnt when o (not an aggregate body)
  // reads r, so restriction alone does not stratify the program.
  Load(&db,
       "module cyc.\n"
       "export top(bf).\n"
       "top(X, Y) :- cnt(X, N), o(N, Y).\n"
       "cnt(X, count(<Y>)) :- r(X, Y).\n"
       "o(N, Y) :- r(N, Y).\n"
       "r(X, Y) :- e(X, Y).\n"
       "end_module.\n");
  plan = db.PlanListing("cyc", "top", "bf");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("magic:\n  unadorned: r/2 (still unstratified)\n"),
            std::string::npos)
      << *plan;
}

TEST_F(PlanTest, AutoOptimizeOffPlansAsWritten) {
  Database db;
  db.set_auto_optimize(false);
  Load(&db, "edge(a, b). edge(b, c).");
  Load(&db, kPathModule);
  auto plan = db.PlanListing("paths", "path", "bf");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("join order: as written (auto-optimization off)"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("indexes:\n  (none)"), std::string::npos) << *plan;
}

TEST_F(PlanTest, NoReorderJoinsAnnotationRespected) {
  Database db;
  Load(&db, "edge(a, b).");
  Load(&db,
       "module paths.\n"
       "@no_reorder_joins.\n"
       "export path(bf).\n"
       "path(X, Y) :- edge(X, Y).\n"
       "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
       "end_module.\n");
  auto plan = db.PlanListing("paths", "path", "bf");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("join order: as written (@no_reorder_joins)"),
            std::string::npos)
      << *plan;
  // Index planning is independent of the reordering opt-out.
  EXPECT_NE(plan->find("edge/2: args (1)"), std::string::npos) << *plan;
}

TEST_F(PlanTest, ReorderMovesBoundLiteralFirst) {
  // As written the body visits sel (no bound args) before mid (one bound
  // arg from big); bound-args-first schedules mid ahead of sel. The
  // leading literal is anchored, so big stays first.
  Database db;
  Load(&db, "big(1, 2). big(2, 3). big(3, 4).");
  Load(&db,
       "module filt.\n"
       "@no_rewriting.\n"
       "export q(f).\n"
       "q(X) :- big(Y, Z), sel(X), mid(X, Y).\n"
       "sel(1).\n"
       "mid(1, 2).\n"
       "end_module.\n");
  auto plan = db.PlanListing("filt", "q", "f");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("bound-args-first (1 rule(s) reordered)"),
            std::string::npos)
      << *plan;
  size_t order = plan->find("join order:");
  ASSERT_NE(order, std::string::npos);
  size_t mid_at = plan->find("mid(", order);
  size_t sel_at = plan->find("sel(", order);
  ASSERT_NE(mid_at, std::string::npos) << *plan;
  ASSERT_NE(sel_at, std::string::npos) << *plan;
  EXPECT_LT(mid_at, sel_at) << *plan;

  // The reordering must not change the answers.
  EXPECT_EQ(Ask(&db, "q(X)"), std::vector<std::string>{"X = 1"});
}

TEST_F(PlanTest, PlanReportCoversCompiledForms) {
  Database db;
  Load(&db, "edge(a, b). edge(b, c).");
  Load(&db, kPathModule);
  ASSERT_EQ(Ask(&db, "path(a, W)").size(), 2u);
  std::string report = db.PlanReport();
  EXPECT_NE(report.find("plan for module paths, query form path/2@bf"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("join order:"), std::string::npos) << report;
}

TEST_F(PlanTest, AnswersIdenticalWithAndWithoutAutoOptimize) {
  std::vector<std::string> answers[2];
  for (int pass = 0; pass < 2; ++pass) {
    Database db;
    db.set_auto_optimize(pass == 0);
    Load(&db, "edge(a, b). edge(b, c). edge(c, d). edge(b, d).");
    Load(&db, kPathModule);
    answers[pass] = Ask(&db, "path(a, W)");
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0].size(), 3u);
}

}  // namespace
}  // namespace coral
