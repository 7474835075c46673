// End-to-end tests of the evaluation core: materialized (BSN/PSN/Naive)
// fixpoints with magic rewriting, pipelined evaluation, negation,
// aggregation, set-grouping, aggregate selections (the paper's Fig. 3
// shortest-path program), Ordered Search, save modules, lazy evaluation,
// inter-module calls, builtins, and non-ground facts.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "src/core/database.h"
#include "src/core/module_manager.h"
#include "src/core/session.h"
#include "src/lang/parser.h"

namespace coral {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void Load(const std::string& src) {
    auto st = db.Consult(src);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  /// Runs a query and returns each answer row as its ToString form,
  /// sorted for determinism.
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

  Database db;
};

// ---------------------------------------------------------------------
// Base facts and plain queries
// ---------------------------------------------------------------------

TEST_F(CoreTest, FactsAndGroundQueries) {
  Load("edge(1, 2). edge(2, 3).");
  EXPECT_EQ(Ask("edge(1, 2)"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("edge(1, 3)").empty());
  EXPECT_EQ(Count("edge(X, Y)"), 2u);
  EXPECT_EQ(Ask("edge(1, X)"), std::vector<std::string>{"X = 2"});
}

TEST_F(CoreTest, ConjunctiveQueryWithComparison) {
  Load("n(1). n(2). n(3). n(4).");
  EXPECT_EQ(Count("n(X), X < 3"), 2u);
  EXPECT_EQ(Count("n(X), n(Y), X < Y"), 6u);
}

TEST_F(CoreTest, ArithmeticInQueries) {
  Load("p(3, 4).");
  EXPECT_EQ(Ask("p(X, Y), Z = X * Y + 1"),
            std::vector<std::string>{"X = 3, Y = 4, Z = 13"});
  // Division by zero fails the goal rather than erroring.
  EXPECT_TRUE(Ask("p(X, Y), Z = X / 0").empty());
}

TEST_F(CoreTest, NonGroundFactsSubsumeQueries) {
  // A fact with a universally quantified variable (paper §3.1).
  Load("likes(X, icecream). likes(sam, pie).");
  EXPECT_EQ(Ask("likes(bob, icecream)"), std::vector<std::string>{"true"});
  EXPECT_EQ(Count("likes(sam, W)"), 2u);
}

// ---------------------------------------------------------------------
// Materialized recursion with magic rewriting
// ---------------------------------------------------------------------

constexpr char kAncestorModule[] = R"(
  module ancestors.
  export anc(bf, ff).
  anc(X, Y) :- par(X, Y).
  anc(X, Y) :- par(X, Z), anc(Z, Y).
  end_module.
)";

TEST_F(CoreTest, TransitiveClosureBoundQuery) {
  Load(kAncestorModule);
  Load("par(a, b). par(b, c). par(c, d). par(e, f).");
  auto rows = Ask("anc(a, X)");
  EXPECT_EQ(rows, (std::vector<std::string>{"X = b", "X = c", "X = d"}));
  EXPECT_TRUE(Ask("anc(d, X)").empty());
  EXPECT_EQ(Ask("anc(e, X)"), std::vector<std::string>{"X = f"});
}

TEST_F(CoreTest, TransitiveClosureAllFreeQuery) {
  Load(kAncestorModule);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(X, Y)"), 3u);
}

TEST_F(CoreTest, MagicAvoidsIrrelevantComputation) {
  Load(kAncestorModule);
  // Two disconnected chains; a bound query on one must not derive
  // ancestors in the other.
  std::string facts;
  for (int i = 0; i < 30; ++i) {
    facts += "par(l" + std::to_string(i) + ", l" + std::to_string(i + 1) +
             ").\n";
    facts += "par(r" + std::to_string(i) + ", r" + std::to_string(i + 1) +
             ").\n";
  }
  Load(facts);
  EXPECT_EQ(Count("anc(l0, X)"), 30u);
  const EvalStats& stats = db.modules()->last_stats();
  // With magic, computation is restricted to the l-chain: its suffix
  // subgoals still cost ~465 answer tuples plus magic/supplementary
  // facts, but the r-chain's ~465 tuples are never derived.
  EXPECT_LT(stats.inserts, 700u);
}

TEST_F(CoreTest, CyclicGraphTerminates) {
  Load(kAncestorModule);
  Load("par(a, b). par(b, c). par(c, a).");
  auto rows = Ask("anc(a, X)");
  EXPECT_EQ(rows.size(), 3u);  // a, b, c all reachable
}

TEST_F(CoreTest, GroundQueryThroughModule) {
  Load(kAncestorModule);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Ask("anc(a, c)"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("anc(c, a)").empty());
}

TEST_F(CoreTest, SameGenerationNonLinear) {
  Load(R"(
    module sg.
    export sg(bf).
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    end_module.
  )");
  Load(R"(
    up(a, b). up(a2, b). up(b, c).
    flat(c, c2). flat(b, b2).
    down(c2, b3). down(b2, a3). down(b3, b4).
  )");
  // sg(a, ?): up(a,b), sg(b,?), down.  sg(b,*): flat(b,b2)->a3; and
  // up(b,c), flat(c,c2), down(c2,b3) -> sg(b,b3) -> down(b3,b4) gives
  // sg(a, b4); sg(a, a3) via sg(b,b2)? sg(b,b2) is flat: down(b2,a3) so
  // sg(a, a3).
  auto rows = Ask("sg(a, Y)");
  EXPECT_EQ(rows, (std::vector<std::string>{"Y = a3", "Y = b4"}));
}

TEST_F(CoreTest, ListsAndStructuredDataInModules) {
  Load(R"(
    module paths.
    export path_list(bbf).
    path_list(X, Y, [edge(X, Y)]) :- edge(X, Y).
    path_list(X, Y, P1) :- edge(X, Z), path_list(Z, Y, P),
                           append([edge(X, Z)], P, P1).
    end_module.
  )");
  Load("edge(1, 2). edge(2, 3).");
  auto rows = Ask("path_list(1, 3, P)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "P = [edge(1,2),edge(2,3)]");
}

// ---------------------------------------------------------------------
// Strategy variants: no rewriting, naive, PSN
// ---------------------------------------------------------------------

TEST_F(CoreTest, NoRewritingComputesFullRelation) {
  Load(R"(
    module m.
    export tc(bf).
    @no_rewriting.
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    end_module.
  )");
  Load("e(1, 2). e(2, 3). e(10, 11).");
  EXPECT_EQ(Count("tc(1, X)"), 2u);
  // Without magic the module derived the whole closure (3 tuples + ...)
  const EvalStats& stats = db.modules()->last_stats();
  EXPECT_GE(stats.inserts, 3u);
}

TEST_F(CoreTest, NaiveAndSemiNaiveAgree) {
  for (const char* strategy : {"@naive.", "@bsn.", "@psn."}) {
    Database fresh;
    std::string mod = std::string(R"(
      module m.
      export tc(bf).
    )") + strategy + R"(
      tc(X, Y) :- e(X, Y).
      tc(X, Y) :- e(X, Z), tc(Z, Y).
      end_module.
    )";
    ASSERT_TRUE(fresh.Consult(mod).ok());
    ASSERT_TRUE(fresh.Consult("e(1,2). e(2,3). e(3,4). e(4,2).").ok());
    auto res = fresh.EvalQuery("tc(1, X)");
    ASSERT_TRUE(res.ok()) << strategy;
    EXPECT_EQ(res->rows.size(), 3u) << strategy;
  }
}

TEST_F(CoreTest, PsnHandlesMutualRecursion) {
  Load(R"(
    module eo.
    export even(b).
    @psn.
    even(0).
    even(X) :- X > 0, Y = X - 1, odd(Y).
    odd(X) :- X > 0, Y = X - 1, even(Y).
    end_module.
  )");
  EXPECT_EQ(Ask("even(10)"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("even(7)").empty());
}

// ---------------------------------------------------------------------
// Negation
// ---------------------------------------------------------------------

TEST_F(CoreTest, StratifiedNegation) {
  Load(R"(
    module reach.
    export unreachable(f).
    reachable(X) :- source(X).
    reachable(Y) :- reachable(X), e(X, Y).
    unreachable(X) :- node(X), not reachable(X).
    end_module.
  )");
  Load(R"(
    node(a). node(b). node(c). node(d).
    source(a). e(a, b). e(b, c).
  )");
  EXPECT_EQ(Ask("unreachable(X)"), std::vector<std::string>{"X = d"});
}

TEST_F(CoreTest, NegationInQueries) {
  Load("p(1). p(2). q(2).");
  EXPECT_EQ(Ask("p(X), not q(X)"), std::vector<std::string>{"X = 1"});
}

TEST_F(CoreTest, OrderedSearchWinMove) {
  // The classic game program: win(X) iff some move leads to a lost
  // position. Not stratified; left-to-right modularly stratified on
  // acyclic move graphs — exactly Ordered Search territory (§5.4.1).
  Load(R"(
    module game.
    export win(b).
    @ordered_search.
    win(X) :- move(X, Y), not win(Y).
    end_module.
  )");
  // Chain: a -> b -> c -> d (d has no moves: lost).
  Load("move(a, b). move(b, c). move(c, d).");
  EXPECT_EQ(Ask("win(c)"), std::vector<std::string>{"true"});  // c->d lost
  EXPECT_TRUE(Ask("win(b)").empty());  // b->c and c wins
  EXPECT_EQ(Ask("win(a)"), std::vector<std::string>{"true"});
}

TEST_F(CoreTest, OrderedSearchDeeperGame) {
  Load(R"(
    module game.
    export win(b).
    @ordered_search.
    win(X) :- move(X, Y), not win(Y).
    end_module.
  )");
  // Binary tree of moves; leaves are lost.
  std::string facts;
  for (int i = 1; i <= 15; ++i) {
    if (2 * i <= 31) {
      facts += "move(n" + std::to_string(i) + ", n" + std::to_string(2 * i) +
               ").\n";
      facts += "move(n" + std::to_string(i) + ", n" +
               std::to_string(2 * i + 1) + ").\n";
    }
  }
  Load(facts);
  // Complete binary tree, leaves n16..n31 lost. Parents of leaves
  // (n8..n15) win; n4..n7 lose (all children win); n2, n3 win; the root
  // n1 loses (both children win).
  EXPECT_EQ(Ask("win(n8)"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("win(n4)").empty());
  EXPECT_EQ(Ask("win(n2)"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("win(n1)").empty());
}

TEST_F(CoreTest, ContextFactoringRightLinear) {
  // @factoring (paper §4.1): right-linear TC evaluated via the context
  // relation — same answers as magic, linear instead of quadratic.
  Load(R"(
    module anc.
    export anc(bf).
    @factoring.
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  std::string facts;
  for (int i = 0; i < 40; ++i) {
    facts += "par(f" + std::to_string(i) + ", f" + std::to_string(i + 1) +
             ").\n";
  }
  facts += "par(x, y).";  // disconnected
  Load(facts);
  EXPECT_EQ(Count("anc(f0, Y)"), 40u);
  EXPECT_EQ(Ask("anc(f0, f40)"), std::vector<std::string>{"true"});
  EXPECT_EQ(Count("anc(f35, Y)"), 5u);
  // Linear behaviour (stats of the f35 call): inserts ~ seed + context
  // (6) + answers (5), far below the ~20 tuples magic would need for the
  // suffix subgoals (and crucially no quadratic answer relation).
  const EvalStats& stats = db.modules()->last_stats();
  EXPECT_LT(stats.inserts, 20u);
}

TEST_F(CoreTest, ContextFactoringRejectsNonRightLinear) {
  // Left-recursive form: the recursive call is first, not last.
  auto st = db.Consult(R"(
    module m.
    export tc(bf).
    @factoring.
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), e(Z, Y).
    end_module.
  )");
  ASSERT_TRUE(st.ok());  // compile is lazy: error surfaces at query time
  Load("e(1, 2).");
  auto res = db.EvalQuery("tc(1, Y)");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnsupported);
}

TEST_F(CoreTest, OrderedSearchCollapsesCyclicSubgoals) {
  // Positive recursion over cyclic data under Ordered Search: the
  // subgoal for anc(b) regenerates anc(a) while it is still on the
  // context stack — the nodes must collapse and complete together
  // (paper §5.4.1's mutually dependent subgoals).
  Load(R"(
    module anc.
    export anc(bf).
    @ordered_search.
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  Load("par(a, b). par(b, a). par(b, c).");
  auto rows = Ask("anc(a, Y)");
  EXPECT_EQ(rows, (std::vector<std::string>{"Y = a", "Y = b", "Y = c"}));
}

TEST_F(CoreTest, OrderedSearchNegationAndAggregationTogether) {
  // A winning-move summary: for each position, count the winning moves —
  // aggregation over a predicate defined with non-stratified negation.
  Load(R"(
    module game.
    export options(bf).
    @ordered_search.
    win(X) :- move(X, Y), not win(Y).
    good(X, Y) :- move(X, Y), not win(Y).
    options(X, count(<Y>)) :- good(X, Y).
    end_module.
  )");
  // pos3 -> pos2 -> pos1 -> pos0 (lost); pos3 -> pos1 shortcut.
  Load("move(p3, p2). move(p3, p1). move(p2, p1). move(p1, p0).");
  // p1 wins (to p0); p2 loses; p3: moves to p2 (losing: good) and p1
  // (winning: not good) -> one good option.
  EXPECT_EQ(Ask("options(p3, N)"), std::vector<std::string>{"N = 1"});
  EXPECT_EQ(Ask("options(p1, N)"), std::vector<std::string>{"N = 1"});
  EXPECT_TRUE(Ask("options(p2, N)").empty());  // no good moves
}

TEST_F(CoreTest, OrderedSearchRecursiveAggregation) {
  // Company controls: sum aggregation inside recursion — the canonical
  // left-to-right modularly stratified program (paper §5.4.1 and [23]).
  Load(R"(
    module control.
    export controls(bf).
    @ordered_search.
    controls(X, Y) :- total_shares(X, Y, T), T > 50.
    total_shares(X, Y, sum(<S>)) :- commands(X, Y, Z, S).
    commands(X, Y, X, S) :- owns(X, Y, S).
    commands(X, Y, Z, S) :- owns(Z, Y, S), Z \= X, controls(X, Z).
    end_module.
  )");
  Load(R"(
    owns(acme, beta, 60).
    owns(acme, gamma, 30). owns(beta, gamma, 25).
    owns(gamma, delta, 51).
    owns(acme, omega, 20). owns(rival, omega, 45).
  )");
  EXPECT_EQ(Ask("controls(acme, Y)"),
            (std::vector<std::string>{"Y = beta", "Y = delta",
                                      "Y = gamma"}));
  EXPECT_TRUE(Ask("controls(rival, Y)").empty());
}

// ---------------------------------------------------------------------
// Aggregation and set-grouping
// ---------------------------------------------------------------------

TEST_F(CoreTest, AggregationOverBaseData) {
  Load(R"(
    module stats.
    export dept_stats(bfff).
    dept_stats(D, count(<E>), sum(<S>), max(<S>)) :- emp(D, E, S).
    end_module.
  )");
  Load(R"(
    emp(eng, alice, 120). emp(eng, bob, 100).
    emp(hr, carol, 90).
  )");
  EXPECT_EQ(Ask("dept_stats(eng, C, S, M)"),
            std::vector<std::string>{"C = 2, S = 220, M = 120"});
  EXPECT_EQ(Ask("dept_stats(hr, C, S, M)"),
            std::vector<std::string>{"C = 1, S = 90, M = 90"});
}

TEST_F(CoreTest, SetGroupingBuildsSets) {
  Load(R"(
    module fam.
    export children(bf).
    children(X, <Y>) :- par(X, Y).
    end_module.
  )");
  Load("par(a, b). par(a, c). par(d, e).");
  EXPECT_EQ(Ask("children(a, S)"), std::vector<std::string>{"S = {b,c}"});
  EXPECT_EQ(Ask("children(d, S)"), std::vector<std::string>{"S = {e}"});
}

TEST_F(CoreTest, AggregationOverRecursivePredicate) {
  // Min path length over a recursive path predicate: aggregation above a
  // recursive SCC (stratified).
  Load(R"(
    module sp.
    export plen(bbf).
    p(X, Y, 1) :- e(X, Y).
    p(X, Y, L1) :- p(X, Z, L), e(Z, Y), L1 = L + 1, L < 10.
    plen(X, Y, min(<L>)) :- p(X, Y, L).
    end_module.
  )");
  Load("e(a, b). e(b, c). e(a, c). e(c, d).");
  EXPECT_EQ(Ask("plen(a, c, L)"), std::vector<std::string>{"L = 1"});
  EXPECT_EQ(Ask("plen(a, d, L)"), std::vector<std::string>{"L = 2"});
}

TEST_F(CoreTest, AvgAggregate) {
  Load(R"(
    module m.
    export avg_of(bf).
    avg_of(G, avg(<V>)) :- sample(G, V).
    end_module.
  )");
  Load("sample(g, 1). sample(g, 2). sample(g, 6).");
  EXPECT_EQ(Ask("avg_of(g, A)"), std::vector<std::string>{"A = 3.0"});
}

// ---------------------------------------------------------------------
// Aggregate selections: the paper's Fig. 3 shortest path program
// ---------------------------------------------------------------------

constexpr char kShortestPath[] = R"(
  module s_p.
  export s_p(bfff).
  @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
  @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
  s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
  s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
  p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                     append([edge(Z, Y)], P, P1), C1 = C + EC.
  p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
  end_module.
)";

TEST_F(CoreTest, ShortestPathFigure3) {
  Load(kShortestPath);
  // Cyclic graph: without the aggregate selection the p predicate would
  // generate unboundedly costlier cyclic paths (paper §5.5.2).
  Load(R"(
    edge(a, b, 1). edge(b, c, 2). edge(a, c, 5).
    edge(c, a, 1). edge(b, a, 1).
  )");
  // Fig. 3 prepends each new edge (append([edge(Z,Y)], P, P1)), so the
  // witness path lists edges last-hop first.
  auto rows = Ask("s_p(a, c, P, C)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "P = [edge(b,c),edge(a,b)], C = 3");
  rows = Ask("s_p(a, a, P, C)");
  ASSERT_EQ(rows.size(), 1u);
  // Cheapest cycle: a->b (1) + b->a (1) = 2.
  EXPECT_EQ(rows[0], "P = [edge(b,a),edge(a,b)], C = 2");
}

TEST_F(CoreTest, ShortestPathFigure3UnderBothMagicRewriters) {
  // Neither rewriter lists the magic rule m_p@bfff(X) :- m_p@bfff(X).
  // (the recursive p rule passes X unchanged to its first literal), and
  // both give ShortestPathFigure3's answers.
  Load(R"(
    edge(a, b, 1). edge(b, c, 2). edge(a, c, 5).
    edge(c, a, 1). edge(b, a, 1).
  )");
  std::string plain_magic = kShortestPath;
  plain_magic.insert(plain_magic.find("@aggregate_selection"), "@magic.\n");
  for (const std::string& program : {std::string(kShortestPath),
                                     plain_magic}) {
    Load(program);
    auto listing = db.modules()->RewrittenListing("s_p", "s_p", "bfff");
    ASSERT_TRUE(listing.ok()) << listing.status().ToString();
    EXPECT_NE(listing->find("m_p@bfff(X) :- m_s_p@bfff(X)."),
              std::string::npos)
        << *listing;
    EXPECT_EQ(listing->find("m_p@bfff(X) :- m_p@bfff(X)."), std::string::npos)
        << *listing;
    EXPECT_EQ(Ask("s_p(a, c, P, C)"),
              std::vector<std::string>{"P = [edge(b,c),edge(a,b)], C = 3"});
    EXPECT_EQ(Ask("s_p(a, a, P, C)"),
              std::vector<std::string>{"P = [edge(b,a),edge(a,b)], C = 2"});
  }
}

TEST_F(CoreTest, ShortestPathLargerGraph) {
  Load(kShortestPath);
  // Grid-ish graph with cycles.
  std::string facts;
  for (int i = 0; i < 10; ++i) {
    facts += "edge(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
             ", 2).\n";
    facts += "edge(v" + std::to_string(i + 1) + ", v" + std::to_string(i) +
             ", 3).\n";
  }
  facts += "edge(v0, v5, 20).\n";  // worse shortcut
  Load(facts);
  auto rows = Ask("s_p(v0, v5, P, C)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("C = 10"), std::string::npos);
}

TEST_F(CoreTest, ReordererRunsBuiltinOnceItsModeIsSatisfied) {
  // length(L, N) is ready once L is bound (mode length(+,-)); the
  // comparison waits for N. Without modes neither looked ready, and the
  // reorderer kept `N > 1` first, which answered nothing.
  Load(R"(
    p(1, [a, b]). p(2, [c]). p(3, [d, e, f]).
    module m. export q(f).
    q(X) :- p(X, L), N > 1, length(L, N).
    end_module.
  )");
  EXPECT_EQ(Ask("q(X)"), (std::vector<std::string>{"X = 1", "X = 3"}));
}

TEST_F(CoreTest, FactsForBuiltinsAreRefused) {
  // append/3 is computed by code: a stored fact for it would be visible
  // to no query.
  auto consulted = db.Consult("append(1, 2, 3).");
  EXPECT_EQ(consulted.status().code(), StatusCode::kUnsupported);
  Session s(&db);
  auto applied = s.ApplyUpdate("+append(1, 2, 3).\n");
  EXPECT_EQ(applied.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(db.FindBaseRelation({db.factory()->symbols().Intern("append"), 3}),
            nullptr);
}

// ---------------------------------------------------------------------
// Pipelining
// ---------------------------------------------------------------------

TEST_F(CoreTest, PipelinedModuleBasics) {
  Load(R"(
    module pipe.
    export grandparent(bf).
    @pipelining.
    grandparent(X, Z) :- par(X, Y), par(Y, Z).
    end_module.
  )");
  Load("par(a, b). par(b, c). par(b, d).");
  EXPECT_EQ(Ask("grandparent(a, Z)"),
            (std::vector<std::string>{"Z = c", "Z = d"}));
}

TEST_F(CoreTest, PipelinedRecursionOnAcyclicData) {
  Load(R"(
    module pipe.
    export anc(bf).
    @pipelining.
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  Load("par(a, b). par(b, c). par(c, d).");
  EXPECT_EQ(Count("anc(a, X)"), 3u);
}

TEST_F(CoreTest, PipelinedRuleOrderAndNegation) {
  Load(R"(
    module pipe.
    export status(bf).
    @pipelining.
    status(X, poor) :- broke(X).
    status(X, rich) :- not broke(X).
    end_module.
  )");
  Load("broke(bob).");
  EXPECT_EQ(Ask("status(bob, S)"), std::vector<std::string>{"S = poor"});
  EXPECT_EQ(Ask("status(alice, S)"), std::vector<std::string>{"S = rich"});
}

TEST_F(CoreTest, PipelinedDepthGuardOnCyclicData) {
  Load(R"(
    module pipe.
    export anc(bf).
    @pipelining.
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  Load("par(a, b). par(b, a).");  // cyclic: top-down diverges
  auto result = db.EvalQuery("anc(a, X)");
  // The depth guard converts divergence into an error (not a hang).
  EXPECT_FALSE(result.ok());
}

TEST_F(CoreTest, MixedPipelinedAndMaterializedModules) {
  // A materialized module calling a pipelined one and vice versa: the
  // module interface hides the evaluation strategy (paper §5.6).
  Load(R"(
    module base_pipe.
    export double_edge(bf).
    @pipelining.
    double_edge(X, Z) :- e(X, Y), e(Y, Z).
    end_module.

    module closure.
    export dtc(bf).
    dtc(X, Y) :- double_edge(X, Y).
    dtc(X, Y) :- double_edge(X, Z), dtc(Z, Y).
    end_module.
  )");
  Load("e(1,2). e(2,3). e(3,4). e(4,5).");
  // double edges: 1->3, 2->4, 3->5; dtc(1): 3, 5.
  EXPECT_EQ(Ask("dtc(1, Y)"), (std::vector<std::string>{"Y = 3", "Y = 5"}));
}

// ---------------------------------------------------------------------
// Save module & lazy evaluation
// ---------------------------------------------------------------------

TEST_F(CoreTest, SaveModuleAvoidsRecomputation) {
  Load(R"(
    module saved.
    export anc(bf).
    @save_module.
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  std::string facts;
  for (int i = 0; i < 20; ++i) {
    facts += "par(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
  }
  Load(facts);
  EXPECT_EQ(Count("anc(n0, X)"), 20u);
  uint64_t inserts_after_first = db.modules()->last_stats().inserts;
  // Repeat the same query: state is retained, no derivations repeated.
  EXPECT_EQ(Count("anc(n0, X)"), 20u);
  uint64_t inserts_after_second = db.modules()->last_stats().inserts;
  EXPECT_EQ(inserts_after_first, inserts_after_second);
  // A subgoal already covered by the first run: also cheap.
  EXPECT_EQ(Count("anc(n5, X)"), 15u);
}

TEST_F(CoreTest, NonSaveModuleRecomputes) {
  Load(kAncestorModule);
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(a, X)"), 2u);
  EXPECT_EQ(Count("anc(a, X)"), 2u);  // fresh instance per call: same result
}

TEST_F(CoreTest, LazyModuleDeliversAnswers) {
  // Default materialized modules deliver answers per iteration; from the
  // outside all answers must still arrive.
  Load(kAncestorModule);
  std::string facts;
  for (int i = 0; i < 50; ++i) {
    facts += "par(m" + std::to_string(i) + ", m" + std::to_string(i + 1) +
             ").\n";
  }
  Load(facts);
  EXPECT_EQ(Count("anc(m0, X)"), 50u);
}

TEST_F(CoreTest, SaveModuleWithOrderedSearch) {
  // A saved Ordered Search module: done subgoals persist across calls, so
  // re-querying a completed position answers from retained state and a
  // new position resumes incrementally.
  Load(R"(
    module game.
    export win(b).
    @ordered_search. @save_module.
    win(X) :- move(X, Y), not win(Y).
    end_module.
  )");
  Load("move(a, b). move(b, c). move(c, d).");
  EXPECT_EQ(Ask("win(a)"), std::vector<std::string>{"true"});
  uint64_t after_first = db.modules()->last_stats().inserts;
  EXPECT_EQ(Ask("win(a)"), std::vector<std::string>{"true"});
  EXPECT_EQ(db.modules()->last_stats().inserts, after_first);
  // b was already solved as a subgoal of a.
  EXPECT_TRUE(Ask("win(b)").empty());
  EXPECT_EQ(db.modules()->last_stats().inserts, after_first);
}

TEST_F(CoreTest, NegatedModuleCallInQuery) {
  Load(R"(
    module anc.
    export anc(bf).
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  Load("par(a, b). par(b, c). person(a). person(b). person(c).");
  // People who are NOT descendants of a.
  auto rows = Ask("person(P), not anc(a, P)");
  EXPECT_EQ(rows, std::vector<std::string>{"P = a"});
}

TEST_F(CoreTest, NegatedModuleCallInsideAnotherModule) {
  Load(R"(
    module reach_m.
    export reach(bf).
    reach(X, Y) :- e(X, Y).
    reach(X, Y) :- e(X, Z), reach(Z, Y).
    end_module.

    module frontier.
    export cut_off(bf).
    cut_off(S, N) :- node(N), not reach(S, N), S \= N.
    end_module.
  )");
  Load("e(s, m1). e(m1, m2). node(s). node(m1). node(m2). node(iso).");
  EXPECT_EQ(Ask("cut_off(s, N)"), std::vector<std::string>{"N = iso"});
}

// ---------------------------------------------------------------------
// Multiset semantics
// ---------------------------------------------------------------------

TEST_F(CoreTest, MultisetKeepsDuplicateDerivations) {
  Load(R"(
    module ms.
    export result(ff).
    @multiset result.
    @eager.
    result(X, Y) :- r(X), s(Y).
    result(X, Y) :- t(X, Y).
    end_module.
  )");
  Load("r(1). s(2). t(1, 2).");
  // Two derivations of (1,2): the multiset keeps both; the top-level
  // query interface collapses rows, so check via a set-semantics twin.
  auto res = db.modules()->last_stats();
  (void)res;
  EXPECT_EQ(Count("result(X, Y)"), 1u);  // set-collapsed at the query level
}

// ---------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------

TEST_F(CoreTest, BuiltinAppendModes) {
  EXPECT_EQ(Ask("append([1,2], [3], Z)"),
            std::vector<std::string>{"Z = [1,2,3]"});
  EXPECT_EQ(Count("append(A, B, [1,2,3])"), 4u);
  EXPECT_EQ(Ask("append([1], B, [1,2])"), std::vector<std::string>{"B = [2]"});
}

TEST_F(CoreTest, BuiltinMemberLengthBetween) {
  EXPECT_EQ(Count("member(X, [a,b,c])"), 3u);
  EXPECT_EQ(Ask("length([a,b,c], N)"), std::vector<std::string>{"N = 3"});
  EXPECT_EQ(Count("between(1, 5, X)"), 5u);
  EXPECT_EQ(Count("between(1, 5, X), X > 3"), 2u);
}

TEST_F(CoreTest, BuiltinComparisonsOnTerms) {
  // CompareArgs gives a total order: strings before atoms, numbers first.
  EXPECT_EQ(Ask("1 < 2"), std::vector<std::string>{"true"});
  EXPECT_EQ(Ask("1.5 < 2"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("2 < 1").empty());
  EXPECT_EQ(Ask("X = 3 + 4, X >= 7"), std::vector<std::string>{"X = 7"});
  EXPECT_EQ(Ask("f(1) \\= f(2)"), std::vector<std::string>{"true"});
  EXPECT_TRUE(Ask("f(X) \\= f(2)").empty());  // unifiable
}

TEST_F(CoreTest, BigIntegerArithmeticOverflowPromotes) {
  EXPECT_EQ(Ask("X = 9223372036854775807 + 1"),
            std::vector<std::string>{"X = 9223372036854775808B"});
  EXPECT_EQ(Ask("X = 123456789123456789 * 1000000000000"),
            std::vector<std::string>{"X = 123456789123456789000000000000B"});
}

// ---------------------------------------------------------------------
// Module bookkeeping
// ---------------------------------------------------------------------

TEST_F(CoreTest, RewrittenListingAvailable) {
  Load(kAncestorModule);
  auto listing = db.modules()->RewrittenListing("ancestors", "anc", "bf");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_NE(listing->find("m_anc@bf"), std::string::npos);
}

TEST_F(CoreTest, ModuleRedefinitionReplaces) {
  Load("module m. export p(f). p(1). end_module.");
  EXPECT_EQ(Ask("p(X)"), std::vector<std::string>{"X = 1"});
  Load("module m. export p(f). p(2). end_module.");
  EXPECT_EQ(Ask("p(X)"), std::vector<std::string>{"X = 2"});
}

TEST_F(CoreTest, UnknownPredicateIsEmpty) {
  EXPECT_TRUE(Ask("nosuchpred(X)").empty());
}

TEST_F(CoreTest, QueryOnWrongFormStillAnswers) {
  // Export only bf; an all-free query seeds a non-ground magic fact.
  Load(R"(
    module m.
    export anc(bf).
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  Load("par(a, b). par(b, c).");
  EXPECT_EQ(Count("anc(X, Y)"), 3u);
}

TEST_F(CoreTest, DeleteFactsBySubsumption) {
  Load("q(1, a). q(1, b). q(2, a).");
  auto removed = db.EvalQuery("q(X, Y)");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->rows.size(), 3u);
  Parser parser("q(1, Z).", db.factory());
  auto prog = parser.ParseProgram();
  ASSERT_TRUE(prog.ok());
  auto n = db.DeleteFacts(prog->top_facts[0]);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(Count("q(X, Y)"), 1u);
}

TEST_F(CoreTest, RunConsultsAndAnswers) {
  auto out = db.Run(R"(
    edge(1, 2). edge(2, 3).
    module tc. export t(bf).
    t(X, Y) :- edge(X, Y).
    t(X, Y) :- edge(X, Z), t(Z, Y).
    end_module.
    ?- t(1, X).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("X = 2"), std::string::npos);
  EXPECT_NE(out->find("X = 3"), std::string::npos);
}

// ---------------------------------------------------------------------
// Term memory: the arena never frees, so a repeated query must not grow
// it. Variables are interned by (slot, name) and tuples are hash-consed
// whether ground or not; only non-ground compound terms written in the
// query text (f(X), X + 1) are still built afresh, so the texts below
// avoid them.
// ---------------------------------------------------------------------

TEST_F(CoreTest, RepeatedQueriesAllocateNoTerms) {
  std::string facts;
  for (int i = 0; i < 40; ++i) {
    facts += "e(" + std::to_string(i) + ", " +
             std::to_string((i * 7 + 1) % 40) + "). ";
  }
  Load(facts);
  Load(R"(
    module reach.
    export reach(bf, ff).
    reach(X, Y) :- e(X, Y).
    reach(X, Y) :- reach(X, Z), e(Z, Y).
    end_module.
    module agg.
    export cnt(bf).
    cnt(X, count(<Y>)) :- e(X, Y).
    end_module.
  )");
  std::vector<std::string> texts;
  auto add = [&texts](const std::string& pred, int n, const char* rest) {
    for (int i = 0; i < n; ++i) {
      texts.push_back(pred + "(" + std::to_string(i) + rest);
    }
  };
  add("reach", 30, ", Y)");
  add("e", 10, ", Y)");
  add("cnt", 5, ", N)");
  texts.push_back("reach(X, Y)");
  texts.push_back("e(X, Y), X < 3");
  texts.push_back("e(_, Y), not e(Y, 2)");
  texts.push_back("X = 3 + 1");
  texts.push_back("e(X, _), X > 38");
  ASSERT_EQ(texts.size(), 50u);

  for (const std::string& q : texts) ASSERT_GT(Count(q), 0u) << q;
  const size_t warm = db.factory()->bytes_allocated();
  for (int i = 0; i < 10000; ++i) {
    auto r = db.EvalQuery(texts[static_cast<size_t>(i) % texts.size()]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(db.factory()->bytes_allocated(), warm);
}

TEST_F(CoreTest, ConsultedFactsAddNoFunctorTerms) {
  const size_t before = db.factory()->hashcons_size();
  std::string facts;
  for (int i = 0; i < 500; ++i) {
    facts += "edge(" + std::to_string(i) + ", " + std::to_string(i + 1) + "). ";
  }
  Load(facts);
  EXPECT_EQ(Count("edge(X, Y)"), 500u);
  EXPECT_EQ(db.factory()->hashcons_size(), before);
}

}  // namespace
}  // namespace coral
