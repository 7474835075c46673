// Unit tests for the rewriting layer: dependency graph / SCCs, adornment,
// Magic Templates, Supplementary Magic, semi-naive rule versions, the
// rewriter orchestration (paper §4.1, §5.1, §5.3).

#include <gtest/gtest.h>

#include <string>

#include "src/lang/parser.h"
#include "src/rewrite/adorn.h"
#include "src/rewrite/depgraph.h"
#include "src/rewrite/existential.h"
#include "src/rewrite/magic.h"
#include "src/rewrite/rewriter.h"
#include "src/rewrite/seminaive.h"
#include "src/rewrite/supmagic.h"

namespace coral {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  ModuleDecl ParseModule(const std::string& src) {
    Parser p(src, &f);
    auto prog = p.ParseProgram();
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    EXPECT_EQ(prog->modules.size(), 1u);
    return prog->modules[0];
  }

  PredRef P(const char* name, uint32_t arity) {
    return PredRef{f.symbols().Intern(name), arity};
  }

  TermFactory f;
};

constexpr char kAncestor[] = R"(
  module anc.
  export anc(bf).
  anc(X, Y) :- par(X, Y).
  anc(X, Y) :- par(X, Z), anc(Z, Y).
  end_module.
)";

TEST_F(RewriteTest, DepGraphSccsTopologicalOrder) {
  ModuleDecl m = ParseModule(R"(
    module m.
    a(X) :- b(X), c(X).
    b(X) :- base(X).
    c(X) :- a(X).
    c(X) :- b(X).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  EXPECT_TRUE(g.IsDerived(P("a", 1)));
  EXPECT_FALSE(g.IsDerived(P("base", 1)));
  // a and c are mutually recursive; b is its own SCC evaluated first.
  EXPECT_TRUE(g.SameScc(P("a", 1), P("c", 1)));
  EXPECT_FALSE(g.SameScc(P("a", 1), P("b", 1)));
  EXPECT_LT(g.SccOf(P("b", 1)), g.SccOf(P("a", 1)));
  EXPECT_TRUE(g.stratified());
}

TEST_F(RewriteTest, DepGraphDetectsUnstratifiedNegation) {
  ModuleDecl m = ParseModule(R"(
    module m.
    win(X) :- move(X, Y), not win(Y).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  EXPECT_FALSE(g.stratified());
  EXPECT_NE(g.violation().find("negation"), std::string::npos);
}

TEST_F(RewriteTest, DepGraphDetectsRecursiveAggregation) {
  ModuleDecl m = ParseModule(R"(
    module m.
    s(X, min(<C>)) :- s(Y, C), e(Y, X).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  EXPECT_FALSE(g.stratified());
}

TEST_F(RewriteTest, StratifiedNegationAcrossSccsOk) {
  ModuleDecl m = ParseModule(R"(
    module m.
    reach(X) :- src(X).
    reach(Y) :- reach(X), e(X, Y).
    unreach(X) :- node(X), not reach(X).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  EXPECT_TRUE(g.stratified());
  EXPECT_LT(g.SccOf(P("reach", 1)), g.SccOf(P("unreach", 1)));
}

TEST_F(RewriteTest, VarAnalysisHelpers) {
  ModuleDecl m = ParseModule(R"(
    module m. p(X, W) :- q(X, Y), r(Y, Z), s(Z, W). end_module.
  )");
  const Rule& r = m.rules[0];
  auto needed = NeededAfter(r);
  // After position 0 (q), needed includes Y (used by r) and X,W (head).
  // Slots: X=0, W=1, Y=2, Z=3.
  EXPECT_TRUE(needed[1].count(2));  // Y needed at r(Y,Z)
  EXPECT_TRUE(needed[2].count(3));  // Z needed at s(Z,W)
  EXPECT_FALSE(needed[3].count(2));  // Y not needed after r
  EXPECT_TRUE(needed[3].count(1));   // W needed by head
}

TEST_F(RewriteTest, AdornmentPropagatesLeftToRight) {
  ModuleDecl m = ParseModule(kAncestor);
  DepGraph g = DepGraph::Build(m.rules);
  auto adorned = AdornProgram(m.rules, g.derived(), {}, P("anc", 2), "bf", &f);
  ASSERT_TRUE(adorned.ok());
  // anc@bf defined; recursive call anc(Z, Y) has Z bound by par(X, Z).
  EXPECT_EQ(adorned->query_pred.sym->name, "anc@bf");
  ASSERT_EQ(adorned->rules.size(), 2u);
  const Rule& rec = adorned->rules[1];
  EXPECT_EQ(rec.head.pred->name, "anc@bf");
  EXPECT_EQ(rec.body[1].pred->name, "anc@bf");
  // Only one adorned predicate is generated.
  EXPECT_EQ(adorned->adorned.size(), 1u);
}

TEST_F(RewriteTest, AdornmentAllFree) {
  ModuleDecl m = ParseModule(kAncestor);
  DepGraph g = DepGraph::Build(m.rules);
  auto adorned = AdornProgram(m.rules, g.derived(), {}, P("anc", 2), "ff", &f);
  ASSERT_TRUE(adorned.ok());
  EXPECT_EQ(adorned->query_pred.sym->name, "anc@ff");
  // Recursive literal: Z bound after par => anc@bf also generated.
  EXPECT_EQ(adorned->adorned.size(), 2u);
}

TEST_F(RewriteTest, AdornmentArityMismatchRejected) {
  ModuleDecl m = ParseModule(kAncestor);
  DepGraph g = DepGraph::Build(m.rules);
  EXPECT_FALSE(
      AdornProgram(m.rules, g.derived(), {}, P("anc", 2), "b", &f).ok());
}

TEST_F(RewriteTest, MagicTemplatesShape) {
  ModuleDecl m = ParseModule(kAncestor);
  DepGraph g = DepGraph::Build(m.rules);
  auto adorned =
      AdornProgram(m.rules, g.derived(), {}, P("anc", 2), "bf", &f);
  ASSERT_TRUE(adorned.ok());
  auto magic = MagicTemplates(*adorned, &f);
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(magic->seed_pred.sym->name, "m_anc@bf");
  EXPECT_EQ(magic->seed_pred.arity, 1u);
  // Expect: 2 guarded rules + 1 magic rule (for the recursive literal).
  ASSERT_EQ(magic->rules.size(), 3u);
  int magic_rules = 0, guarded = 0;
  for (const Rule& r : magic->rules) {
    if (r.head.pred->name == "m_anc@bf") {
      ++magic_rules;
      // m_anc@bf(Z) :- m_anc@bf(X), par(X, Z).
      ASSERT_EQ(r.body.size(), 2u);
      EXPECT_EQ(r.body[0].pred->name, "m_anc@bf");
      EXPECT_EQ(r.body[1].pred->name, "par");
    } else {
      EXPECT_EQ(r.head.pred->name, "anc@bf");
      EXPECT_EQ(r.body[0].pred->name, "m_anc@bf");
      ++guarded;
    }
  }
  EXPECT_EQ(magic_rules, 1);
  EXPECT_EQ(guarded, 2);
}

TEST_F(RewriteTest, SupplementaryMagicSharesPrefixes) {
  // With two derived body literals the prefix join is materialized.
  ModuleDecl m = ParseModule(R"(
    module m.
    export p(bf).
    p(X, Y) :- e(X, Z), p(Z, W), f(W, V), p(V, Y).
    p(X, Y) :- e(X, Y).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  auto adorned = AdornProgram(m.rules, g.derived(), {}, P("p", 2), "bf", &f);
  ASSERT_TRUE(adorned.ok());
  auto sup = SupplementaryMagic(*adorned, &f);
  ASSERT_TRUE(sup.ok());
  bool has_sup = false;
  for (const Rule& r : sup->rules) {
    if (r.head.pred->name.rfind("sup@", 0) == 0) has_sup = true;
  }
  EXPECT_TRUE(has_sup);
  // Every rule head is one of: p@bf, m_p@bf, sup@...
  for (const Rule& r : sup->rules) {
    const std::string& n = r.head.pred->name;
    EXPECT_TRUE(n == "p@bf" || n == "m_p@bf" || n.rfind("sup@", 0) == 0) << n;
  }
}

TEST_F(RewriteTest, SupplementaryPrunesDeadVariables) {
  // Variable D is dead after e2; the sup predicate must not carry it.
  ModuleDecl m = ParseModule(R"(
    module m.
    export p(bf).
    p(X, Y) :- e1(X, D), e2(X, Z), p(Z, Y).
    p(X, Y) :- e0(X, Y).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  auto adorned = AdornProgram(m.rules, g.derived(), {}, P("p", 2), "bf", &f);
  auto sup = SupplementaryMagic(*adorned, &f);
  ASSERT_TRUE(sup.ok());
  for (const Rule& r : sup->rules) {
    if (r.head.pred->name.rfind("sup@", 0) == 0) {
      for (const Arg* a : r.head.args) {
        ASSERT_EQ(a->kind(), ArgKind::kVariable);
        EXPECT_NE(ArgCast<Variable>(a)->name(), "D");
      }
      // Live: X (head), Z (next literal), Y is not yet available.
      EXPECT_EQ(r.head.args.size(), 2u);
    }
  }
}

TEST_F(RewriteTest, SemiNaiveVersionsPerRecursiveOccurrence) {
  ModuleDecl m = ParseModule(R"(
    module m.
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), sg(V, W), down(W, Y).
    end_module.
  )");
  DepGraph g = DepGraph::Build(m.rules);
  SemiNaiveProgram sn = BuildSemiNaive(m.rules, g);
  ASSERT_EQ(sn.sccs.size(), 1u);
  const SccPlan& plan = sn.sccs[0];
  // Non-recursive rule evaluated once; recursive rule has two versions.
  EXPECT_EQ(plan.once.size(), 1u);
  ASSERT_EQ(plan.versions.size(), 2u);
  const RuleVersion& v0 = plan.versions[0];
  const RuleVersion& v1 = plan.versions[1];
  EXPECT_EQ(v0.delta_pos, 1);
  EXPECT_EQ(v0.ranges[1], RangeSel::kDelta);
  EXPECT_EQ(v0.ranges[2], RangeSel::kOld);
  EXPECT_EQ(v1.delta_pos, 2);
  EXPECT_EQ(v1.ranges[1], RangeSel::kFull);
  EXPECT_EQ(v1.ranges[2], RangeSel::kDelta);
}

TEST_F(RewriteTest, BacktrackPointsComputed) {
  ModuleDecl m = ParseModule(R"(
    module m.
    p(A, B) :- q(A, X), r(B, Y), s(X, Y), t(A).
    end_module.
  )");
  auto bt = ComputeBacktrackPoints(m.rules[0]);
  ASSERT_EQ(bt.size(), 4u);
  EXPECT_EQ(bt[0], -1);  // q(A,X): A bound by head only
  EXPECT_EQ(bt[1], -1);  // r(B,Y): B head-bound, Y fresh
  EXPECT_EQ(bt[2], 1);   // s(X,Y): X from q(0), Y from r(1) -> max 1
  EXPECT_EQ(bt[3], 0);   // t(A): A last bound at q(0)
}

TEST_F(RewriteTest, RewriteModuleEndToEndAncestor) {
  ModuleDecl m = ParseModule(kAncestor);
  QueryFormDecl form{f.symbols().Intern("anc"), "bf"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE(prog->uses_magic);
  EXPECT_EQ(prog->answer_pred.sym->name, "anc@bf");
  EXPECT_EQ(prog->seed_pred.sym->name, "m_anc@bf");
  EXPECT_EQ(prog->bound_positions, std::vector<uint32_t>{0});
  EXPECT_FALSE(prog->listing.empty());
  // Semi-naive plan exists and covers all rules.
  size_t total = 0;
  for (const auto& scc : prog->seminaive.sccs) {
    total += scc.versions.size() + scc.once.size();
  }
  EXPECT_GE(total, prog->rules.size());
}

TEST_F(RewriteTest, RewriteModuleNoRewriting) {
  ModuleDecl m = ParseModule(kAncestor);
  m.rewrite = RewriteKind::kNone;
  QueryFormDecl form{f.symbols().Intern("anc"), "bf"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(prog->uses_magic);
  EXPECT_EQ(prog->answer_pred.sym->name, "anc");
  EXPECT_EQ(prog->rules.size(), 2u);
}

TEST_F(RewriteTest, RewriteNegationStaysStratifiedWhenMagicIsAcyclic) {
  // Here the magic rule for the negated 'reach' subgoal derives only from
  // the positive prefix, so adorning straight through the negation keeps
  // the rewritten program stratified — no protection needed, and the
  // negated subquery still benefits from magic.
  ModuleDecl m = ParseModule(R"(
    module m.
    export unreach(f).
    reach(X) :- src(X).
    reach(Y) :- reach(X), e(X, Y).
    unreach(X) :- node(X), not reach(X).
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("unreach"), "f"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE(prog->graph.stratified());
  bool neg_found = false;
  PredRef neg_pred, consumer;
  for (const Rule& r : prog->rules) {
    for (const Literal& lit : r.body) {
      if (lit.negated) {
        neg_found = true;
        neg_pred = lit.pred_ref();
        consumer = r.head.pred_ref();
      }
    }
  }
  ASSERT_TRUE(neg_found);
  EXPECT_EQ(neg_pred.sym->name, "reach@b");
  // The negated predicate's stratum is strictly below its consumer's.
  EXPECT_LT(prog->graph.SccOf(neg_pred), prog->graph.SccOf(consumer));
}

TEST_F(RewriteTest, RewriteProtectsWhenMagicBreaksStratification) {
  // t and p are mutually recursive; the magic subgoal for the negated 's'
  // is generated from a prefix involving p, so full adornment creates the
  // cycle t -(neg)-> s -> m_s -> p -> t. The rewriter must fall back to
  // protecting 's' (full evaluation, unadorned).
  ModuleDecl m = ParseModule(R"(
    module m.
    export t(b).
    t(X) :- p(X), not s(X).
    p(X) :- e(X, Y), t(Y).
    p(X) :- leaf(X).
    s(X) :- b(X).
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("t"), "b"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE(prog->graph.stratified());
  bool neg_found = false, s_rules_present = false;
  for (const Rule& r : prog->rules) {
    for (const Literal& lit : r.body) {
      if (lit.negated) {
        neg_found = true;
        EXPECT_EQ(lit.pred->name, "s");  // unadorned: protected
      }
    }
    if (r.head.pred->name == "s") s_rules_present = true;
  }
  EXPECT_TRUE(neg_found);
  EXPECT_TRUE(s_rules_present);
}

// The paper's Fig. 3 program. Full adornment feeds p's magic through
// s_p_length, which aggregates p; the rewriter then restricts p to the
// bound source (a grouping column of s_p_length) instead of deriving p
// for every pair.
constexpr char kFig3[] = R"(
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

bool HasRuleFor(const RewrittenProgram& prog, const std::string& head) {
  for (const Rule& r : prog.rules) {
    if (r.head.pred->name == head) return true;
  }
  return false;
}

TEST_F(RewriteTest, RewriteRestrictsAggregateBodyThroughGrouping) {
  for (RewriteKind kind :
       {RewriteKind::kSupplementaryMagic, RewriteKind::kMagic}) {
    ModuleDecl m = ParseModule(kFig3);
    m.rewrite = kind;
    QueryFormDecl form{f.symbols().Intern("s_p"), "bfff"};
    auto prog = RewriteModule(m, form, &f);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    EXPECT_TRUE(prog->graph.stratified());
    bool guarded_p = false;
    for (const Rule& r : prog->rules) {
      const std::string& head = r.head.pred->name;
      EXPECT_NE(head, "p") << "unadorned p rule: " << r.ToString();
      if (head == "p@bfff" && r.body[0].pred->name == "m_p@bfff") {
        guarded_p = true;
      }
      if (head.rfind("m_", 0) == 0) {
        for (const Literal& lit : r.body) {
          EXPECT_NE(lit.pred->name.rfind("s_p_length", 0), 0u)
              << "magic rule reads the aggregate: " << r.ToString();
        }
        // The recursive p rule passes X unchanged to its first literal;
        // that magic rule, m_p@bfff(X) :- m_p@bfff(X)., derives nothing.
        EXPECT_FALSE(r.body.size() == 1 && r.body[0].pred == r.head.pred &&
                     r.body[0].args == r.head.args)
            << "tautological magic rule: " << r.ToString();
      }
    }
    EXPECT_TRUE(guarded_p) << prog->listing;
    EXPECT_NE(prog->listing.find("m_p@bfff(X) :- m_s_p_length@bff(X)."),
              std::string::npos)
        << prog->listing;
    EXPECT_NE(prog->listing.find("m_p@bfff(X) :- m_s_p@bfff(X)."),
              std::string::npos)
        << prog->listing;
    EXPECT_EQ(prog->magic_notes,
              (std::vector<std::string>{"restricted by grouping: p/4",
                                        "unadorned: (none)"}));
  }
}

TEST_F(RewriteTest, RewriteKeepsProtectionWhenSelectionCrossesBindings) {
  // The selection groups by Y only, so it compares tuples across sources:
  // restricting p to the bound X would change which tuples it keeps.
  ModuleDecl m = ParseModule(R"(
    module m.
    export s(bff).
    @aggregate_selection p(X, Y, C) (Y) min(C).
    s(X, Y, C) :- sl(X, Y, C), p(X, Y, C).
    sl(X, Y, min(<C>)) :- p(X, Y, C).
    p(X, Y, C) :- e(X, Y, C).
    p(X, Y, C) :- p(X, Z, C1), e(Z, Y, C2), C = C1 + C2.
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("s"), "bff"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE(HasRuleFor(*prog, "p")) << prog->listing;
  EXPECT_EQ(prog->magic_notes,
            std::vector<std::string>{
                "unadorned: p/3 (aggregate selection on p/3 does not group "
                "by bound column 1)"});
}

TEST_F(RewriteTest, RewriteFreesBoundAggregateResult) {
  // A bound aggregate result names no group: cnt(fb) is adorned cnt@ff,
  // and the bound count filters the answers. The magic guard never holds
  // the aggregation marker.
  ModuleDecl m = ParseModule(R"(
    module m.
    export cnt(fb).
    cnt(X, count(<Y>)) :- e(X, Y).
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("cnt"), "fb"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->answer_pred.sym->name, "cnt@ff");
  EXPECT_EQ(prog->answer_adornment, "ff");
  EXPECT_TRUE(prog->bound_positions.empty());
  EXPECT_EQ(prog->seed_pred.arity, 0u);
  EXPECT_NE(prog->listing.find("m_cnt@ff,"), std::string::npos)
      << prog->listing;

  // top(fb) reaches cnt with only its count position bound, so cnt is
  // adorned ff; e, read by the aggregate, is restricted to cnt's (empty)
  // head bindings instead of being evaluated unadorned.
  m = ParseModule(R"(
    module m.
    export top(fb).
    top(X, N) :- cnt(X, N), e(Z, W).
    cnt(X, count(<Y>)) :- e(X, Y).
    e(X, Y) :- b(X, Y).
    end_module.
  )");
  QueryFormDecl top_form{f.symbols().Intern("top"), "fb"};
  auto top = RewriteModule(m, top_form, &f);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_FALSE(HasRuleFor(*top, "e")) << top->listing;
  EXPECT_TRUE(HasRuleFor(*top, "cnt@ff")) << top->listing;
  EXPECT_EQ(top->magic_notes,
            (std::vector<std::string>{"restricted by grouping: e/2",
                                      "unadorned: (none)"}));
}

TEST_F(RewriteTest, RewriteUnstratifiedWithoutOrderedSearchFails) {
  ModuleDecl m = ParseModule(R"(
    module m.
    export win(b).
    win(X) :- move(X, Y), not win(Y).
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("win"), "b"};
  auto prog = RewriteModule(m, form, &f);
  EXPECT_FALSE(prog.ok());
}

TEST_F(RewriteTest, RewriteOrderedSearchInsertsDoneGuards) {
  ModuleDecl m = ParseModule(R"(
    module m.
    export win(b).
    @ordered_search.
    win(X) :- move(X, Y), not win(Y).
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("win"), "b"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE(prog->ordered_search);
  EXPECT_FALSE(prog->done_of.empty());
  bool guard_found = false;
  for (const Rule& r : prog->rules) {
    for (size_t i = 0; i + 1 < r.body.size(); ++i) {
      if (r.body[i].pred->name.rfind("done$", 0) == 0 &&
          r.body[i + 1].negated) {
        guard_found = true;
      }
    }
  }
  EXPECT_TRUE(guard_found);
}

TEST_F(RewriteTest, RewriteAggregateRuleGetsSingleVersion) {
  ModuleDecl m = ParseModule(R"(
    module m.
    export sl(bf).
    p(X, Y, C) :- e(X, Y, C).
    p(X, Y, C) :- p(X, Z, C1), e(Z, Y, C2), C = C1 + C2.
    sl(X, min(<C>)) :- p(X, Y, C).
    end_module.
  )");
  QueryFormDecl form{f.symbols().Intern("sl"), "bf"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  int agg_versions = 0;
  for (const auto& scc : prog->seminaive.sccs) {
    for (const auto& v : scc.versions) agg_versions += v.is_aggregate;
    for (const auto& v : scc.once) agg_versions += v.is_aggregate;
  }
  EXPECT_EQ(agg_versions, 1);
}

TEST_F(RewriteTest, FactoringProducesContextRules) {
  ModuleDecl m = ParseModule(kAncestor);
  m.rewrite = RewriteKind::kFactoring;
  QueryFormDecl form{f.symbols().Intern("anc"), "bf"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  // Shape: a seed bridge ctx :- m; a context-propagation rule
  // ctx(Z) :- ctx(X), par(X, Z); and the answer rule
  // anc@bf(Q, Y) :- m(Q), ctx(X), par(X, Y). No anc@bf in any body: the
  // quadratic answer join is gone.
  bool bridge = false, propagation = false, answer = false;
  for (const Rule& r : prog->rules) {
    const std::string& head = r.head.pred->name;
    if (head == "ctx_anc@bf" && r.body.size() == 1 &&
        r.body[0].pred->name == "m_anc@bf") {
      bridge = true;
    }
    if (head == "ctx_anc@bf" && r.body.size() == 2 &&
        r.body[0].pred->name == "ctx_anc@bf") {
      propagation = true;
    }
    if (head == "anc@bf") {
      answer = true;
      for (const Literal& lit : r.body) {
        EXPECT_NE(lit.pred->name, "anc@bf") << "answer join not eliminated";
      }
    }
  }
  EXPECT_TRUE(bridge);
  EXPECT_TRUE(propagation);
  EXPECT_TRUE(answer);
}

TEST_F(RewriteTest, FactoringRejectsHelpers) {
  ModuleDecl m = ParseModule(R"(
    module m.
    export p(bf).
    p(X, Y) :- helper(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    helper(X, Y) :- e(X, Y).
    end_module.
  )");
  m.rewrite = RewriteKind::kFactoring;
  QueryFormDecl form{f.symbols().Intern("p"), "bf"};
  auto prog = RewriteModule(m, form, &f);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kUnsupported);
}

TEST_F(RewriteTest, RewriteMissingExportFails) {
  ModuleDecl m = ParseModule(kAncestor);
  QueryFormDecl form{f.symbols().Intern("nosuch"), "bf"};
  EXPECT_FALSE(RewriteModule(m, form, &f).ok());
}

}  // namespace
}  // namespace coral
