// Unit tests for the language front end: lexer, parser, AST printing.

#include <gtest/gtest.h>

#include <string>

#include "src/lang/lexer.h"
#include "src/lang/parser.h"

namespace coral {
namespace {

class LangTest : public ::testing::Test {
 protected:
  Program MustParse(const std::string& src) {
    Parser p(src, &f);
    auto result = p.ParseProgram();
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << src;
    return result.ok() ? std::move(result).value() : Program{};
  }
  Status ParseError(const std::string& src) {
    Parser p(src, &f);
    auto result = p.ParseProgram();
    EXPECT_FALSE(result.ok()) << "expected failure for: " << src;
    return result.ok() ? Status::OK() : result.status();
  }

  TermFactory f;
};

TEST_F(LangTest, LexerBasics) {
  Lexer lex("path(X, 1) :- edge(X, 2.5), \"str\" % comment\n .");
  auto toks = lex.Tokenize();
  ASSERT_TRUE(toks.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kIdent);
  EXPECT_EQ(kinds.back(), TokenKind::kEof);
  // Comment swallowed; string recognized.
  bool has_string = false;
  for (const Token& t : *toks) has_string |= t.kind == TokenKind::kString;
  EXPECT_TRUE(has_string);
}

TEST_F(LangTest, LexerDotVersusDecimal) {
  Lexer lex("p(1.5). q(2).");
  auto toks = lex.Tokenize();
  ASSERT_TRUE(toks.ok());
  int doubles = 0, ints = 0, dots = 0;
  for (const Token& t : *toks) {
    if (t.kind == TokenKind::kDouble) ++doubles;
    if (t.kind == TokenKind::kInteger) ++ints;
    if (t.kind == TokenKind::kDot) ++dots;
  }
  EXPECT_EQ(doubles, 1);
  EXPECT_EQ(ints, 1);
  EXPECT_EQ(dots, 2);
}

TEST_F(LangTest, LexerOperators) {
  Lexer lex("X = Y, X \\= Z, A < B, A =< B, A >= B, A > B, C != D");
  auto toks = lex.Tokenize();
  ASSERT_TRUE(toks.ok());
  int neq = 0;
  for (const Token& t : *toks) {
    if (t.kind == TokenKind::kNotEquals) ++neq;
  }
  EXPECT_EQ(neq, 2);
}

TEST_F(LangTest, LexerErrors) {
  EXPECT_FALSE(Lexer("\"unterminated").Tokenize().ok());
  EXPECT_FALSE(Lexer("p :~ q").Tokenize().ok());
  EXPECT_FALSE(Lexer("p # q").Tokenize().ok());
}

TEST_F(LangTest, ParseFact) {
  Program prog = MustParse("edge(1, 2).\nedge(a, \"b\").\n");
  ASSERT_EQ(prog.top_facts.size(), 2u);
  EXPECT_EQ(prog.top_facts[0].ToString(), "edge(1,2).");
  EXPECT_EQ(prog.top_facts[1].ToString(), "edge(a,\"b\").");
}

TEST_F(LangTest, ParseNonGroundFact) {
  Program prog = MustParse("likes(X, icecream).");
  ASSERT_EQ(prog.top_facts.size(), 1u);
  EXPECT_EQ(prog.top_facts[0].var_count, 1u);
  EXPECT_EQ(prog.top_facts[0].head.args[0]->kind(), ArgKind::kVariable);
}

TEST_F(LangTest, ParseModuleWithRules) {
  Program prog = MustParse(R"(
    module ancestors.
    export anc(bf).
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  ASSERT_EQ(prog.modules.size(), 1u);
  const ModuleDecl& m = prog.modules[0];
  EXPECT_EQ(m.name, "ancestors");
  ASSERT_EQ(m.exports.size(), 1u);
  EXPECT_EQ(m.exports[0].pred->name, "anc");
  EXPECT_EQ(m.exports[0].adornment, "bf");
  ASSERT_EQ(m.rules.size(), 2u);
  EXPECT_EQ(m.rules[1].ToString(), "anc(X,Y) :- par(X,Z), anc(Z,Y).");
  EXPECT_EQ(m.rules[1].var_count, 3u);
}

TEST_F(LangTest, ParseMultipleQueryForms) {
  Program prog = MustParse(R"(
    module m. export p(bf, ff). p(X,X) :- q(X). end_module.
  )");
  ASSERT_EQ(prog.modules[0].exports.size(), 2u);
  EXPECT_EQ(prog.modules[0].exports[1].adornment, "ff");
}

TEST_F(LangTest, VariableScopingPerClause) {
  Program prog = MustParse(R"(
    module m. export p(ff).
    p(X, Y) :- q(X, Y).
    p(Y, X) :- r(X, Y).
    end_module.
  )");
  const auto& r0 = prog.modules[0].rules[0];
  const auto& r1 = prog.modules[0].rules[1];
  // In rule 1, Y occurs first so it gets slot 0.
  EXPECT_EQ(ArgCast<Variable>(r0.head.args[0])->slot(), 0u);
  EXPECT_EQ(ArgCast<Variable>(r1.head.args[0])->slot(), 0u);
  EXPECT_EQ(r1.var_names[0], "Y");
}

TEST_F(LangTest, AnonymousVariablesAreDistinct) {
  Program prog = MustParse("module m. p(X) :- q(X, _, _). end_module.");
  const Rule& r = prog.modules[0].rules[0];
  EXPECT_EQ(r.var_count, 3u);
  EXPECT_NE(ArgCast<Variable>(r.body[0].args[1])->slot(),
            ArgCast<Variable>(r.body[0].args[2])->slot());
}

TEST_F(LangTest, ParseNegationAndComparisons) {
  Program prog = MustParse(R"(
    module m. export p(f).
    p(X) :- q(X), not r(X), X < 10, X \= 3.
    end_module.
  )");
  const Rule& r = prog.modules[0].rules[0];
  ASSERT_EQ(r.body.size(), 4u);
  EXPECT_FALSE(r.body[0].negated);
  EXPECT_TRUE(r.body[1].negated);
  EXPECT_EQ(r.body[2].pred->name, "<");
  EXPECT_EQ(r.body[3].pred->name, "\\=");
  EXPECT_EQ(r.body[2].ToString(), "X < 10");
}

TEST_F(LangTest, ParseArithmeticExpressions) {
  Program prog = MustParse(R"(
    module m. p(X, C1) :- q(X, C), C1 = C + 2 * X - 1. end_module.
  )");
  const Rule& r = prog.modules[0].rules[0];
  const Literal& assign = r.body[1];
  EXPECT_EQ(assign.pred->name, "=");
  // Precedence: (C + (2*X)) - 1.
  EXPECT_EQ(assign.args[1]->ToString(), "'-'('+'(C,'*'(2,X)),1)");
}

// A literal that starts with name(args) is built from the args directly;
// when an operator follows, the application becomes the left operand of
// the expression without re-parsing it (which would renumber '_').
TEST_F(LangTest, ParseApplicationFollowedByOperator) {
  Program prog = MustParse(R"(
    module m.
    p(Y) :- f(X) = Y, q(X).
    p(N) :- f(_) = _, n(N).
    p(X) :- q(X), f(X) + 1 > 2.
    p(X) :- q(X), g(X) * 2 - 1 =< X.
    end_module.
  )");
  const auto& rules = prog.modules[0].rules;
  ASSERT_EQ(rules.size(), 4u);

  const Literal& eq = rules[0].body[0];
  EXPECT_EQ(eq.pred->name, "=");
  EXPECT_EQ(eq.ToString(), "f(X) = Y");
  EXPECT_EQ(rules[0].var_count, 2u);
  EXPECT_EQ(rules[0].var_names[1], "X");  // head Y took slot 0

  const Literal& anon = rules[1].body[0];
  EXPECT_EQ(anon.pred->name, "=");
  ASSERT_EQ(anon.args[0]->kind(), ArgKind::kAtomOrFunctor);
  const auto* fa = ArgCast<FunctorArg>(anon.args[0]);
  ASSERT_EQ(fa->arity(), 1u);
  // Head N is slot 0; each '_' gets its own slot, in textual order.
  EXPECT_EQ(ArgCast<Variable>(fa->arg(0))->slot(), 1u);
  EXPECT_EQ(ArgCast<Variable>(anon.args[1])->slot(), 2u);
  EXPECT_EQ(rules[1].var_count, 3u);

  const Literal& gt = rules[2].body[1];
  EXPECT_EQ(gt.pred->name, ">");
  EXPECT_EQ(gt.args[0]->ToString(), "'+'(f(X),1)");
  EXPECT_EQ(gt.args[1]->ToString(), "2");

  const Literal& le = rules[3].body[1];
  EXPECT_EQ(le.pred->name, "=<");
  EXPECT_EQ(le.args[0]->ToString(), "'-'('*'(g(X),2),1)");

  // The plain application stays a predicate literal.
  const Literal& q = rules[2].body[0];
  EXPECT_EQ(q.pred->name, "q");
  ASSERT_EQ(q.args.size(), 1u);
}

TEST_F(LangTest, ParsedFactsAddNoFunctorTerms) {
  // The literal takes name(args) directly: a parsed ground fact leaves
  // no hash-consed edge(...) functor behind.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "edge(" + std::to_string(i) + ", n" + std::to_string(i) + "). ";
  }
  size_t before = f.hashcons_size();
  Program prog = MustParse(text);
  EXPECT_EQ(prog.top_facts.size(), 200u);
  EXPECT_EQ(f.hashcons_size(), before);
}

TEST_F(LangTest, ParseListsAndFunctors) {
  Program prog = MustParse(
      "module m. p(P1) :- append([edge(X, Y)], P, P1). end_module.");
  const Literal& lit = prog.modules[0].rules[0].body[0];
  EXPECT_EQ(lit.pred->name, "append");
  EXPECT_EQ(lit.args[0]->ToString(), "[edge(X,Y)]");
  Program prog2 = MustParse("p([1, 2 | T]).");
  EXPECT_EQ(prog2.top_facts[0].head.args[0]->ToString(), "[1,2|T]");
}

TEST_F(LangTest, ParseAggregationHead) {
  // The paper's Fig. 3: s_p_length(X,Y,min(<C>)) :- p(X,Y,P,C).
  Program prog = MustParse(R"(
    module m.
    s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
    end_module.
  )");
  const Rule& r = prog.modules[0].rules[0];
  const Arg* agg = r.head.args[2];
  ASSERT_EQ(agg->kind(), ArgKind::kAtomOrFunctor);
  const auto* fn = ArgCast<FunctorArg>(agg);
  EXPECT_EQ(fn->name(), "min");
  EXPECT_EQ(fn->arg(0)->ToString(), "'$group'(C)");
}

TEST_F(LangTest, ParseSetGroupingHead) {
  Program prog =
      MustParse("module m. children(X, <Y>) :- par(X, Y). end_module.");
  const Arg* grouped = prog.modules[0].rules[0].head.args[1];
  EXPECT_EQ(grouped->ToString(), "'$group'(Y)");
}

TEST_F(LangTest, ParseBigIntegerLiteral) {
  Program prog = MustParse("big(123456789012345678901234567890).");
  EXPECT_EQ(prog.top_facts[0].head.args[0]->kind(), ArgKind::kBigInt);
}

TEST_F(LangTest, ParseNegativeNumbers) {
  Program prog = MustParse("p(-5, -2.5).");
  EXPECT_EQ(prog.top_facts[0].head.args[0]->ToString(), "-5");
  EXPECT_EQ(prog.top_facts[0].head.args[1]->ToString(), "-2.5");
}

TEST_F(LangTest, ParseQuery) {
  Program prog = MustParse("?- path(1, X), X < 5.");
  ASSERT_EQ(prog.queries.size(), 1u);
  EXPECT_EQ(prog.queries[0].body.size(), 2u);
  EXPECT_EQ(prog.queries[0].ToString(), "?- path(1,X), X < 5.");
}

TEST_F(LangTest, ParseModuleAnnotations) {
  Program prog = MustParse(R"(
    module m.
    export p(bf).
    @pipelining.
    @save_module.
    @lazy_eval.
    @ordered_search.
    @psn.
    @no_rewriting.
    @multiset p.
    p(X, Y) :- e(X, Y).
    end_module.
  )");
  const ModuleDecl& m = prog.modules[0];
  EXPECT_EQ(m.eval_mode, EvalMode::kPipelined);
  EXPECT_TRUE(m.save_module);
  EXPECT_TRUE(m.lazy_eval);
  EXPECT_TRUE(m.ordered_search);
  EXPECT_EQ(m.fixpoint, FixpointKind::kPredicateSemiNaive);
  EXPECT_EQ(m.rewrite, RewriteKind::kNone);
  ASSERT_EQ(m.multiset_preds.size(), 1u);
  EXPECT_EQ(m.multiset_preds[0]->name, "p");
}

TEST_F(LangTest, ParseAggregateSelectionAnnotation) {
  // Verbatim from the paper's Fig. 3 discussion.
  Program prog = MustParse(R"(
    module sp.
    @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
    @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
    p(X, Y) :- e(X, Y).
    end_module.
  )");
  ASSERT_EQ(prog.modules[0].agg_selections.size(), 2u);
  const AggSelDecl& d0 = prog.modules[0].agg_selections[0];
  EXPECT_EQ(d0.pred->name, "p");
  EXPECT_EQ(d0.kind, AggregateSelection::Kind::kMin);
  EXPECT_EQ(d0.pattern.size(), 4u);
  EXPECT_EQ(d0.group_args.size(), 2u);
  EXPECT_EQ(d0.var_count, 4u);
  const AggSelDecl& d1 = prog.modules[0].agg_selections[1];
  EXPECT_EQ(d1.kind, AggregateSelection::Kind::kAny);
  EXPECT_EQ(d1.group_args.size(), 3u);
}

TEST_F(LangTest, ParseMakeIndexAnnotations) {
  // Argument-form and the paper's pattern-form example (§5.5.1).
  Program prog = MustParse(R"(
    @make_index edge(X, Y) (X).
    @make_index emp(Name, addr(Street, City)) (Name, City).
  )");
  ASSERT_EQ(prog.top_indexes.size(), 2u);
  EXPECT_TRUE(prog.top_indexes[0].argument_form);
  EXPECT_EQ(prog.top_indexes[0].cols, std::vector<uint32_t>{0});
  EXPECT_FALSE(prog.top_indexes[1].argument_form);
  EXPECT_EQ(prog.top_indexes[1].key_slots.size(), 2u);
}

TEST_F(LangTest, ParseErrors) {
  EXPECT_FALSE(ParseError("p(X) :- q(X).").ok());  // rule outside module
  EXPECT_FALSE(ParseError("module m. p(X).").ok());  // missing end_module
  EXPECT_FALSE(  // bad adornment
      ParseError("module m. export p(bx). end_module.").ok());
  EXPECT_FALSE(  // unknown annotation
      ParseError("module m. @frobnicate. end_module.").ok());
  EXPECT_FALSE(ParseError("p(1, .").ok());     // malformed term
  EXPECT_FALSE(ParseError("not p(1).").ok());  // negated fact head
  EXPECT_FALSE(  // non-variable index key
      ParseError("@make_index e(X,Y)(f(X)).").ok());
  EXPECT_FALSE(  // module-only annotation at top level
      ParseError("@pipelining.").ok());
}

TEST_F(LangTest, ParseTermHelper) {
  uint32_t vc = 0;
  auto t = Parser::ParseTerm("f(X, [1, 2], \"s\")", &f, &vc);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->ToString(), "f(X,[1,2],\"s\")");
  EXPECT_EQ(vc, 1u);
  EXPECT_FALSE(Parser::ParseTerm("f(1) extra", &f, &vc).ok());
}

TEST_F(LangTest, ZeroArityPredicates) {
  Program prog = MustParse(R"(
    module m.
    export alarm(), ok(b).
    alarm() :- bad(X).
    ok(X) :- not alarm(), good(X).
    end_module.
    ?- alarm().
  )");
  const ModuleDecl& m = prog.modules[0];
  ASSERT_EQ(m.exports.size(), 2u);
  EXPECT_EQ(m.exports[0].adornment, "");
  EXPECT_EQ(m.rules[0].head.args.size(), 0u);
  EXPECT_TRUE(m.rules[1].body[0].negated);
  EXPECT_EQ(prog.queries[0].body[0].args.size(), 0u);
}

TEST_F(LangTest, MultiPredicateExport) {
  Program prog = MustParse(R"(
    module m.
    export p(bf, ff), q(b), r().
    p(X, X) :- s(X). q(X) :- s(X). r() :- s(_).
    end_module.
  )");
  ASSERT_EQ(prog.modules[0].exports.size(), 4u);
  EXPECT_EQ(prog.modules[0].exports[0].pred->name, "p");
  EXPECT_EQ(prog.modules[0].exports[2].pred->name, "q");
  EXPECT_EQ(prog.modules[0].exports[3].adornment, "");
}

TEST_F(LangTest, NewStrategyAnnotations) {
  Program prog = MustParse(R"(
    module m.
    export p(bf).
    @factoring.
    @reorder_joins.
    @explain.
    @eager.
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    end_module.
  )");
  const ModuleDecl& m = prog.modules[0];
  EXPECT_EQ(m.rewrite, RewriteKind::kFactoring);
  EXPECT_TRUE(m.reorder_joins);
  EXPECT_TRUE(m.explain);
  EXPECT_TRUE(m.eager);
}

TEST_F(LangTest, ShortestPathProgramFromFigure3Parses) {
  // The full program of Fig. 3 (with arithmetic spelled out).
  Program prog = MustParse(R"(
    module s_p.
    export s_p(bfff).
    @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
    s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
    s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
    p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                       append([edge(Z, Y)], P, P1), C1 = C + EC.
    p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
    end_module.
  )");
  ASSERT_EQ(prog.modules.size(), 1u);
  EXPECT_EQ(prog.modules[0].rules.size(), 4u);
  EXPECT_EQ(prog.modules[0].agg_selections.size(), 1u);
}

}  // namespace
}  // namespace coral
