// Tests for the static semantic analyzer (src/analysis): one test per
// diagnostic code, the load-time wiring (module refusal, strict mode,
// Database::last_diagnostics), and a regression check that every shipped
// example program lints clean.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"
#include "src/core/database.h"
#include "src/lang/parser.h"

namespace coral {
namespace {

class AnalysisTest : public ::testing::Test {
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

// --- CRL101: unsafe head variable -----------------------------------------

TEST_F(AnalysisTest, UnsafeHeadVariableIsError) {
  DiagnosticList dl = Analyze(
      "module bad.\n"
      "export p(ff).\n"
      "p(X, Y) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kUnsafeHeadVar);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("'Y'"), std::string::npos);
  EXPECT_EQ(d->pred, "p/2");
  EXPECT_EQ(d->loc.line, 3);
}

TEST_F(AnalysisTest, UnsafeRuleRejectedAtModuleLoad) {
  // The acceptance case: loading must fail, naming the rule's predicate,
  // the unbound variable and the source line.
  auto res = db_.Consult(
      "module bad.\n"
      "export p(ff).\n"
      "p(X, Y) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  ASSERT_FALSE(res.ok());
  const std::string msg = res.status().ToString();
  EXPECT_NE(msg.find("CRL101"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'Y'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("p/2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  // The refused module must not be registered.
  EXPECT_FALSE(db_.modules()->Exports(
      PredRef{db_.factory()->symbols().Intern("p"), 2}));
}

TEST_F(AnalysisTest, ExportAdornmentMakesHeadVariableSafe) {
  // Range restriction must be adornment-aware: under status(bf) the first
  // argument is bound by the caller, so the negation is safe (this exact
  // shape is exercised by working programs in the core tests).
  DiagnosticList dl = Analyze(
      "module people.\n"
      "export status(bf).\n"
      "status(X, rich) :- not broke(X).\n"
      "end_module.\n");
  EXPECT_TRUE(dl.empty()) << dl.ToString();
}

// --- CRL102: unbound variable in negation ---------------------------------

TEST_F(AnalysisTest, UnboundNegationVariableIsError) {
  DiagnosticList dl = Analyze(
      "module people.\n"
      "export status(ff).\n"
      "status(X, rich) :- not broke(X).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kUnboundNegationVar);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("'X'"), std::string::npos);
}

TEST_F(AnalysisTest, AnonymousVariableInNegationIsExempt) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export empty(f).\n"
      "empty(yes) :- not q(_).\n"
      "q(1).\n"
      "end_module.\n");
  EXPECT_EQ(Find(dl, diag::kUnboundNegationVar), nullptr)
      << dl.ToString();
}

// --- CRL103 / CRL104: builtin and comparison binding ----------------------

TEST_F(AnalysisTest, UnboundComparisonVariableIsError) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X), X < Limit.\n"
      "q(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kUnboundBuiltinArg);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("'Limit'"), std::string::npos);
}

TEST_F(AnalysisTest, ComparisonBoundLaterIsWarning) {
  // Y is bound by a later goal: reordering (or @reorder_joins) fixes it,
  // so this is a warning, not an error.
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- X < Y, q(X), r(Y).\n"
      "q(1).\n"
      "r(2).\n"
      "end_module.\n");
  EXPECT_EQ(Find(dl, diag::kUnboundBuiltinArg), nullptr) << dl.ToString();
  const Diagnostic* d = Find(dl, diag::kBoundTooLate);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
}

TEST_F(AnalysisTest, ArithmeticInputMustBeBound) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- X = Base + 1.\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kUnboundBuiltinArg);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_NE(d->message.find("'Base'"), std::string::npos);
}

// --- CRL105: builtin binding mode -----------------------------------------

TEST_F(AnalysisTest, BuiltinWithNoUsableModeIsWarning) {
  // member(-,+) needs its second argument bound; nothing ever binds L.
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X), member(X, L).\n"
      "q(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kBuiltinMode);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("member"), std::string::npos);
}

// --- CRL110: arity conflicts ----------------------------------------------

TEST_F(AnalysisTest, ConflictingAritiesAreWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- edge(X).\n"
      "edge(1).\n"
      "edge(1, 2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kArityConflict);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_NE(d->message.find("edge"), std::string::npos);
  EXPECT_NE(d->message.find("1, 2"), std::string::npos);
}

// --- CRL111 / CRL112: export validity -------------------------------------

TEST_F(AnalysisTest, ExportOfUndefinedPredicateIsError) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export ghost(f).\n"
      "p(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kExportUndefined);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->loc.line, 2);
}

TEST_F(AnalysisTest, ExportAdornmentArityMismatchIsError) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(bff).\n"
      "p(X, Y) :- q(X, Y).\n"
      "q(1, 2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kExportArityMismatch);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

// --- CRL120 / CRL121: dead code -------------------------------------------

TEST_F(AnalysisTest, DeadPredicateIsWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X).\n"
      "q(1).\n"
      "orphan(X) :- q(X).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kDeadPredicate);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->pred, "orphan/1");
  EXPECT_EQ(d->loc.line, 5);
}

TEST_F(AnalysisTest, SingletonVariableIsWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X, Unused).\n"
      "q(1, 2).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kSingletonVar);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("'Unused'"), std::string::npos);
}

TEST_F(AnalysisTest, UnderscoreSilencesSingletonWarning) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X, _).\n"
      "q(1, 2).\n"
      "end_module.\n");
  EXPECT_TRUE(dl.empty()) << dl.ToString();
}

TEST_F(AnalysisTest, VariablesInFactsAreExempt) {
  // A variable in a fact is universally quantified (paper §3.1), not a
  // singleton typo and not unsafe.
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export likes(ff).\n"
      "likes(X, ice_cream).\n"
      "end_module.\n");
  EXPECT_TRUE(dl.empty()) << dl.ToString();
}

// --- CRL130-CRL132: annotations -------------------------------------------

TEST_F(AnalysisTest, ContradictoryAnnotationsAreErrors) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(b).\n"
      "@ordered_search.\n"
      "@no_rewriting.\n"
      "p(X) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kAnnotationConflict);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);

  // And the combination refuses to load.
  auto res = db_.Consult(
      "module m2.\n"
      "export p(b).\n"
      "@ordered_search.\n"
      "@no_rewriting.\n"
      "p(X) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  EXPECT_FALSE(res.ok());
}

TEST_F(AnalysisTest, OverriddenAnnotationIsWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "@magic.\n"
      "@no_rewriting.\n"
      "p(X) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kAnnotationIgnored);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->loc.line, 3);  // points at the overridden @magic
}

TEST_F(AnalysisTest, AnnotationTargetingUnknownPredicateIsWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(f).\n"
      "@multiset ghost.\n"
      "p(X) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kAnnotationTarget);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_NE(d->message.find("ghost"), std::string::npos);
}

// --- CRL130/131/133: @parallel --------------------------------------------

TEST_F(AnalysisTest, ValidParallelAnnotationIsClean) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(ff).\n"
      "@parallel(4).\n"
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- e(X, Z), p(Z, Y).\n"
      "end_module.\n");
  EXPECT_TRUE(dl.empty()) << dl.ToString();
  // Both with an explicit count and without.
  auto res = db_.Consult(
      "module m2.\nexport p(ff).\n@parallel.\n"
      "p(X, Y) :- e(X, Y).\nend_module.\n");
  EXPECT_TRUE(res.ok()) << res.status().ToString();
}

TEST_F(AnalysisTest, ParallelConflictsWithPipelining) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(ff).\n"
      "@pipelining.\n"
      "@parallel(2).\n"
      "p(X, Y) :- e(X, Y).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kAnnotationConflict);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kError);

  auto res = db_.Consult(
      "module m2.\nexport p(ff).\n@pipelining.\n@parallel(2).\n"
      "p(X, Y) :- e(X, Y).\nend_module.\n");
  EXPECT_FALSE(res.ok());
}

TEST_F(AnalysisTest, ParallelThreadCountOutOfRangeIsError) {
  for (const char* count : {"0", "65", "9999", "-1"}) {
    DiagnosticList dl = Analyze(
        "module m.\n"
        "export p(ff).\n"
        "@parallel(" + std::string(count) + ").\n"
        "p(X, Y) :- e(X, Y).\n"
        "end_module.\n");
    const Diagnostic* d = Find(dl, diag::kBadParallelThreads);
    ASSERT_NE(d, nullptr) << "@parallel(" << count << "): "
                          << dl.ToString();
    EXPECT_EQ(d->severity, DiagSeverity::kError);
  }
}

TEST_F(AnalysisTest, ParallelOnSequentialOnlyStrategyIsWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(bf).\n"
      "@ordered_search.\n"
      "@parallel(4).\n"
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- e(X, Z), p(Z, Y).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kAnnotationIgnored);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("sequential"), std::string::npos);
}

TEST_F(AnalysisTest, ProfileOnPipelinedModuleIsWarned) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(ff).\n"
      "@pipelining.\n"
      "@profile.\n"
      "p(X, Y) :- e(X, Y).\n"
      "end_module.\n");
  const Diagnostic* d = Find(dl, diag::kProfilePipelined);
  ASSERT_NE(d, nullptr) << dl.ToString();
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(d->loc.line, 4);  // points at @profile
  EXPECT_NE(d->message.find("iteration statistics"), std::string::npos);
}

TEST_F(AnalysisTest, ProfileOnMaterializedModuleIsClean) {
  DiagnosticList dl = Analyze(
      "module m.\n"
      "export p(ff).\n"
      "@profile.\n"
      "p(X, Y) :- e(X, Y).\n"
      "end_module.\n");
  EXPECT_EQ(Find(dl, diag::kProfilePipelined), nullptr) << dl.ToString();
}

// --- CRL140: stratification -----------------------------------------------

TEST_F(AnalysisTest, UnstratifiedModuleWarnsAtLoadErrorsAtQuery) {
  auto res = db_.Consult(
      "move(1, 2). move(2, 1).\n"
      "module game.\n"
      "export win(b).\n"
      "win(X) :- move(X, Y), not win(Y).\n"
      "end_module.\n");
  // Loading succeeds with a warning: magic rewriting can sometimes
  // isolate the negation, so the rewriter has the final say.
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_NE(Find(db_.last_diagnostics(), diag::kNotStratified), nullptr)
      << db_.last_diagnostics().ToString();
  // The query-time error carries the same diagnostic code.
  auto q = db_.EvalQuery("win(1)");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find(diag::kNotStratified),
            std::string::npos)
      << q.status().ToString();
}

// --- strict mode and diagnostics surfacing --------------------------------

TEST_F(AnalysisTest, WarningsAccumulateOnDatabase) {
  auto res = db_.Consult(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X, Unused).\n"
      "q(1, 2).\n"
      "end_module.\n");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(db_.last_diagnostics().warning_count(), 1u);
  EXPECT_TRUE(db_.last_diagnostics().Has(diag::kSingletonVar));
}

TEST_F(AnalysisTest, StrictModePromotesWarningsToErrors) {
  db_.set_strict(true);
  auto res = db_.Consult(
      "module m.\n"
      "export p(f).\n"
      "p(X) :- q(X, Unused).\n"
      "q(1, 2).\n"
      "end_module.\n");
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().ToString().find(diag::kSingletonVar),
            std::string::npos);
}

TEST_F(AnalysisTest, RejectedModuleKeepsPreviousVersion) {
  ASSERT_TRUE(db_.Consult("module m.\nexport p(f).\np(1).\nend_module.\n")
                  .ok());
  auto res = db_.Consult(
      "module m.\n"
      "export p(ff).\n"
      "p(X, Y) :- q(X).\n"
      "q(1).\n"
      "end_module.\n");
  ASSERT_FALSE(res.ok());
  // The original export is still answerable.
  auto q = db_.EvalQuery("p(X)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->rows.size(), 1u);
}

// --- shipped examples must lint clean -------------------------------------

TEST_F(AnalysisTest, ExampleProgramsLintClean) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(CORAL_SOURCE_DIR) / "examples" / "programs";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  size_t checked = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".crl") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();
    DiagnosticList dl = Analyze(buf.str());
    EXPECT_TRUE(dl.empty())
        << entry.path() << ":\n" << dl.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace coral
