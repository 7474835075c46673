// Tests for the join bytecode VM (docs/VM.md): golden disassembly of the
// canonical recursive programs, hand-stepped opcode counters, the
// interpreter-fallback paths (aggregates, ordered search, negation,
// @no_vm, set_use_vm, run-time aborts), and probe-to-scan degradation when a planned
// argument index is absent.

#include <gtest/gtest.h>

#include <string>

#include "src/core/database.h"
#include "src/vm/bytecode.h"

namespace coral {
namespace {

uint64_t Count(const std::atomic<uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

/// The "--- join bytecode ---" section of a form's plan listing.
std::string BytecodeSection(Database* db, const std::string& module,
                            const std::string& pred,
                            const std::string& adornment) {
  auto plan = db->PlanListing(module, pred, adornment);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return "";
  const std::string marker = "--- join bytecode ---\n";
  size_t pos = plan->find(marker);
  EXPECT_NE(pos, std::string::npos) << *plan;
  if (pos == std::string::npos) return "";
  return plan->substr(pos + marker.size());
}

// ---------------------------------------------------------------------
// Golden disassembly
// ---------------------------------------------------------------------

TEST(VmDisassemblyGolden, TransitiveClosure) {
  Database db;
  auto st = db.Consult(R"(
    module tc.
    export path(bf).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    end_module.
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  // No m_path@bf(X) :- m_path@bf(X). magic rule: its body is its head.
  EXPECT_EQ(BytecodeSection(&db, "tc", "path", "bf"),
            "scc 0 version 0 delta=0\n"
            "coralbc 1\n"
            "rule 0 head path@bf/2 regs 2\n"
            "  SCAN_DELTA lit=0 rel=m_path@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=edge/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT path@bf/2\n"
            "scc 0 version 1 delta=0\n"
            "coralbc 1\n"
            "rule 1 head path@bf/2 regs 3\n"
            "  SCAN_DELTA lit=0 rel=m_path@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=path@bf/2 window=old\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROBE_INDEX lit=2 rel=edge/2 window=full\n"
            "  UNIFY_ARG col=0 check r2\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT path@bf/2\n"
            "scc 0 version 2 delta=1\n"
            "coralbc 1\n"
            "rule 1 head path@bf/2 regs 3\n"
            "  SCAN_FULL lit=0 rel=m_path@bf/1 window=full\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=path@bf/2 window=delta\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROBE_INDEX lit=2 rel=edge/2 window=full\n"
            "  UNIFY_ARG col=0 check r2\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT path@bf/2\n");
}

TEST(VmDisassemblyGolden, SameGeneration) {
  Database db;
  auto st = db.Consult(R"(
    module sg.
    export sg(bf).
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    end_module.
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  // Supplementary magic: the supplementary relation carries (X, U) across
  // the recursive call; the recursive version probes sg by its delta.
  EXPECT_EQ(BytecodeSection(&db, "sg", "sg", "bf"),
            "scc 0 version 0 delta=0\n"
            "coralbc 1\n"
            "rule 1 head sup@2_1_sg@bf/2 regs 4\n"
            "  SCAN_DELTA lit=0 rel=m_sg@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=up/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROJECT r0 r2\n"
            "  INSERT sup@2_1_sg@bf/2\n"
            "scc 0 version 1 delta=0\n"
            "coralbc 1\n"
            "rule 2 head m_sg@bf/1 regs 4\n"
            "  SCAN_DELTA lit=0 rel=sup@2_1_sg@bf/2 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROJECT r2\n"
            "  INSERT m_sg@bf/1\n"
            "scc 1 version 0 delta=0\n"
            "coralbc 1\n"
            "rule 0 head sg@bf/2 regs 2\n"
            "  SCAN_DELTA lit=0 rel=m_sg@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=flat/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT sg@bf/2\n"
            "scc 1 version 1 delta=1\n"
            "coralbc 1\n"
            "rule 3 head sg@bf/2 regs 4\n"
            "  SCAN_FULL lit=0 rel=sup@2_1_sg@bf/2 window=full\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROBE_INDEX lit=1 rel=sg@bf/2 window=delta\n"
            "  UNIFY_ARG col=0 check r2\n"
            "  UNIFY_ARG col=1 load r3\n"
            "  PROBE_INDEX lit=2 rel=down/2 window=full\n"
            "  UNIFY_ARG col=0 check r3\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT sg@bf/2\n");
}

TEST(VmDisassemblyGolden, MagicAncestor) {
  Database db;
  auto st = db.Consult(R"(
    module m.
    export anc(bf).
    @magic.
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(BytecodeSection(&db, "m", "anc", "bf"),
            "scc 0 version 0 delta=0\n"
            "coralbc 1\n"
            "rule 1 head m_anc@bf/1 regs 3\n"
            "  SCAN_DELTA lit=0 rel=m_anc@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=par/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROJECT r2\n"
            "  INSERT m_anc@bf/1\n"
            "scc 1 version 0 delta=0\n"
            "coralbc 1\n"
            "rule 0 head anc@bf/2 regs 2\n"
            "  SCAN_DELTA lit=0 rel=m_anc@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=par/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT anc@bf/2\n"
            "scc 1 version 1 delta=0\n"
            "coralbc 1\n"
            "rule 2 head anc@bf/2 regs 3\n"
            "  SCAN_DELTA lit=0 rel=m_anc@bf/1 window=delta\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=par/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROBE_INDEX lit=2 rel=anc@bf/2 window=old\n"
            "  UNIFY_ARG col=0 check r2\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT anc@bf/2\n"
            "scc 1 version 2 delta=2\n"
            "coralbc 1\n"
            "rule 2 head anc@bf/2 regs 3\n"
            "  SCAN_FULL lit=0 rel=m_anc@bf/1 window=full\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  PROBE_INDEX lit=1 rel=par/2 window=full\n"
            "  UNIFY_ARG col=0 check r0\n"
            "  UNIFY_ARG col=1 load r2\n"
            "  PROBE_INDEX lit=2 rel=anc@bf/2 window=delta\n"
            "  UNIFY_ARG col=0 check r2\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT anc@bf/2\n");
}

TEST(VmDisassemblyGolden, ConstantMatchAndBuiltin) {
  Database db;
  auto st = db.Consult(R"(
    module ct.
    export p(f).
    @no_rewriting.
    p(X) :- e(X, 5).
    end_module.
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  // The constant pool prints before the code; the bound column makes the
  // scan a probe even though only a constant (no register) is the key.
  EXPECT_EQ(BytecodeSection(&db, "ct", "p", "f"),
            "scc 0 once 0 delta=-1\n"
            "coralbc 1\n"
            "rule 0 head p/1 regs 1\n"
            "  const c0 = 5\n"
            "  PROBE_INDEX lit=0 rel=e/2 window=full\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  UNIFY_ARG col=1 match c0\n"
            "  PROJECT r0\n"
            "  INSERT p/1\n");
}

// ---------------------------------------------------------------------
// Hand-stepped execution traces: exact opcode counters
// ---------------------------------------------------------------------

// p(X, Y) :- e(X, Z), f(Z, Y).  with  e = {(1,10), (2,20)} and
// f = {(10,100), (20,200), (20,201)}:
//
//   SCAN_FULL e          1 scan, 2 tuples
//     (1,10):  UNIFY load r0=1, load r2=10          2 unify
//       PROBE_INDEX f key r2=10 -> {(10,100)}        1 probe
//         (10,100): check r2, load r1                2 unify -> PROJECT
//     (2,20):  UNIFY load r0=2, load r2=20          2 unify
//       PROBE_INDEX f key r2=20 -> {(20,200),(20,201)} 1 probe
//         (20,200): check, load                      2 unify -> PROJECT
//         (20,201): check, load                      2 unify -> PROJECT
//
// Totals: 1 SCAN_FULL, 2 PROBE_INDEX, 10 UNIFY_ARG, 3 PROJECT, 3 INSERT,
// one application, no fallbacks.
TEST(VmExecutionTrace, HandSteppedJoinCounters) {
  Database db;
  auto st = db.Consult(R"(
    module j.
    export p(ff).
    @no_rewriting. @no_reorder_joins.
    p(X, Y) :- e(X, Z), f(Z, Y).
    end_module.
    e(1,10). e(2,20). f(10,100). f(20,200). f(20,201).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("p(X, Y)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 3u);

  const obs::VmCounters& c = *db.vm_counters();
  EXPECT_EQ(Count(c.applications), 1u);
  EXPECT_EQ(Count(c.runtime_fallbacks), 0u);
  EXPECT_EQ(Count(c.probe_scan_fallbacks), 0u);
  EXPECT_EQ(Count(c.scan_full), 1u);
  EXPECT_EQ(Count(c.scan_delta), 0u);
  EXPECT_EQ(Count(c.probe_index), 2u);
  EXPECT_EQ(Count(c.unify_arg), 10u);
  EXPECT_EQ(Count(c.test_builtin), 0u);
  EXPECT_EQ(Count(c.project), 3u);
  EXPECT_EQ(Count(c.insert), 3u);
}

// p(X, Y) :- e(X, Y), X < Y.  with  e = {(1,2), (3,1), (2,2)}:
// one full scan, 2 unify per tuple (6), one comparison per tuple (3),
// only (1,2) passes.
TEST(VmExecutionTrace, ComparisonBuiltinCounters) {
  Database db;
  auto st = db.Consult(R"(
    module cmp.
    export p(ff).
    @no_rewriting. @no_reorder_joins.
    p(X, Y) :- e(X, Y), X < Y.
    end_module.
    e(1,2). e(3,1). e(2,2).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(BytecodeSection(&db, "cmp", "p", "ff"),
            "scc 0 once 0 delta=-1\n"
            "coralbc 1\n"
            "rule 0 head p/2 regs 2\n"
            "  SCAN_FULL lit=0 rel=e/2 window=full\n"
            "  UNIFY_ARG col=0 load r0\n"
            "  UNIFY_ARG col=1 load r1\n"
            "  TEST_BUILTIN lt r0 r1\n"
            "  PROJECT r0 r1\n"
            "  INSERT p/2\n");
  auto res = db.EvalQuery("p(X, Y)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].ToString(), "X = 1, Y = 2");

  const obs::VmCounters& c = *db.vm_counters();
  EXPECT_EQ(Count(c.applications), 1u);
  EXPECT_EQ(Count(c.scan_full), 1u);
  EXPECT_EQ(Count(c.unify_arg), 6u);
  EXPECT_EQ(Count(c.test_builtin), 3u);
  EXPECT_EQ(Count(c.project), 1u);
  EXPECT_EQ(Count(c.insert), 1u);
  EXPECT_EQ(Count(c.runtime_fallbacks), 0u);
}

// ---------------------------------------------------------------------
// Fallback paths: shapes the VM does not cover answer correctly through
// the interpreter
// ---------------------------------------------------------------------

TEST(VmFallback, AggregateRuleInterpreted) {
  Database db;
  auto st = db.Consult(R"(
    module ag.
    export s(bf).
    s(X, sum(<Y>)) :- t(X, Y).
    end_module.
    t(1, 2). t(1, 3). t(2, 5).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("s(1, V)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].ToString(), "V = 5");
  EXPECT_NE(BytecodeSection(&db, "ag", "s", "bf")
                .find("interpreted: aggregate head"),
            std::string::npos);
}

TEST(VmFallback, OrderedSearchModuleInterpreted) {
  Database db;
  auto st = db.Consult(R"(
    module os.
    export win(b).
    @ordered_search.
    win(X) :- move(X, Y), not win(Y).
    end_module.
    move(1,2). move(2,3). move(3,4).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("win(1)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 1u);  // 1 wins (2 loses: 3 wins over 4)
  auto res2 = db.EvalQuery("win(2)");
  ASSERT_TRUE(res2.ok()) << res2.status().ToString();
  EXPECT_EQ(res2->rows.size(), 0u);
  // The whole module is interpreted; nothing may reach the VM.
  EXPECT_EQ(Count(db.vm_counters()->applications), 0u);
  EXPECT_NE(BytecodeSection(&db, "os", "win", "b")
                .find("module interpreted: ordered search"),
            std::string::npos);
}

TEST(VmFallback, NegatedLiteralRuleInterpreted) {
  Database db;
  auto st = db.Consult(R"(
    module ng.
    export p(ff).
    p(X, Y) :- e(X, Y), not q(X, Y).
    end_module.
    e(1,2). e(2,3). q(2,3).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("p(X, Y)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].ToString(), "X = 1, Y = 2");
  EXPECT_NE(BytecodeSection(&db, "ng", "p", "ff")
                .find("interpreted: negated literal"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Overrides: @no_vm and Database::set_use_vm
// ---------------------------------------------------------------------

TEST(VmOverride, NoVmAnnotationKeepsModuleInterpreted) {
  Database db;
  auto st = db.Consult(R"(
    module tc.
    export path(bf).
    @no_vm.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    end_module.
    edge(1,2). edge(2,3). edge(3,4).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("path(1, X)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(Count(db.vm_counters()->applications), 0u);
  EXPECT_NE(BytecodeSection(&db, "tc", "path", "bf")
                .find("module interpreted: @no_vm"),
            std::string::npos);
}

TEST(VmOverride, SetUseVmTogglesAtNextActivation) {
  Database db;
  db.set_use_vm(false);
  auto st = db.Consult(R"(
    module tc.
    export path(bf).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    end_module.
    edge(1,2). edge(2,3). edge(3,4).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("path(1, X)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(Count(db.vm_counters()->applications), 0u);

  // The bytecode was compiled with the form regardless; flipping the
  // switch makes the next activation run it — same answers.
  db.set_use_vm(true);
  auto res2 = db.EvalQuery("path(1, X)");
  ASSERT_TRUE(res2.ok()) << res2.status().ToString();
  EXPECT_EQ(res2->rows.size(), 3u);
  EXPECT_GT(Count(db.vm_counters()->applications), 0u);
}

// ---------------------------------------------------------------------
// Probe degradation: PROBE_INDEX over a relation without the planned
// argument index scans the window instead (same answers, counted)
// ---------------------------------------------------------------------

TEST(VmFallback, ProbeDegradesToScanWithoutIndex) {
  Database db;
  db.set_auto_optimize(false);  // no planned indexes exist
  auto st = db.Consult(R"(
    module j.
    export p(ff).
    @no_rewriting.
    p(X, Y) :- e(X, Z), f(Z, Y).
    end_module.
    e(1,10). e(2,20). f(10,100). f(20,200). f(20,201).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("p(X, Y)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 3u);

  const obs::VmCounters& c = *db.vm_counters();
  // The program still probes (the key is known at compile time), but
  // every probe degrades to a window scan; answers are unchanged and the
  // degradations are counted.
  EXPECT_EQ(Count(c.runtime_fallbacks), 0u);
  EXPECT_GT(Count(c.probe_scan_fallbacks), 0u);
  EXPECT_EQ(Count(c.probe_scan_fallbacks), Count(c.scan_full) - 1);
}

TEST(VmFallback, RuntimeFallbackKeepsInsertsAsChange) {
  // f's non-ground fact puts tc(X, nowhere) into tc's delta. The VM
  // inserts new pairs and then aborts on that tuple; the interpreter's
  // re-run finds those pairs already present. The iteration must still
  // count as a change, or the fixpoint stops short (8 answers, not 11).
  Database db;
  auto st = db.Consult(R"(
    module m.
    export tc(ff).
    @no_rewriting.
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- f(X, Y).
    tc(X, Y) :- tc(X, Z), e(Z, Y).
    end_module.
    e(1, 2). e(2, 3). e(3, 4). e(4, 5). f(X, nowhere).
  )");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  auto res = db.EvalQuery("tc(X, Y)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 11u);
  EXPECT_GT(Count(db.vm_counters()->runtime_fallbacks), 0u);
}

// ---------------------------------------------------------------------
// Deserialize hardening: malformed or corrupt bytecode text must be
// refused with InvalidArgument at parse time — it never reaches the
// executor (docs/VM.md "Verification")
// ---------------------------------------------------------------------

// A minimal well-formed program every mutation below starts from.
constexpr char kGoodProgram[] =
    "coralbc 1\n"
    "rule 0 head p/2 regs 2\n"
    "  SCAN_FULL lit=0 rel=e/2 window=full\n"
    "  UNIFY_ARG col=0 load r0\n"
    "  UNIFY_ARG col=1 load r1\n"
    "  PROJECT r0 r1\n"
    "  INSERT p/2\n";

TEST(VmDeserializeHardening, WellFormedProgramRoundTrips) {
  Database db;
  auto prog = vm::Deserialize(kGoodProgram, db.factory());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(vm::Disassemble(*prog), kGoodProgram);
}

// Replaces the first occurrence of `from` in kGoodProgram with `to` and
// expects Deserialize to refuse the result with a message containing
// `why`.
void ExpectRejected(const std::string& from, const std::string& to,
                    const std::string& why) {
  std::string text = kGoodProgram;
  size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  Database db;
  auto prog = vm::Deserialize(text, db.factory());
  ASSERT_FALSE(prog.ok()) << "accepted: " << text;
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prog.status().message().find(why), std::string::npos)
      << prog.status().ToString();
}

TEST(VmDeserializeHardening, MissingFormatHeader) {
  ExpectRejected("coralbc 1\n", "", "coralbc");
}

TEST(VmDeserializeHardening, WrongFormatVersion) {
  ExpectRejected("coralbc 1", "coralbc 2", "unsupported bytecode format");
}

TEST(VmDeserializeHardening, HeaderMustComeFirst) {
  Database db;
  std::string text = std::string("rule 0 head p/1 regs 1\n") + kGoodProgram;
  auto prog = vm::Deserialize(text, db.factory());
  ASSERT_FALSE(prog.ok());
  EXPECT_NE(prog.status().message().find("coralbc"), std::string::npos);
}

TEST(VmDeserializeHardening, RegisterCountOverflow) {
  ExpectRejected("regs 2", "regs 99999999999", "bad rule header");
}

TEST(VmDeserializeHardening, RegisterCountImplausible) {
  ExpectRejected("regs 2", "regs 2000000", "implausible register count");
}

TEST(VmDeserializeHardening, OutOfRangeRegisterOperand) {
  ExpectRejected("load r1", "load r7", "operand out of range");
}

TEST(VmDeserializeHardening, OutOfRangeConstOperand) {
  // The const pool is empty, so any match refers past its end.
  ExpectRejected("load r1", "match c0", "operand out of range");
}

TEST(VmDeserializeHardening, NonIncreasingScanLiterals) {
  ExpectRejected("PROJECT r0 r1",
                 "SCAN_FULL lit=0 rel=f/2 window=full\n  PROJECT r0 r1",
                 "strictly increasing literals");
}

TEST(VmDeserializeHardening, DuplicateProject) {
  ExpectRejected("PROJECT r0 r1", "PROJECT r0 r1\n  PROJECT r0",
                 "duplicate PROJECT");
}

TEST(VmDeserializeHardening, DuplicateRuleHeader) {
  ExpectRejected("  SCAN_FULL", "rule 1 head p/2 regs 2\n  SCAN_FULL",
                 "bad rule header");
}

TEST(VmDeserializeHardening, InsertPredMustMatchHead) {
  ExpectRejected("INSERT p/2", "INSERT q/2", "bad INSERT");
}

TEST(VmDeserializeHardening, UnknownOpcode) {
  ExpectRejected("PROJECT r0 r1", "FROBNICATE r0", "unknown opcode");
}

TEST(VmDeserializeHardening, UseOfUnloadedRegisterFailsVerifier) {
  // Reading a register no instruction loaded is refused (BuildLevels
  // catches it structurally; the verifier's CRL310 pass backstops it).
  ExpectRejected("col=1 load r1", "col=1 check r1", "unloaded register");
}

TEST(VmDeserializeHardening, DeltaScanInNonDeltaWindowFailsVerifier) {
  // SCAN_DELTA over a full window is shape-invalid (CRL312): delta scans
  // exist only in delta rule versions.
  ExpectRejected("SCAN_FULL lit=0 rel=e/2 window=full",
                 "SCAN_DELTA lit=0 rel=e/2 window=full",
                 "verifier rejected");
}

TEST(VmDeserializeHardening, NonGroundConstRejected) {
  std::string text =
      "coralbc 1\n"
      "rule 0 head p/1 regs 1\n"
      "  const c0 = f(X)\n"
      "  SCAN_FULL lit=0 rel=e/1 window=full\n"
      "  UNIFY_ARG col=0 load r0\n"
      "  PROJECT r0\n"
      "  INSERT p/1\n";
  Database db;
  auto prog = vm::Deserialize(text, db.factory());
  ASSERT_FALSE(prog.ok());
  EXPECT_NE(prog.status().message().find("non-ground const"),
            std::string::npos)
      << prog.status().ToString();
}

}  // namespace
}  // namespace coral
