// Tests for the public embedding facade: the <coral/coral.h> umbrella
// header (the only include in this file), the uniform StatusOr<> entry
// points, the Coral-facade observability passthroughs, and TraceEvent JSONL
// round-tripping through the parser.

#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include <coral/coral.h>

namespace coral {
namespace {

constexpr const char* kProgram =
    "edge(a, b). edge(b, c). edge(c, d).\n"
    "module paths.\n"
    "export path(ff).\n"
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "end_module.\n";

TEST(ApiTest, DatabaseEntryPointsReturnStatusOr) {
  Database db;
  // Consult returns the parsed-but-unexecuted queries.
  StatusOr<std::vector<Query>> consulted =
      db.Consult(std::string(kProgram) + "?- path(a, X).\n");
  ASSERT_TRUE(consulted.ok()) << consulted.status().ToString();
  ASSERT_EQ(consulted->size(), 1u);

  StatusOr<QueryResult> result = db.EvalQuery("path(a, X)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);

  StatusOr<QueryResult> executed = db.ExecuteQuery((*consulted)[0]);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->rows.size(), 3u);

  StatusOr<std::string> out = db.Run("?- path(b, X).");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("X = c"), std::string::npos) << *out;
}

TEST(ApiTest, ErrorsUseDocumentedStatusCodes) {
  Database db;
  // Parse error -> kInvalidArgument.
  EXPECT_EQ(db.EvalQuery("path(a, ").status().code(),
            StatusCode::kInvalidArgument);
  // Missing file -> kNotFound. (An unknown predicate in a query is NOT
  // an error: the deductive-database convention is an empty relation.)
  EXPECT_EQ(db.ConsultFile("/no/such/file.coral").status().code(),
            StatusCode::kNotFound);
}

TEST(ApiTest, CoralFacadeCoversEmbeddingSurface) {
  Coral c;
  auto consulted = c.Consult(kProgram);
  ASSERT_TRUE(consulted.ok()) << consulted.status().ToString();

  auto result = c.EvalQuery("path(a, X)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);

  // Relation and scan surface, re-exported by the umbrella header.
  const Relation* edges = c.GetRelation("edge", 2);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->size(), 3u);
  auto scan = c.OpenScan("path(a, X)");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
}

TEST(ApiTest, FacadeProfilingPassthroughs) {
  Coral c;
  ASSERT_TRUE(c.Consult(kProgram).ok());
  EXPECT_TRUE(c.Stats()->empty());

  c.SetProfiling(true);
  ASSERT_TRUE(c.EvalQuery("path(a, X)").ok());
  const obs::ModuleProfile* p = c.Stats()->Find("paths");
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->total_inserted(), 0u);
  EXPECT_NE(c.ProfileReport().find("paths"), std::string::npos);

  c.ClearStats();
  EXPECT_TRUE(c.Stats()->empty());

  // Switched off again: nothing is collected.
  c.SetProfiling(false);
  ASSERT_TRUE(c.EvalQuery("path(a, X)").ok());
  EXPECT_TRUE(c.Stats()->empty());
}

TEST(ApiTest, FacadeTraceSinkPassthrough) {
  Coral c;
  ASSERT_TRUE(c.Consult(kProgram).ok());
  obs::CollectingTraceSink sink;
  c.SetTraceSink(&sink);
  ASSERT_TRUE(c.EvalQuery("path(a, X)").ok());
  c.SetTraceSink(nullptr);
  ASSERT_FALSE(sink.events().empty());
  EXPECT_EQ(sink.events().front().kind, obs::TraceKind::kModuleCall);

  // Detached: no further events.
  size_t n = sink.events().size();
  ASSERT_TRUE(c.EvalQuery("path(b, X)").ok());
  EXPECT_EQ(sink.events().size(), n);
}

TEST(ApiTest, TraceEventJsonRoundTrip) {
  obs::TraceEvent ev;
  ev.kind = obs::TraceKind::kRuleFire;
  ev.module = "m1";
  ev.pred = "p/2";
  ev.detail = "p(a, \"quo\\ted\nline\")";
  ev.scc = 3;
  ev.rule = 7;
  ev.iter = 12;
  ev.count = 42;
  ev.ns = 1234567;

  auto back = obs::TraceEvent::FromJson(ev.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, ev.kind);
  EXPECT_EQ(back->module, ev.module);
  EXPECT_EQ(back->pred, ev.pred);
  EXPECT_EQ(back->detail, ev.detail);
  EXPECT_EQ(back->scc, ev.scc);
  EXPECT_EQ(back->rule, ev.rule);
  EXPECT_EQ(back->iter, ev.iter);
  EXPECT_EQ(back->count, ev.count);
  EXPECT_EQ(back->ns, ev.ns);

  // Defaults survive: an event with only a kind.
  obs::TraceEvent bare;
  bare.kind = obs::TraceKind::kIterBegin;
  auto bare_back = obs::TraceEvent::FromJson(bare.ToJson());
  ASSERT_TRUE(bare_back.ok());
  EXPECT_EQ(bare_back->kind, obs::TraceKind::kIterBegin);
  EXPECT_EQ(bare_back->scc, -1);
  EXPECT_TRUE(bare_back->module.empty());

  // Malformed input is rejected, not crashed on.
  EXPECT_FALSE(obs::TraceEvent::FromJson("").ok());
  EXPECT_FALSE(obs::TraceEvent::FromJson("{\"scc\": 1}").ok());
  EXPECT_FALSE(obs::TraceEvent::FromJson("{\"ev\": \"nonsense\"}").ok());
  EXPECT_FALSE(obs::TraceEvent::FromJson("{\"ev\": \"insert\"").ok());
  // Numbers outside a field's range and wrong-typed fields are rejected
  // rather than wrapped or truncated.
  for (const char* line :
       {R"({"ev":"insert","count":-1})", R"({"ev":"insert","scc":-7})",
        R"({"ev":"insert","rule":4294967297})",
        R"({"ev":"iter_end","ns":1.5})", R"({"ev":1})",
        R"({"ev":"insert","iter":18014398509481984})",
        R"({"ev":"insert","detail":7})"}) {
    auto bad = obs::TraceEvent::FromJson(line);
    EXPECT_FALSE(bad.ok()) << line;
    if (!bad.ok()) {
      EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << line;
    }
  }
  // \u escapes decode to UTF-8, as in every other JSON reader.
  auto accented = obs::TraceEvent::FromJson(
      R"({"ev":"insert","detail":"\u00e9"})");
  ASSERT_TRUE(accented.ok()) << accented.status().ToString();
  EXPECT_EQ(accented->detail, "\xC3\xA9");
}

}  // namespace
}  // namespace coral
