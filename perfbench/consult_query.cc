// consult_query: the consult -> query -> answers path of an embedded
// Database. One read op is one round of three bound queries of different
// shape, so a gain in one shape shows against the other two:
//   reach_wide    — left-linear reachability in a sparse random graph
//                   from a node of its giant component (join-bound);
//   reach_deep    — the same recursion down a long chain (hundreds of
//                   semi-naive iterations: per-iteration overhead);
//   shortest_path — the paper's Fig. 3 program with @aggregate_selection
//                   and list-valued paths (interpreter, aggregates,
//                   functor terms).
// One write op re-consults a slice of the already loaded fact text: the
// interactive consult path (parse, hash-consing, duplicate checks),
// idempotent so the base stays fixed for the whole run.

#include <coral/coral.h>

#include <memory>
#include <unordered_map>

#include "perfbench/answers.h"
#include "perfbench/layers.h"
#include "perfbench/oracle.h"
#include "perfbench/workloads.h"
#include "src/data/arg.h"

namespace perfbench {
namespace {

// Sizes put each shape at several ms per query on the reference box.
// Every shape's cost is kept the same from seed to seed: reach_wide
// sources sit in the giant component of a large random graph (whose size
// barely varies), chains have a fixed length, and the roads are many
// small random networks. A shortest_path query costs the same from every
// source (the engine derives p/4 for all pairs before selecting the
// bound source), so its cost is a sum over 16 networks, not a draw from
// one graph.
constexpr int kWideNodes = 8000;
constexpr int kWideEdges = 24000;
constexpr int kDeepChains = 4;
constexpr int kDeepLength = 1000;
constexpr int kRoadNets = 16;
constexpr int kRoadNodes = 10;  // per network
constexpr int kRoadEdges = 30;  // per network
constexpr int kSources = 64;       // reach_wide sources
constexpr int kSliceFacts = 2000;  // facts per write op
constexpr int kWarmRounds = 4;

constexpr char kModules[] = R"(
module wide.
export reach(bf).
reach(X, Y) :- e(X, Y).
reach(X, Y) :- reach(X, Z), e(Z, Y).
end_module.

module deep.
export chain(bf).
chain(X, Y) :- c(X, Y).
chain(X, Y) :- chain(X, Z), c(Z, Y).
end_module.

module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), w(Z, Y, EC),
                   append([w(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [w(X, Y)], C) :- w(X, Y, C).
end_module.
)";

/// The generated inputs and everything the oracles know about them.
struct Inputs {
  std::string facts;               // the whole base, as consult text
  std::vector<std::string> slices;  // write-op texts (slices of `facts`)
  std::vector<int> wide_sources;
  std::vector<std::vector<int>> wide_answers;
  std::vector<int> deep_heads;
  std::vector<std::vector<int>> deep_answers;
  std::vector<int> path_sources;
  std::vector<std::vector<int64_t>> path_costs;
  std::unordered_map<int64_t, int64_t> edge_cost;  // (from<<32|to) -> cost
  size_t wide_edges = 0;                           // distinct e/2 facts
};

int64_t Key(int64_t a, int64_t b) { return (a << 32) | b; }

Inputs Generate(uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  std::vector<std::string> lines;

  // Sparse random digraph: mean out-degree 3 puts ~94% of the nodes in
  // the giant out-component, so every source below has the same work.
  Digraph wide(kWideNodes);
  std::unordered_map<int64_t, bool> seen;
  while (static_cast<int>(in.wide_edges) < kWideEdges) {
    int a = static_cast<int>(rng.Below(kWideNodes));
    int b = static_cast<int>(rng.Below(kWideNodes));
    if (a == b || !seen.emplace(Key(a, b), true).second) continue;
    wide.Add(a, b);
    lines.push_back("e(" + std::to_string(a) + ", " + std::to_string(b) +
                    ").");
    ++in.wide_edges;
  }
  while (static_cast<int>(in.wide_sources.size()) < kSources) {
    int s = static_cast<int>(rng.Below(kWideNodes));
    std::vector<int> r = Reach(wide, s);
    if (r.size() < static_cast<size_t>(kWideNodes) / 2) continue;
    in.wide_sources.push_back(s);
    in.wide_answers.push_back(std::move(r));
  }

  // Chains with shuffled labels.
  std::vector<int> labels(kDeepChains * (kDeepLength + 1));
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i);
  for (size_t i = labels.size() - 1; i > 0; --i) {
    std::swap(labels[i], labels[rng.Below(i + 1)]);
  }
  for (int k = 0; k < kDeepChains; ++k) {
    const int* node = &labels[static_cast<size_t>(k * (kDeepLength + 1))];
    std::vector<int> answers;
    for (int j = 0; j < kDeepLength; ++j) {
      lines.push_back("c(" + std::to_string(node[j]) + ", " +
                      std::to_string(node[j + 1]) + ").");
      answers.push_back(node[j + 1]);
    }
    std::sort(answers.begin(), answers.end());
    in.deep_heads.push_back(node[0]);
    in.deep_answers.push_back(std::move(answers));
  }

  WeightedGraph roads(kRoadNets * kRoadNodes);
  for (int net = 0; net < kRoadNets; ++net) {
    const int base = net * kRoadNodes;
    for (int placed = 0; placed < kRoadEdges;) {
      int a = base + static_cast<int>(rng.Below(kRoadNodes));
      int b = base + static_cast<int>(rng.Below(kRoadNodes));
      if (a == b || in.edge_cost.count(Key(a, b)) > 0) continue;
      int64_t cost = 1 + static_cast<int64_t>(rng.Below(100));
      in.edge_cost[Key(a, b)] = cost;
      roads.Add(a, b, cost);
      lines.push_back("w(" + std::to_string(a) + ", " + std::to_string(b) +
                      ", " + std::to_string(cost) + ").");
      ++placed;
    }
    // The source of this network: the node that reaches the most.
    int best = base;
    std::vector<int64_t> best_costs;
    size_t best_reach = 0;
    for (int s = base; s < base + kRoadNodes; ++s) {
      std::vector<int64_t> d = ShortestCosts(roads, s);
      size_t reached = 0;
      for (int64_t v : d) reached += v >= 0;
      if (reached > best_reach) {
        best = s;
        best_reach = reached;
        best_costs = std::move(d);
      }
    }
    in.path_sources.push_back(best);
    in.path_costs.push_back(std::move(best_costs));
  }

  std::string slice;
  int in_slice = 0;
  for (const std::string& line : lines) {
    in.facts += line;
    in.facts += '\n';
    slice += line;
    slice += '\n';
    if (++in_slice == kSliceFacts) {
      in.slices.push_back(std::move(slice));
      slice.clear();
      in_slice = 0;
    }
  }
  return in;
}

/// Every reachable Y once, with the Dijkstra cost, and a path that
/// really runs from the source to Y with exactly that cost.
bool ShortestPathsOk(const coral::QueryResult& r, int source,
                     const std::vector<int64_t>& costs,
                     const Inputs& in) {
  size_t reachable = 0;
  for (int64_t c : costs) reachable += c >= 0;
  if (r.rows.size() != reachable) return false;
  std::vector<char> seen(costs.size(), 0);
  for (const coral::AnswerRow& row : r.rows) {
    int64_t y = IntBinding(row, "Y").value_or(-1);
    int64_t c = IntBinding(row, "C").value_or(-1);
    if (y < 0 || y >= static_cast<int64_t>(costs.size())) return false;
    if (seen[static_cast<size_t>(y)] || costs[static_cast<size_t>(y)] != c) {
      return false;
    }
    seen[static_cast<size_t>(y)] = 1;
    // The path list is newest edge first: [w(Z, Y), ..., w(source, _)].
    int64_t at = y, sum = 0;
    const coral::Arg* list = Binding(row, "P");
    while (list != nullptr && list->kind() == coral::ArgKind::kAtomOrFunctor) {
      const auto* cell = coral::ArgCast<coral::FunctorArg>(list);
      if (cell->arity() == 0) break;  // []
      if (cell->arity() != 2) return false;
      if (cell->arg(0)->kind() != coral::ArgKind::kAtomOrFunctor) {
        return false;
      }
      const auto* edge = coral::ArgCast<coral::FunctorArg>(cell->arg(0));
      if (edge->arity() != 2 || IntValue(edge->arg(1)) != at) return false;
      int64_t from = IntValue(edge->arg(0)).value_or(-1);
      auto it = in.edge_cost.find(Key(from, at));
      if (it == in.edge_cost.end()) return false;
      sum += it->second;
      at = from;
      list = cell->arg(1);
    }
    if (at != source || sum != c) return false;
  }
  return true;
}

struct Round {
  std::string wide, deep, path;
  int wide_i, deep_i, path_i;
};

}  // namespace

Result RunConsultQuery(const Options& opt) {
  Result out;
  const Inputs in = Generate(opt.seed);
  const std::string text = std::string(kModules) + in.facts;

  Rng ops(opt.seed ^ 0x5EED);
  uint64_t round_no = 0;
  auto next_round = [&]() {
    Round r;
    r.wide_i = static_cast<int>(ops.Below(kSources));
    r.deep_i = static_cast<int>(round_no % kDeepChains);
    r.path_i = static_cast<int>(round_no % kRoadNets);
    ++round_no;
    r.wide = "reach(" + std::to_string(in.wide_sources[r.wide_i]) + ", Y)";
    r.deep = "chain(" + std::to_string(in.deep_heads[r.deep_i]) + ", Y)";
    r.path = "s_p(" + std::to_string(in.path_sources[r.path_i]) +
             ", Y, P, C)";
    return r;
  };

  Tracer tracer(false);
  std::unique_ptr<coral::Database> db;
  size_t write_i = 0;
  // One round of three queries, checked. Each query has its own span,
  // which gives the per-shape evaluation time in the traced run.
  auto run_round = [&](Phase* phase) {
    Round r = next_round();
    SpanScope span(&tracer, "op.read");
    int64_t t0 = NowNs();
    auto eval = [&](const char* name, const std::string& q) {
      SpanScope shape(&tracer, name);
      return db->EvalQuery(q);
    };
    auto w = eval("core.reach_wide", r.wide);
    auto d = eval("core.reach_deep", r.deep);
    auto p = eval("core.shortest_path", r.path);
    phase->reads.Add(static_cast<double>(NowNs() - t0) / 1e6);
    phase->Count(
        SameInts(w, "Y", in.wide_answers[static_cast<size_t>(r.wide_i)]) &&
        SameInts(d, "Y", in.deep_answers[static_cast<size_t>(r.deep_i)]) &&
        p.ok() &&
        ShortestPathsOk(*p, in.path_sources[static_cast<size_t>(r.path_i)],
                        in.path_costs[static_cast<size_t>(r.path_i)], in));
  };
  coral::PredRef e_pred;
  auto run_write = [&](Phase* phase) {
    const std::string& slice = in.slices[write_i++ % in.slices.size()];
    SpanScope span(&tracer, "op.write");
    int64_t t0 = NowNs();
    auto r = db->Consult(slice);
    phase->writes.Add(static_cast<double>(NowNs() - t0) / 1e6);
    coral::Relation* rel = db->FindBaseRelation(e_pred);
    phase->Count(r.ok() && r->empty() && rel != nullptr &&
                 rel->size() == in.wide_edges);
  };

  double setup_s = TimeSetups(kSetups, [&]() {
    db.reset();
    db = std::make_unique<coral::Database>();
    auto consulted = db->Consult(text);
    if (!consulted.ok()) {
      out.Problem("consult: " + consulted.status().ToString());
      return;
    }
    e_pred = coral::PredRef{db->factory()->symbols().Intern("e"), 2};
    // Warm-up: compile each query form, settle the evaluation caches and
    // the allocator, and run one write.
    Phase warm;
    for (int i = 0; i < kWarmRounds; ++i) run_round(&warm);
    run_write(&warm);
    if (warm.failed > 0) out.Problem("warm-up round answered wrongly");
  });
  if (!out.checks_ok) return out;

  auto step = [&](Phase* phase) {
    return [&, phase]() {
      tracer.set_op(phase->attempted);
      run_round(phase);
      run_write(phase);
    };
  };
  if (!opt.trace) {
    Phase phase;
    phase.wall_s = ClosedLoop(opt.seconds, step(&phase));
    PutEndToEnd(phase, setup_s, &out);
    return out;
  }

  Phase untraced;
  untraced.wall_s = ClosedLoop(opt.seconds / 2, step(&untraced));
  db->set_profiling(true);
  tracer.set_enabled(true);
  Counters before = Counters::Take(db.get());
  Phase traced;
  traced.wall_s = ClosedLoop(opt.seconds / 2, step(&traced));
  Counters after = Counters::Take(db.get());
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  const double rounds = static_cast<double>(traced.reads.size());
  auto spans = tracer.Summarize();
  for (const char* shape : {"reach_wide", "reach_deep", "shortest_path"}) {
    out.Put(std::string("core.eval_ms.") + shape,
            spans[std::string("core.") + shape].total_ms / rounds, "ms");
  }
  PutCounterDeltas(before, after, traced.reads.size(), &out);
  RecordSpanSummary(tracer, traced.attempted, &out);
  PutTraceOverhead(untraced, traced, tracer, opt, "consult_query", &out);

  MeasureCompilePipeline(db.get(), text, &tracer, &out);
  std::vector<ReadOp> reads;
  // Session reads of these shapes run tens of times slower than embedded
  // ones (core.snapshot_penalty), so two rounds are enough.
  for (int i = 0; i < 2; ++i) {
    Round r = next_round();
    reads.push_back({r.wide, r.deep, r.path});
  }
  MeasureReadPaths(db.get(), reads, &tracer, &out);
  MeasureSnapshotAcquire(db.get(), [&]() { run_write(&traced); }, &out);
  return out;
}

}  // namespace perfbench
