// Independent answer oracles: plain graph algorithms over the generated
// inputs. Expected answers never come from the engine under test.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

/// Directed graph over nodes 0..n-1.
struct Digraph {
  explicit Digraph(int nodes) : out(static_cast<size_t>(nodes)) {}
  void Add(int from, int to) { out[static_cast<size_t>(from)].push_back(to); }
  std::vector<std::vector<int>> out;
};

/// Nodes reachable from `s` by a path of one or more edges, sorted
/// (`s` itself only when it lies on a cycle), by breadth-first search.
inline std::vector<int> Reach(const Digraph& g, int s) {
  std::vector<char> seen(g.out.size(), 0);
  std::vector<int> frontier(g.out[static_cast<size_t>(s)].begin(),
                            g.out[static_cast<size_t>(s)].end());
  std::vector<int> result;
  for (size_t i = 0; i < frontier.size(); ++i) {
    int v = frontier[i];
    if (seen[static_cast<size_t>(v)]) continue;
    seen[static_cast<size_t>(v)] = 1;
    result.push_back(v);
    for (int w : g.out[static_cast<size_t>(v)]) {
      if (!seen[static_cast<size_t>(w)]) frontier.push_back(w);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// Weighted directed graph for the shortest-path oracle.
struct WeightedGraph {
  struct Edge {
    int to;
    int64_t cost;
  };
  explicit WeightedGraph(int nodes) : out(static_cast<size_t>(nodes)) {}
  void Add(int from, int to, int64_t cost) {
    out[static_cast<size_t>(from)].push_back({to, cost});
  }
  std::vector<std::vector<Edge>> out;
};

/// Dijkstra over paths of one or more edges: dist[v] is the least cost
/// of a non-empty path s -> v, or -1 when v is unreachable that way.
inline std::vector<int64_t> ShortestCosts(const WeightedGraph& g, int s) {
  std::vector<int64_t> dist(g.out.size(), -1);
  using Item = std::pair<int64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  for (const auto& e : g.out[static_cast<size_t>(s)]) pq.push({e.cost, e.to});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (dist[static_cast<size_t>(v)] >= 0) continue;
    dist[static_cast<size_t>(v)] = d;
    for (const auto& e : g.out[static_cast<size_t>(v)]) {
      if (dist[static_cast<size_t>(e.to)] < 0) pq.push({d + e.cost, e.to});
    }
  }
  return dist;
}

/// A forest of identical complete trees with shuffled node labels, so
/// every tree has the same query cost and a known answer.
struct Forest {
  std::vector<std::pair<int, int>> edges;  // (parent, child)
  std::vector<int> roots;
  std::vector<std::vector<int>> answers;   // per tree: Reach(root), sorted
};

/// `trees` complete trees of the given fanout and depth (depth 0 is a
/// lone root). `shuffle(n)` returns a value below n.
template <typename Shuffle>
Forest MakeForest(int trees, int fanout, int depth, Shuffle shuffle) {
  int per_tree = 1, level = 1;
  for (int d = 0; d < depth; ++d) per_tree += (level *= fanout);
  const int total = trees * per_tree;
  std::vector<int> label(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) label[static_cast<size_t>(i)] = i;
  for (size_t i = label.size() - 1; i > 0; --i) {
    std::swap(label[i], label[shuffle(i + 1)]);
  }
  Forest f;
  Digraph g(total);
  for (int t = 0; t < trees; ++t) {
    const int base = t * per_tree;
    // Heap numbering within a tree: the parent of i is (i - 1) / fanout.
    for (int i = 1; i < per_tree; ++i) {
      int parent = label[static_cast<size_t>(base + (i - 1) / fanout)];
      int child = label[static_cast<size_t>(base + i)];
      g.Add(parent, child);
      f.edges.emplace_back(parent, child);
    }
    f.roots.push_back(label[static_cast<size_t>(base)]);
  }
  for (int root : f.roots) f.answers.push_back(Reach(g, root));
  return f;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
