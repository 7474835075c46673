// Differential testing: randomly generated Datalog programs evaluated by
// the CORAL engine are checked against an independent reference evaluator
// (a direct naive fixpoint over integer tuples, sharing no code with the
// engine). Strategies are randomized too, so every run cross-checks the
// rewriting/evaluation matrix on programs nobody hand-picked. Also:
// crash-safety fuzzing of the lexer/parser and a print->parse round-trip
// property for terms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/bytecode.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"

namespace coral {
namespace {

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : s_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return s_ >> 33;
  }
  uint64_t Next(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------------
// Random program generation
// ---------------------------------------------------------------------

struct GLit {
  int pred;          // 0..kBase-1 base, kBase..kBase+kDerived-1 derived
  bool negated;
  int args[2];       // >= 0: variable id; < 0: constant -(v+1)
};
// A comparison over two bound variables: `a < b`, or `a \= b`.
struct GCmp {
  bool less;
  int a, b;
};
struct GRule {
  int head;          // derived pred index (0..kDerived-1)
  int head_args[2];  // variable ids
  std::vector<GLit> body;
  std::vector<GCmp> cmps;  // after the body; only AddComparisons sets it
};

constexpr int kBase = 2;
constexpr int kDerived = 3;
constexpr int kDomain = 6;
constexpr int kVars = 4;

std::string ArgText(int a) {
  return a >= 0 ? "V" + std::to_string(a) : std::to_string(-a - 1);
}
std::string PredName(int p) {
  return p < kBase ? "b" + std::to_string(p)
                   : "d" + std::to_string(p - kBase);
}

/// Generates a safe positive program (+ optionally one negated BASE
/// literal per rule, placed last with bound arguments).
std::vector<GRule> GenProgram(Lcg* rng, bool with_negation) {
  std::vector<GRule> rules;
  int n_rules = 4 + static_cast<int>(rng->Next(4));
  for (int r = 0; r < n_rules; ++r) {
    GRule rule;
    rule.head = static_cast<int>(rng->Next(kDerived));
    std::vector<GLit> body;
    int n_lits = 1 + static_cast<int>(rng->Next(2));
    std::set<int> bound_vars;
    for (int i = 0; i < n_lits; ++i) {
      GLit lit;
      lit.negated = false;
      // Derived body preds must have a smaller index than the head for
      // easy stratification-free layering... allow equal for recursion.
      if (rng->Next(2) == 0) {
        lit.pred = static_cast<int>(rng->Next(kBase));
      } else {
        lit.pred = kBase + static_cast<int>(rng->Next(rule.head + 1));
      }
      for (int k = 0; k < 2; ++k) {
        if (rng->Next(5) == 0) {
          lit.args[k] = -(static_cast<int>(rng->Next(kDomain)) + 1);
        } else {
          int v = static_cast<int>(rng->Next(kVars));
          lit.args[k] = v;
          bound_vars.insert(v);
        }
      }
      body.push_back(lit);
    }
    // Head args must be bound (safety).
    std::vector<int> bound(bound_vars.begin(), bound_vars.end());
    if (bound.empty()) continue;  // skip degenerate rule
    rule.head_args[0] = bound[rng->Next(bound.size())];
    rule.head_args[1] = bound[rng->Next(bound.size())];
    // Optional negated base literal with bound variables, last.
    if (with_negation && rng->Next(3) == 0) {
      GLit neg;
      neg.negated = true;
      neg.pred = static_cast<int>(rng->Next(kBase));
      neg.args[0] = bound[rng->Next(bound.size())];
      neg.args[1] = bound[rng->Next(bound.size())];
      body.push_back(neg);
    }
    rule.body = std::move(body);
    rules.push_back(std::move(rule));
  }
  return rules;
}

/// Appends, to about half of the rules, one comparison (`<` or `\=`)
/// over two distinct variables the positive body binds.
void AddComparisons(Lcg* rng, std::vector<GRule>* rules) {
  for (GRule& rule : *rules) {
    std::set<int> vars;
    for (const GLit& lit : rule.body) {
      if (lit.negated) continue;
      for (int a : lit.args) {
        if (a >= 0) vars.insert(a);
      }
    }
    if (vars.size() < 2 || rng->Next(2) == 0) continue;
    std::vector<int> v(vars.begin(), vars.end());
    int i = static_cast<int>(rng->Next(v.size()));
    int j = static_cast<int>(rng->Next(v.size() - 1));
    if (j >= i) ++j;
    rule.cmps.push_back({rng->Next(2) == 0, v[i], v[j]});
  }
}

using Fact = std::pair<int, int>;
using Db = std::vector<std::set<Fact>>;  // indexed by pred

Db GenBaseFacts(Lcg* rng) {
  Db db(kBase + kDerived);
  for (int p = 0; p < kBase; ++p) {
    int n = 4 + static_cast<int>(rng->Next(8));
    for (int i = 0; i < n; ++i) {
      db[p].insert({static_cast<int>(rng->Next(kDomain)),
                    static_cast<int>(rng->Next(kDomain))});
    }
  }
  return db;
}

// ---------------------------------------------------------------------
// Reference evaluator: direct naive fixpoint, no shared code
// ---------------------------------------------------------------------

void ReferenceFixpoint(const std::vector<GRule>& rules, Db* db) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GRule& rule : rules) {
      // Enumerate all bindings of the positive body.
      std::vector<std::map<int, int>> envs = {{}};
      for (const GLit& lit : rule.body) {
        if (lit.negated) continue;
        std::vector<std::map<int, int>> next;
        for (const auto& env : envs) {
          for (const Fact& fact : (*db)[lit.pred]) {
            std::map<int, int> e = env;
            int vals[2] = {fact.first, fact.second};
            bool ok = true;
            for (int k = 0; k < 2 && ok; ++k) {
              if (lit.args[k] < 0) {
                ok = vals[k] == -lit.args[k] - 1;
              } else {
                auto it = e.find(lit.args[k]);
                if (it == e.end()) {
                  e[lit.args[k]] = vals[k];
                } else {
                  ok = it->second == vals[k];
                }
              }
            }
            if (ok) next.push_back(std::move(e));
          }
        }
        envs = std::move(next);
      }
      for (const auto& env : envs) {
        // Negated base literals filter.
        bool pass = true;
        for (const GLit& lit : rule.body) {
          if (!lit.negated) continue;
          int vals[2];
          bool determined = true;
          for (int k = 0; k < 2; ++k) {
            if (lit.args[k] < 0) {
              vals[k] = -lit.args[k] - 1;
            } else {
              auto it = env.find(lit.args[k]);
              if (it == env.end()) {
                determined = false;
                break;
              }
              vals[k] = it->second;
            }
          }
          ASSERT_TRUE(determined) << "generator produced unsafe negation";
          if ((*db)[lit.pred].count({vals[0], vals[1]})) pass = false;
        }
        for (const GCmp& c : rule.cmps) {
          int a = env.at(c.a);
          int b = env.at(c.b);
          pass = pass && (c.less ? a < b : a != b);
        }
        if (!pass) continue;
        Fact head{env.at(rule.head_args[0]), env.at(rule.head_args[1])};
        if ((*db)[kBase + rule.head].insert(head).second) changed = true;
      }
    }
  }
}

// ---------------------------------------------------------------------
// CORAL side
// ---------------------------------------------------------------------

std::string ProgramText(const std::vector<GRule>& rules, const Db& base,
                        const std::string& annotations) {
  std::string out;
  for (int p = 0; p < kBase; ++p) {
    for (const Fact& f : base[p]) {
      out += PredName(p) + "(" + std::to_string(f.first) + ", " +
             std::to_string(f.second) + ").\n";
    }
  }
  out += "module gen.\nexport ";
  for (int d = 0; d < kDerived; ++d) {
    out += std::string(d ? ", " : "") + PredName(kBase + d) + "(ff)";
  }
  out += ".\n" + annotations + "\n";
  for (const GRule& r : rules) {
    out += PredName(kBase + r.head) + "(" + ArgText(r.head_args[0]) + ", " +
           ArgText(r.head_args[1]) + ") :- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      const GLit& lit = r.body[i];
      if (i) out += ", ";
      if (lit.negated) out += "not ";
      out += PredName(lit.pred) + "(" + ArgText(lit.args[0]) + ", " +
             ArgText(lit.args[1]) + ")";
    }
    for (const GCmp& c : r.cmps) {
      out += ", " + ArgText(c.a) + (c.less ? " < " : " \\= ") + ArgText(c.b);
    }
    out += ".\n";
  }
  out += "end_module.\n";
  return out;
}

void RunDifferential(uint64_t seed, bool with_negation) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  // Ensure every derived pred has at least one rule so queries are legal.
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }

  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];

  Database db;
  std::string text = ProgramText(rules, base, strategy);
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\n" << text;

  for (int d = 0; d < kDerived; ++d) {
    auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
    ASSERT_TRUE(res.ok()) << res.status().ToString() << "\nseed " << seed
                          << " strategy " << strategy << "\n" << text;
    std::set<Fact> got;
    for (const AnswerRow& row : res->rows) {
      ASSERT_EQ(row.bindings.size(), 2u);
      ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
      got.insert({static_cast<int>(
                      ArgCast<IntArg>(row.bindings[0].second)->value()),
                  static_cast<int>(
                      ArgCast<IntArg>(row.bindings[1].second)->value())});
    }
    EXPECT_EQ(got, expected[kBase + d])
        << "pred " << PredName(kBase + d) << " seed " << seed
        << " strategy '" << strategy << "'\n" << text;
  }
}

// Parallel differential: the same generated program is evaluated with 1,
// 2 and 4 worker threads; every thread count must produce relations that
// are set-identical to the independent reference fixpoint (and therefore
// to each other — the 1-thread run is additionally compared directly, so
// a failure names the first diverging configuration).
void RunParallelDifferential(uint64_t seed, bool with_negation) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }

  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  // Strategies that fall back to the sequential engine (@psn,
  // @ordered_search) stay in the mix on purpose: the fallback must be as
  // correct as the parallel path.
  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];
  std::string text = ProgramText(rules, base, strategy);

  static const int kThreads[] = {1, 2, 4};
  std::set<Fact> single[kDerived];  // 1-thread engine results
  for (int ti = 0; ti < 3; ++ti) {
    Database db;
    db.set_num_threads(kThreads[ti]);
    auto st = db.Consult(text);
    ASSERT_TRUE(st.ok()) << st.status().ToString() << "\nseed " << seed
                         << " threads " << kThreads[ti] << "\n" << text;
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " strategy '"
          << strategy << "' threads " << kThreads[ti] << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " vs reference, seed "
          << seed << " strategy '" << strategy << "' threads "
          << kThreads[ti] << "\n" << text;
      if (ti == 0) {
        single[d] = std::move(got);
      } else {
        EXPECT_EQ(got, single[d])
            << "pred " << PredName(kBase + d)
            << " diverges from the 1-thread run, seed " << seed
            << " strategy '" << strategy << "' threads " << kThreads[ti]
            << "\n" << text;
      }
    }
  }
}

// @parallel(N) in the module text (instead of Database::set_num_threads)
// must behave identically.
void RunAnnotatedParallelDifferential(uint64_t seed) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, /*with_negation=*/false);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  std::string annotation =
      "@parallel(" + std::to_string(2 + rng.Next(3)) + ").";
  std::string text = ProgramText(rules, base, annotation);
  Database db;
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\nseed " << seed
                       << "\n" << text;
  for (int d = 0; d < kDerived; ++d) {
    auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
    ASSERT_TRUE(res.ok()) << res.status().ToString() << "\nseed " << seed
                          << "\n" << text;
    std::set<Fact> got;
    for (const AnswerRow& row : res->rows) {
      ASSERT_EQ(row.bindings.size(), 2u);
      got.insert({static_cast<int>(
                      ArgCast<IntArg>(row.bindings[0].second)->value()),
                  static_cast<int>(
                      ArgCast<IntArg>(row.bindings[1].second)->value())});
    }
    EXPECT_EQ(got, expected[kBase + d])
        << "pred " << PredName(kBase + d) << " seed " << seed << " "
        << annotation << "\n" << text;
  }
}

// Auto-optimization differential: join reordering and automatic index
// selection (Database::set_auto_optimize, on by default) must never
// change answers. The same generated program — under a randomly drawn
// rewriting strategy — is evaluated with the optimizer on and off; both
// runs must match the independent reference fixpoint and each other.
void RunAutoOptimizeDifferential(uint64_t seed, bool with_negation) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];
  std::string text = ProgramText(rules, base, strategy);

  std::set<Fact> optimized[kDerived];
  for (int pass = 0; pass < 2; ++pass) {
    Database db;
    db.set_auto_optimize(pass == 0);
    auto st = db.Consult(text);
    ASSERT_TRUE(st.ok()) << st.status().ToString() << "\nseed " << seed
                         << " strategy '" << strategy << "'\n" << text;
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " strategy '"
          << strategy << "' auto_optimize=" << (pass == 0) << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " vs reference, seed "
          << seed << " strategy '" << strategy << "' auto_optimize="
          << (pass == 0) << "\n" << text;
      if (pass == 0) {
        optimized[d] = std::move(got);
      } else {
        EXPECT_EQ(got, optimized[d])
            << "pred " << PredName(kBase + d)
            << " diverges between auto_optimize on/off, seed " << seed
            << " strategy '" << strategy << "'\n" << text;
      }
    }
  }
}

// Besides the folds, every derived predicate d gets a Fig. 3-shaped
// consumer `argd(X, Y) :- aggd(X, V), d(X, Y), Y = V.` queried as bf:
// full adornment feeds d's magic through aggd, so the rewriter restricts
// d to the bound group instead. `restricted` counts the forms whose plan
// took that path. The aggregate result is also queried bound, directly
// (aggd(fb)) and through a body literal (`byfoldd(V, X) :- aggd(X, V).`
// queried as bf): both must return the groups whose fold is V.
void RunAggregateDifferential(uint64_t seed, int threads,
                              int* restricted) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, /*with_negation=*/false);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  // One aggregate summary per derived predicate, random fold.
  static const char* kFns[] = {"count", "min", "max", "sum"};
  std::vector<int> fn(kDerived);
  std::string text = ProgramText(rules, base, "");
  // Splice the aggregate rules and their exports into the module text.
  size_t end_pos = text.rfind("end_module.");
  ASSERT_NE(end_pos, std::string::npos);
  std::string agg_rules;
  std::string agg_exports;
  for (int d = 0; d < kDerived; ++d) {
    fn[d] = static_cast<int>(rng.Next(4));
    agg_rules += "agg" + std::to_string(d) + "(X, " + kFns[fn[d]] +
                 "(<Y>)) :- " + PredName(kBase + d) + "(X, Y).\n";
    agg_exports += "export agg" + std::to_string(d) + "(bf), agg" +
                   std::to_string(d) + "(fb).\n";
    agg_rules += "byfold" + std::to_string(d) + "(V, X) :- agg" +
                 std::to_string(d) + "(X, V).\n";
    agg_exports += "export byfold" + std::to_string(d) + "(bf).\n";
    agg_rules += "arg" + std::to_string(d) + "(X, Y) :- agg" +
                 std::to_string(d) + "(X, V), " + PredName(kBase + d) +
                 "(X, Y), Y = V.\n";
    agg_exports += "export arg" + std::to_string(d) + "(bf).\n";
  }
  text.insert(end_pos, agg_exports + agg_rules);

  Database db;
  db.set_num_threads(threads);
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\n" << text;

  for (int d = 0; d < kDerived; ++d) {
    // Reference folds per group.
    std::map<int, std::vector<int>> groups;
    for (const Fact& f : expected[kBase + d]) {
      groups[f.first].push_back(f.second);
    }
    std::map<int, int64_t> folds;
    // The aggregate versions compile and run on the VM: its application
    // count grows across the bound-key queries.
    const uint64_t apps0 = db.vm_counters()->applications.load();
    for (auto& [key, vals] : groups) {
      int64_t want = 0;
      switch (fn[d]) {
        case 0: want = static_cast<int64_t>(vals.size()); break;
        case 1: want = *std::min_element(vals.begin(), vals.end()); break;
        case 2: want = *std::max_element(vals.begin(), vals.end()); break;
        default:
          for (int v : vals) want += v;
      }
      folds[key] = want;
      auto res = db.EvalQuery("agg" + std::to_string(d) + "(" +
                           std::to_string(key) + ", V)");
      ASSERT_TRUE(res.ok()) << res.status().ToString() << "\n" << text;
      ASSERT_EQ(res->rows.size(), 1u)
          << "agg" << d << " key " << key << " seed " << seed << "\n"
          << text;
      EXPECT_EQ(res->rows[0].ToString(), "V = " + std::to_string(want))
          << "agg fn " << kFns[fn[d]] << " key " << key << " seed " << seed
          << "\n" << text;
    }
    if (!groups.empty()) {
      EXPECT_GT(db.vm_counters()->applications.load(), apps0)
          << "agg" << d << " seed " << seed;
      auto plan = db.PlanListing("gen", "agg" + std::to_string(d), "bf");
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_NE(plan->find("head agg" + std::to_string(d) + "@bf/2"),
                std::string::npos)
          << *plan;
    }
    // No phantom groups.
    auto all = db.EvalQuery("agg" + std::to_string(d) + "(X, V)");
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->rows.size(), groups.size()) << "seed " << seed;

    // Bound results: every fold value, and one no group folds to.
    std::map<int64_t, std::vector<std::string>> keys_of;
    int64_t unused = 0;
    for (const auto& [key, want] : folds) {
      keys_of[want].push_back("X = " + std::to_string(key));
      unused = std::max(unused, want + 1);
    }
    keys_of[unused];
    for (auto& [value, want] : keys_of) {
      std::sort(want.begin(), want.end());
      std::string v = std::to_string(value);
      for (const std::string& query :
           {"agg" + std::to_string(d) + "(X, " + v + ")",
            "byfold" + std::to_string(d) + "(" + v + ", X)"}) {
        auto res = db.EvalQuery(query);
        ASSERT_TRUE(res.ok()) << res.status().ToString() << "\n" << text;
        std::vector<std::string> got;
        for (const AnswerRow& row : res->rows) got.push_back(row.ToString());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << query << " seed " << seed << "\n" << text;
      }
    }

    // The consumer: Y is a d-successor of the key equal to its fold.
    for (int key = 0; key < kDomain; ++key) {
      std::vector<std::string> want;
      auto fit = folds.find(key);
      if (fit != folds.end()) {
        const std::vector<int>& vals = groups[key];
        if (std::find(vals.begin(), vals.end(), fit->second) != vals.end()) {
          want.push_back("Y = " + std::to_string(fit->second));
        }
      }
      auto res = db.EvalQuery("arg" + std::to_string(d) + "(" +
                              std::to_string(key) + ", Y)");
      ASSERT_TRUE(res.ok()) << res.status().ToString() << "\n" << text;
      std::vector<std::string> got;
      for (const AnswerRow& row : res->rows) got.push_back(row.ToString());
      EXPECT_EQ(got, want) << "arg" << d << " key " << key << " seed "
                           << seed << "\n" << text;
    }
    auto plan = db.PlanListing("gen", "arg" + std::to_string(d), "bf");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan->find("restricted by grouping: " + PredName(kBase + d)) !=
        std::string::npos) {
      ++*restricted;
    }
  }
}

// VM differential: the join bytecode VM (Database::set_use_vm, on by
// default) against the interpreting ResolveTuple path, crossed with the
// thread count. Every configuration must be set-identical to the
// independent reference fixpoint; non-first configurations are also
// compared to the first directly, so a failure names the diverging
// configuration. `vm_apps` accumulates VM applications across the run —
// the test asserts at the end that the VM actually executed.
void RunVmDifferential(uint64_t seed, bool with_negation,
                       uint64_t* vm_apps, uint64_t* os_vm_apps = nullptr) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  // Negation, which the VM does not compile, stays in the mix on
  // purpose: the interpreter fallback must be as correct as the compiled
  // path, under every thread count. So does @ordered_search, whose magic
  // heads the compiled path stages.
  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];
  std::string text = ProgramText(rules, base, strategy);

  struct Config {
    bool use_vm;
    int threads;
  };
  static const Config kConfigs[] = {
      {true, 1}, {false, 1}, {true, 4}, {false, 4}};
  std::set<Fact> first[kDerived];
  for (size_t ci = 0; ci < 4; ++ci) {
    const Config& cfg = kConfigs[ci];
    Database db;
    db.set_use_vm(cfg.use_vm);
    db.set_num_threads(cfg.threads);
    auto st = db.Consult(text);
    ASSERT_TRUE(st.ok()) << st.status().ToString() << "\nseed " << seed
                         << "\n" << text;
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " strategy '"
          << strategy << "' vm=" << cfg.use_vm << " threads "
          << cfg.threads << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " vs reference, seed "
          << seed << " strategy '" << strategy << "' vm=" << cfg.use_vm
          << " threads " << cfg.threads << "\n" << text;
      if (ci == 0) {
        first[d] = std::move(got);
      } else {
        EXPECT_EQ(got, first[d])
            << "pred " << PredName(kBase + d)
            << " diverges from the vm/1-thread run, seed " << seed
            << " strategy '" << strategy << "' vm=" << cfg.use_vm
            << " threads " << cfg.threads << "\n" << text;
      }
    }
    if (cfg.use_vm) {
      *vm_apps += db.vm_counters()->applications.load();
      if (os_vm_apps != nullptr &&
          std::string(strategy) == "@ordered_search.") {
        *os_vm_apps += db.vm_counters()->applications.load();
      }
    } else {
      // With the VM off nothing may reach it at all.
      EXPECT_EQ(db.vm_counters()->applications.load(), 0u)
          << "seed " << seed << " strategy '" << strategy << "' threads "
          << cfg.threads;
    }
  }
}

// ---------------------------------------------------------------------
// Incremental view maintenance differential (docs/MAINTENANCE.md): a
// random save-module program is materialized, then a random sequence of
// base-fact update batches flows through Session::ApplyUpdate. After
// every batch the engine's answers must be set-identical to a
// from-scratch reference fixpoint over the tracked base facts —
// whichever path (counting, DRed, or the invalidation fallback) handled
// the batch. `maintained` accumulates instances updated in place, so the
// caller can assert the incremental path actually ran.
// ---------------------------------------------------------------------

void RunIvmDifferential(uint64_t seed, int threads, bool with_comparisons,
                        uint64_t* maintained) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, /*with_negation=*/false);
  if (rules.empty()) return;
  Db cur = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  if (with_comparisons) {
    // A stream of its own, so `rng` draws the same updates as it would
    // without comparisons.
    Lcg crng(seed ^ 0x5eedc0de);
    AddComparisons(&crng, &rules);
  }

  Database db;
  db.set_num_threads(threads);
  std::string text = ProgramText(rules, cur, "@save_module.");
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\n" << text;
  Session session(&db);

  auto check_all = [&](const char* when, int batch) {
    Db expected = cur;
    ReferenceFixpoint(rules, &expected);
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " threads "
          << threads << " " << when << " batch " << batch << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " seed " << seed
          << " threads " << threads << " " << when << " batch " << batch
          << "\n" << text;
    }
  };

  // Materialize (and sanity-check) the saved instances before updating.
  check_all("before", 0);
  if (::testing::Test::HasFatalFailure() ||
      ::testing::Test::HasNonfatalFailure()) {
    return;
  }

  int n_batches = 3 + static_cast<int>(rng.Next(4));
  for (int b = 0; b < n_batches; ++b) {
    std::string utext;
    // Ground deletions, sampled from the live base facts (plus the
    // occasional no-op delete of a fact that is not there).
    int n_del = static_cast<int>(rng.Next(3));
    for (int i = 0; i < n_del; ++i) {
      int p = static_cast<int>(rng.Next(kBase));
      if (cur[p].empty() || rng.Next(8) == 0) {
        utext += "-" + PredName(p) + "(" +
                 std::to_string(rng.Next(kDomain) + kDomain) + ", 0).\n";
        continue;
      }
      auto it = cur[p].begin();
      std::advance(it, static_cast<long>(rng.Next(cur[p].size())));
      utext += "-" + PredName(p) + "(" + std::to_string(it->first) +
               ", " + std::to_string(it->second) + ").\n";
      cur[p].erase(it);
    }
    // Occasionally a pattern delete: everything with a given first
    // argument goes (exercises the subsumption expansion).
    if (rng.Next(4) == 0) {
      int p = static_cast<int>(rng.Next(kBase));
      int key = static_cast<int>(rng.Next(kDomain));
      utext += "-" + PredName(p) + "(" + std::to_string(key) + ", W).\n";
      for (auto it = cur[p].begin(); it != cur[p].end();) {
        it = it->first == key ? cur[p].erase(it) : std::next(it);
      }
    }
    // Insertions, duplicates included on purpose (must net to no-ops).
    int n_ins = 1 + static_cast<int>(rng.Next(3));
    for (int i = 0; i < n_ins; ++i) {
      int p = static_cast<int>(rng.Next(kBase));
      Fact fact{static_cast<int>(rng.Next(kDomain)),
                static_cast<int>(rng.Next(kDomain))};
      utext += "+" + PredName(p) + "(" + std::to_string(fact.first) +
               ", " + std::to_string(fact.second) + ").\n";
      cur[p].insert(fact);
    }

    auto result = session.ApplyUpdate(utext);
    ASSERT_TRUE(result.ok())
        << result.status().ToString() << "\nseed " << seed << " batch "
        << b << "\n" << utext;
    *maintained += result->maintained;

    check_all("after", b);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;  // one diverging batch is enough detail to debug from
    }
  }
}

void IvmSeedLoop(uint64_t first, uint64_t last, int threads,
                 bool with_comparisons = false) {
  // CORAL_IVM_SEED pins the run to one seed for deterministic replay of
  // a CI failure (mirrors CORAL_FAULT_SEED in crash_recovery_test).
  uint64_t maintained = 0;
  if (const char* env = std::getenv("CORAL_IVM_SEED")) {
    uint64_t seed = std::strtoull(env, nullptr, 0);
    ::testing::Test::RecordProperty("ivm_seed", std::to_string(seed));
    RunIvmDifferential(seed, threads, with_comparisons, &maintained);
    return;
  }
  for (uint64_t seed = first; seed <= last; ++seed) {
    RunIvmDifferential(seed, threads, with_comparisons, &maintained);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  // The sweep must exercise the incremental path, not just agree by
  // always falling back to invalidation.
  EXPECT_GT(maintained, 0u);
}

TEST(IvmDifferentialTest, UpdateSequencesMatchFromScratch) {
  IvmSeedLoop(10000, 10079, /*threads=*/1);
}

TEST(IvmDifferentialTest, UpdateSequencesMatchFromScratchParallel) {
  IvmSeedLoop(11000, 11059, /*threads=*/4);
}

// Comparison builtins compile to TEST_BUILTIN, so maintenance evaluates
// them under the reconstructed kMid/kOld states too.
TEST(IvmDifferentialTest, UpdateSequencesWithComparisonsMatchFromScratch) {
  IvmSeedLoop(12000, 12079, /*threads=*/1, /*with_comparisons=*/true);
}

TEST(VmDifferentialTest, VmInterpreterThreadMatrixMatchesReference) {
  uint64_t vm_apps = 0;
  for (uint64_t seed = 8000; seed <= 8149; ++seed) {
    RunVmDifferential(seed, /*with_negation=*/false, &vm_apps);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The matrix must actually exercise the compiled path, not just agree
  // by everything falling back.
  EXPECT_GT(vm_apps, 0u);
}

TEST(VmDifferentialTest, VmMatrixWithNegationMatchesReference) {
  uint64_t vm_apps = 0;
  uint64_t os_vm_apps = 0;
  for (uint64_t seed = 8500; seed <= 8649; ++seed) {
    RunVmDifferential(seed, /*with_negation=*/true, &vm_apps, &os_vm_apps);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(vm_apps, 0u);
  // Ordered Search modules run compiled too.
  EXPECT_GT(os_vm_apps, 0u);
}

// Bytecode round-trip property, fuzzed over the same program generator:
// for every rule version the compiler produces, the textual disassembly
// IS the serialization — compile -> Disassemble -> Deserialize ->
// Disassemble must be a fixed point.
TEST(VmBytecodeRoundTrip, DisassembleDeserializeIsFixedPoint) {
  static const char* kStrategies[] = {"", "@psn.", "@naive.",
                                      "@no_rewriting.", "@magic."};
  uint64_t compiled = 0;
  for (uint64_t seed = 9000; seed <= 9099; ++seed) {
    Lcg rng(seed);
    std::vector<GRule> rules =
        GenProgram(&rng, /*with_negation=*/rng.Next(2) == 1);
    if (rules.empty()) continue;
    Db base = GenBaseFacts(&rng);
    std::string text =
        ProgramText(rules, base, kStrategies[rng.Next(5)]);

    TermFactory factory;
    Parser parser(text, &factory);
    auto prog = parser.ParseProgram();
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    ASSERT_EQ(prog->modules.size(), 1u);
    const ModuleDecl& decl = prog->modules[0];

    RewriteOptions ropts;  // no builtins, no base cards: defaults
    for (const QueryFormDecl& form : decl.exports) {
      auto rewritten = RewriteModule(decl, form, &factory, ropts);
      if (!rewritten.ok()) {
        // The generator may export a derived predicate it never gave a
        // rule; the rewriter rejects that form and there is nothing to
        // compile — skip it.
        continue;
      }
      vm::CompileEnv cenv;  // default callbacks: nothing external
      vm::ModuleProgram mp = vm::CompileModule(*rewritten, decl, cenv);
      for (const vm::SccPrograms& sp : mp.sccs) {
        for (const auto* table : {&sp.versions, &sp.once}) {
          for (const auto& rp : *table) {
            if (rp == nullptr) continue;
            ++compiled;
            std::string d1 = vm::Disassemble(*rp);
            auto back = vm::Deserialize(d1, &factory);
            ASSERT_TRUE(back.ok()) << back.status().ToString()
                                   << "\nseed " << seed << "\n" << d1;
            EXPECT_EQ(vm::Disassemble(*back), d1)
                << "seed " << seed << "\n" << text;
          }
        }
      }
    }
  }
  // The property must have been exercised on real programs.
  EXPECT_GT(compiled, 100u);
}

// Verifier soundness over the same fuzzed corpus: every program the
// compiler emits must pass the static verifier and the whole-plan audit
// with zero errors (docs/VM.md "Verification") — the verify-after-compile
// gate must never reject legitimate compiler output.
TEST(VmVerifierProperty, CompilerOutputAlwaysVerifies) {
  static const char* kStrategies[] = {"", "@psn.", "@naive.",
                                      "@no_rewriting.", "@magic."};
  uint64_t compiled = 0;
  for (uint64_t seed = 9000; seed <= 9099; ++seed) {
    Lcg rng(seed);
    std::vector<GRule> rules =
        GenProgram(&rng, /*with_negation=*/rng.Next(2) == 1);
    if (rules.empty()) continue;
    Db base = GenBaseFacts(&rng);
    std::string text =
        ProgramText(rules, base, kStrategies[rng.Next(5)]);

    TermFactory factory;
    Parser parser(text, &factory);
    auto prog = parser.ParseProgram();
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    ASSERT_EQ(prog->modules.size(), 1u);
    const ModuleDecl& decl = prog->modules[0];

    RewriteOptions ropts;
    for (const QueryFormDecl& form : decl.exports) {
      auto rewritten = RewriteModule(decl, form, &factory, ropts);
      if (!rewritten.ok()) continue;  // unrewritable form: nothing compiled
      vm::CompileEnv cenv;
      vm::ModuleProgram mp = vm::CompileModule(*rewritten, decl, cenv);
      vm::AuditOptions opts;
      opts.rewritten = &*rewritten;
      opts.decl = &decl;
      opts.index_plan_authoritative = true;
      vm::ModuleAudit audit = vm::AuditModule(mp, opts);
      EXPECT_TRUE(audit.ok())
          << "seed " << seed << "\n" << audit.ToString() << text;
      EXPECT_EQ(audit.rejected, 0u) << "seed " << seed;
      compiled += audit.verified;
    }
  }
  EXPECT_GT(compiled, 100u);
}

TEST(DifferentialTest, AggregatesMatchReferenceFolds) {
  int restricted = 0;
  for (uint64_t seed = 5000; seed <= 5040; ++seed) {
    RunAggregateDifferential(seed, /*threads=*/1, &restricted);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(restricted, 0);
}

TEST(DifferentialTest, AutoOptimizeOnOffMatchesReference) {
  for (uint64_t seed = 6000; seed <= 6139; ++seed) {
    RunAutoOptimizeDifferential(seed, /*with_negation=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, AutoOptimizeOnOffWithNegationMatchesReference) {
  for (uint64_t seed = 7000; seed <= 7069; ++seed) {
    RunAutoOptimizeDifferential(seed, /*with_negation=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, PositiveProgramsMatchReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunDifferential(seed, /*with_negation=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, ProgramsWithBaseNegationMatchReference) {
  for (uint64_t seed = 1000; seed <= 1060; ++seed) {
    RunDifferential(seed, /*with_negation=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferentialTest, ThreadMatrixMatchesReference) {
  for (uint64_t seed = 2000; seed <= 2119; ++seed) {
    RunParallelDifferential(seed, /*with_negation=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferentialTest, ThreadMatrixWithNegationMatchesReference) {
  for (uint64_t seed = 3000; seed <= 3099; ++seed) {
    RunParallelDifferential(seed, /*with_negation=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferentialTest, ParallelAnnotationMatchesReference) {
  for (uint64_t seed = 4000; seed <= 4039; ++seed) {
    RunAnnotatedParallelDifferential(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelDifferentialTest, AggregatesUnderParallelEvaluation) {
  int restricted = 0;
  for (uint64_t seed = 5000; seed <= 5030; ++seed) {
    RunAggregateDifferential(seed, /*threads=*/4, &restricted);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(restricted, 0);
}

// ---------------------------------------------------------------------
// Parser robustness + term round-trip
// ---------------------------------------------------------------------

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  TermFactory f;
  Lcg rng(0xfa22);
  const std::string alphabet =
      "abzXY_09 ().,:-?@[]|<>=\\+*/'\"%{}\n\te";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    int len = static_cast<int>(rng.Next(60));
    for (int i = 0; i < len; ++i) {
      input += alphabet[rng.Next(alphabet.size())];
    }
    Parser p(input, &f);
    auto result = p.ParseProgram();  // must return, never crash
    (void)result;
  }
}

TEST(ParserFuzzTest, StructuredMutationsNeverCrash) {
  TermFactory f;
  Lcg rng(0xbeef);
  const std::string base =
      "module m. export p(bf). @psn. p(X, Y) :- e(X, Z), p(Z, Y), "
      "X < 3, not q([a, f(Y)]). end_module. ?- p(1, W).";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input = base;
    int n_mut = 1 + static_cast<int>(rng.Next(4));
    for (int m = 0; m < n_mut; ++m) {
      size_t pos = rng.Next(input.size());
      switch (rng.Next(3)) {
        case 0: input.erase(pos, 1); break;
        case 1: input.insert(pos, 1, "(){}.,@<>"[rng.Next(9)]); break;
        default: input[pos] = static_cast<char>(33 + rng.Next(94));
      }
    }
    Parser p(input, &f);
    auto result = p.ParseProgram();
    (void)result;
  }
}

TEST(TermRoundTripTest, PrintThenParseYieldsSameCanonicalTerm) {
  TermFactory f;
  Lcg rng(0x600d);
  // Random ground terms over ints, doubles, atoms (some quoted), strings,
  // lists and functors.
  std::function<const Arg*(int)> gen = [&](int depth) -> const Arg* {
    switch (rng.Next(depth > 0 ? 7 : 5)) {
      case 6:
        return f.MakeDouble(
            static_cast<double>(static_cast<int64_t>(rng.Next(1 << 30))) /
            (1.0 + static_cast<double>(rng.Next(997))));
      case 0: return f.MakeInt(static_cast<int64_t>(rng.Next(1000)) - 500);
      case 1: return f.MakeAtom("at" + std::to_string(rng.Next(5)));
      case 2: return f.MakeAtom("Odd name-" + std::to_string(rng.Next(3)));
      case 3: return f.MakeString("s\"x\\" + std::to_string(rng.Next(5)));
      case 4: {
        std::vector<const Arg*> elems;
        int n = static_cast<int>(rng.Next(4));
        for (int i = 0; i < n; ++i) elems.push_back(gen(depth - 1));
        return f.MakeList(elems);
      }
      default: {
        const Arg* args[] = {gen(depth - 1), gen(depth - 1)};
        return f.MakeFunctor("fn" + std::to_string(rng.Next(3)), args);
      }
    }
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const Arg* term = gen(3);
    std::string text = term->ToString();
    uint32_t vc = 0;
    auto parsed = Parser::ParseTerm(text, &f, &vc);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, term) << text;  // canonical: same node
    EXPECT_EQ(vc, 0u);
  }
}

}  // namespace
}  // namespace coral
