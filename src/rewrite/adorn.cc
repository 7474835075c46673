#include "src/rewrite/adorn.h"

#include <deque>

#include "src/rewrite/depgraph.h"
#include "src/rewrite/existential.h"
#include "src/util/logging.h"

namespace coral {

namespace {

std::string AdornedName(const PredRef& pred, const std::string& ad) {
  return pred.sym->name + "@" + ad;
}

}  // namespace

bool IsAggMarkerArg(const Arg* arg) {
  if (arg->kind() != ArgKind::kAtomOrFunctor) return false;
  const auto* f = ArgCast<FunctorArg>(arg);
  if (f->name() == kGroupMarker) return true;
  if (f->arity() == 1 && AggFnFromName(f->name()) != AggFn::kNone) {
    const Arg* inner = f->arg(0);
    return inner->kind() == ArgKind::kAtomOrFunctor &&
           ArgCast<FunctorArg>(inner)->name() == kGroupMarker;
  }
  return false;
}

std::vector<uint32_t> BoundPositions(const std::string& adornment) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < adornment.size(); ++i) {
    if (adornment[i] == 'b') out.push_back(i);
  }
  return out;
}

StatusOr<AdornedProgram> AdornProgram(
    const std::vector<Rule>& rules,
    const std::unordered_set<PredRef, PredRefHash>& derived,
    const std::unordered_set<PredRef, PredRefHash>& no_adorn,
    const PredRef& query_pred, const std::string& adornment,
    TermFactory* factory,
    const std::unordered_set<PredRef, PredRefHash>& restricted) {
  if (adornment.size() != query_pred.arity) {
    return Status::InvalidArgument(
        "adornment " + adornment + " does not match arity of " +
        query_pred.ToString());
  }

  // Rules indexed by head predicate.
  std::unordered_map<PredRef, std::vector<const Rule*>, PredRefHash> defs;
  for (const Rule& r : rules) defs[r.head.pred_ref()].push_back(&r);

  auto adornable = [&](const PredRef& p) {
    return derived.count(p) > 0 && no_adorn.count(p) == 0;
  };

  AdornedProgram out;
  std::deque<std::pair<PredRef, std::string>> worklist;
  std::unordered_set<std::string> seen;  // "name/arity@ad"

  auto enqueue = [&](const PredRef& p, std::string ad) -> PredRef {
    // A value bound at an aggregate result selects among the groups and
    // restricts no rule: the position is adorned free, and the bound value
    // filters the answers.
    if (auto it = defs.find(p); it != defs.end()) {
      for (const Rule* r : it->second) {
        for (size_t i = 0; i < ad.size(); ++i) {
          if (IsAggMarkerArg(r->head.args[i])) ad[i] = 'f';
        }
      }
    }
    Symbol sym = factory->symbols().Intern(AdornedName(p, ad));
    PredRef ap{sym, p.arity};
    std::string key = p.ToString() + "@" + ad;
    if (seen.insert(key).second) {
      worklist.emplace_back(p, ad);
      out.adorned.emplace(ap, AdornInfo{p, ad, restricted.count(p) > 0});
    }
    return ap;
  };

  out.query_pred = enqueue(query_pred, adornment);

  while (!worklist.empty()) {
    auto [pred, ad] = worklist.front();
    worklist.pop_front();
    Symbol head_sym = factory->symbols().Intern(AdornedName(pred, ad));
    auto it = defs.find(pred);
    if (it == defs.end()) continue;  // no rules: empty adorned predicate

    for (const Rule* orig : it->second) {
      Rule r = *orig;  // copy shares Arg terms (immutable)
      r.head.pred = head_sym;

      // Variables bound by the head's bound arguments.
      std::set<uint32_t> bound;
      for (uint32_t i = 0; i < ad.size(); ++i) {
        if (ad[i] == 'b') CollectVars(r.head.args[i], &bound);
      }
      const std::set<uint32_t> head_bound = bound;

      for (Literal& lit : r.body) {
        PredRef bp = lit.pred_ref();
        if (adornable(bp)) {
          const std::set<uint32_t>& from =
              restricted.count(bp) > 0 ? head_bound : bound;
          std::string body_ad;
          for (const Arg* a : lit.args) {
            body_ad += TermBound(a, from) ? 'b' : 'f';
          }
          PredRef ap = enqueue(bp, body_ad);
          lit.pred = ap.sym;
        }
        // Binding propagation: a positive literal binds all its variables
        // once evaluated; negation binds nothing.
        if (!lit.negated) {
          std::set<uint32_t> vars = VarsOfLiteral(lit);
          bound.insert(vars.begin(), vars.end());
        }
      }
      out.rules.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace coral
