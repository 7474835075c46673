#include "src/rewrite/existential.h"

#include <algorithm>

namespace coral {

void CollectVars(const Arg* term, std::set<uint32_t>* out) {
  if (term->IsGround()) return;
  switch (term->kind()) {
    case ArgKind::kVariable:
      out->insert(ArgCast<Variable>(term)->slot());
      return;
    case ArgKind::kAtomOrFunctor: {
      const auto* f = ArgCast<FunctorArg>(term);
      for (const Arg* a : f->args()) CollectVars(a, out);
      return;
    }
    case ArgKind::kSet: {
      const auto* s = ArgCast<SetArg>(term);
      for (const Arg* e : s->elems()) CollectVars(e, out);
      return;
    }
    default:
      return;
  }
}

std::set<uint32_t> VarsOfLiteral(const Literal& lit) {
  std::set<uint32_t> vars;
  for (const Arg* a : lit.args) CollectVars(a, &vars);
  return vars;
}

bool TermBound(const Arg* term, const std::set<uint32_t>& bound) {
  if (term->IsGround()) return true;
  std::set<uint32_t> vars;
  CollectVars(term, &vars);
  for (uint32_t v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

const BindingModes* ModesOf(const ModesLookup& modes_of, const Literal& lit) {
  if (modes_of == nullptr || lit.negated || IsOperatorSymbol(lit.pred)) {
    return nullptr;
  }
  return modes_of(lit.pred->name, static_cast<uint32_t>(lit.args.size()));
}

bool ModeSatisfied(const BindingModes& modes, const Literal& lit,
                   const std::set<uint32_t>& bound) {
  if (!modes.in_sets.has_value()) return false;
  return std::any_of(
      modes.in_sets->begin(), modes.in_sets->end(),
      [&](const std::vector<uint32_t>& ins) {
        return std::all_of(ins.begin(), ins.end(), [&](uint32_t i) {
          return i < lit.args.size() && TermBound(lit.args[i], bound);
        });
      });
}

std::vector<std::set<uint32_t>> NeededAfter(const Rule& rule) {
  size_t n = rule.body.size();
  std::vector<std::set<uint32_t>> needed(n + 1);
  for (const Arg* a : rule.head.args) CollectVars(a, &needed[n]);
  for (size_t i = n; i-- > 0;) {
    needed[i] = needed[i + 1];
    std::set<uint32_t> vars = VarsOfLiteral(rule.body[i]);
    needed[i].insert(vars.begin(), vars.end());
  }
  return needed;
}

}  // namespace coral
