#include "src/rewrite/magic.h"

#include "src/util/logging.h"

namespace coral {

namespace {

Symbol MagicSym(const PredRef& adorned_pred, TermFactory* factory) {
  return factory->symbols().Intern("m_" + adorned_pred.sym->name);
}

}  // namespace

Literal MakeMagicLiteral(const Literal& lit, const std::string& adornment,
                         TermFactory* factory) {
  Literal magic;
  magic.pred = MagicSym(lit.pred_ref(), factory);
  for (uint32_t i = 0; i < adornment.size(); ++i) {
    if (adornment[i] == 'b') magic.args.push_back(lit.args[i]);
  }
  return magic;
}

StatusOr<MagicProgram> MagicTemplates(const AdornedProgram& adorned,
                                      TermFactory* factory) {
  MagicProgram out;

  auto magic_pred_of = [&](const PredRef& p) {
    const AdornInfo& info = adorned.adorned.at(p);
    uint32_t bound = 0;
    for (char c : info.adornment) bound += c == 'b';
    PredRef mp{MagicSym(p, factory), bound};
    out.magic_of.emplace(p, mp);
    return mp;
  };

  out.seed_pred = magic_pred_of(adorned.query_pred);

  for (const Rule& r : adorned.rules) {
    PredRef head = r.head.pred_ref();
    const AdornInfo& head_info = adorned.adorned.at(head);
    Literal head_magic =
        MakeMagicLiteral(r.head, head_info.adornment, factory);
    magic_pred_of(head);

    // Magic rules: one per adorned body literal, from the prefix.
    for (size_t i = 0; i < r.body.size(); ++i) {
      const Literal& lit = r.body[i];
      auto it = adorned.adorned.find(lit.pred_ref());
      if (it == adorned.adorned.end()) continue;
      magic_pred_of(lit.pred_ref());
      Rule magic_rule;
      magic_rule.head = MakeMagicLiteral(lit, it->second.adornment, factory);
      magic_rule.head.negated = false;
      magic_rule.body.push_back(head_magic);
      if (!it->second.restricted) {
        for (size_t j = 0; j < i; ++j) magic_rule.body.push_back(r.body[j]);
      }
      magic_rule.var_count = r.var_count;
      magic_rule.var_names = r.var_names;
      out.rules.push_back(std::move(magic_rule));
    }

    // Modified original rule, guarded by the head's magic literal.
    Rule guarded = r;
    guarded.body.insert(guarded.body.begin(), head_magic);
    out.rules.push_back(std::move(guarded));
  }
  return out;
}

}  // namespace coral
