#include "src/rewrite/supmagic.h"

#include <set>

#include "src/rewrite/existential.h"
#include "src/util/logging.h"

namespace coral {

StatusOr<MagicProgram> SupplementaryMagic(const AdornedProgram& adorned,
                                          TermFactory* factory) {
  MagicProgram out;

  auto magic_pred_of = [&](const PredRef& p) {
    const AdornInfo& info = adorned.adorned.at(p);
    uint32_t bound = 0;
    for (char c : info.adornment) bound += c == 'b';
    PredRef mp{factory->symbols().Intern("m_" + p.sym->name), bound};
    out.magic_of.emplace(p, mp);
    return mp;
  };

  out.seed_pred = magic_pred_of(adorned.query_pred);

  uint32_t rule_index = 0;
  for (const Rule& r : adorned.rules) {
    ++rule_index;
    PredRef head = r.head.pred_ref();
    const AdornInfo& head_info = adorned.adorned.at(head);
    magic_pred_of(head);
    Literal head_magic =
        MakeMagicLiteral(r.head, head_info.adornment, factory);

    std::vector<std::set<uint32_t>> needed = NeededAfter(r);

    // The running rule prefix: starts at the head's magic literal; split
    // into a supplementary predicate before each positive adorned body
    // literal, so the prefix join is computed once and shared between the
    // magic rule and the answer join.
    std::vector<Literal> prefix = {head_magic};
    std::set<uint32_t> available;
    for (const Arg* a : head_magic.args) CollectVars(a, &available);

    for (size_t i = 0; i < r.body.size(); ++i) {
      const Literal& lit = r.body[i];
      auto it = adorned.adorned.find(lit.pred_ref());
      if (it == adorned.adorned.end()) {
        // External literal: stays in the prefix.
        prefix.push_back(lit);
        if (!lit.negated) {
          std::set<uint32_t> vars = VarsOfLiteral(lit);
          available.insert(vars.begin(), vars.end());
        }
        continue;
      }

      magic_pred_of(lit.pred_ref());
      if (it->second.restricted) {
        // Restricted subgoal (never negated): its magic comes from the
        // head's magic alone, so no split is needed; the literal joins the
        // prefix in place.
        Rule magic_rule;
        magic_rule.head = MakeMagicLiteral(lit, it->second.adornment, factory);
        magic_rule.head.negated = false;
        magic_rule.body = {head_magic};
        magic_rule.var_count = r.var_count;
        magic_rule.var_names = r.var_names;
        out.rules.push_back(std::move(magic_rule));
        prefix.push_back(lit);
        std::set<uint32_t> vars = VarsOfLiteral(lit);
        available.insert(vars.begin(), vars.end());
        continue;
      }
      if (lit.negated) {
        // Seed the negated subquery from the prefix; the negated literal
        // itself remains in the prefix as an anti-join.
        Rule magic_rule;
        magic_rule.head = MakeMagicLiteral(lit, it->second.adornment, factory);
        magic_rule.head.negated = false;
        magic_rule.body = prefix;
        magic_rule.var_count = r.var_count;
        magic_rule.var_names = r.var_names;
        out.rules.push_back(std::move(magic_rule));
        prefix.push_back(lit);
        continue;
      }

      // Split point. Materialize the prefix when it is a real join; a
      // single-literal prefix is used directly (no sup indirection).
      Literal chain_lit;
      if (prefix.size() == 1) {
        chain_lit = prefix[0];
      } else {
        // Live variables: available now and needed by this literal or
        // anything after it (projection pruning).
        std::vector<const Arg*> sup_args;
        for (uint32_t slot : available) {
          if (needed[i].count(slot)) {
            const std::string& name =
                slot < r.var_names.size() ? r.var_names[slot] : "_v";
            sup_args.push_back(factory->MakeVariable(slot, name));
          }
        }
        Symbol sup_sym = factory->symbols().Intern(
            "sup@" + std::to_string(rule_index) + "_" + std::to_string(i) +
            "_" + head.sym->name);
        Literal sup_lit;
        sup_lit.pred = sup_sym;
        sup_lit.args = std::move(sup_args);

        Rule sup_rule;
        sup_rule.head = sup_lit;
        sup_rule.body = prefix;
        sup_rule.var_count = r.var_count;
        sup_rule.var_names = r.var_names;
        out.rules.push_back(std::move(sup_rule));
        chain_lit = sup_lit;
      }

      // Magic rule for this subgoal from the (materialized) prefix.
      Rule magic_rule;
      magic_rule.head = MakeMagicLiteral(lit, it->second.adornment, factory);
      magic_rule.body = {chain_lit};
      magic_rule.var_count = r.var_count;
      magic_rule.var_names = r.var_names;
      out.rules.push_back(std::move(magic_rule));

      // Continue the chain with the answer join of this literal.
      prefix = {chain_lit, lit};
      std::set<uint32_t> vars = VarsOfLiteral(lit);
      available.insert(vars.begin(), vars.end());
    }

    Rule answer;
    answer.head = r.head;
    answer.body = std::move(prefix);
    answer.var_count = r.var_count;
    answer.var_names = r.var_names;
    out.rules.push_back(std::move(answer));
  }
  return out;
}

}  // namespace coral
