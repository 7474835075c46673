// Copyright (c) 1993-style CORAL reproduction authors.

#include "src/vm/compiler.h"

#include <memory>
#include <sstream>
#include <unordered_set>

#include "src/vm/verifier.h"

namespace coral::vm {

namespace {

bool CmpFromName(const std::string& name, CmpOp* out) {
  if (name == "<") {
    *out = CmpOp::kLt;
  } else if (name == ">") {
    *out = CmpOp::kGt;
  } else if (name == "=<") {
    *out = CmpOp::kLe;
  } else if (name == ">=") {
    *out = CmpOp::kGe;
  } else if (name == "=") {
    *out = CmpOp::kEq;
  } else if (name == "\\=") {
    *out = CmpOp::kNe;
  } else {
    return false;
  }
  return true;
}

class RuleCompiler {
 public:
  RuleCompiler(const Rule& rule, uint32_t rule_index,
               std::span<const RangeSel> ranges, const InternalSet& internal,
               const CompileEnv& env)
      : rule_(rule),
        rule_index_(rule_index),
        ranges_(ranges),
        internal_(internal),
        env_(env) {}

  /// Null (with `why` set) when the rule shape is outside the VM model.
  std::unique_ptr<RuleProgram> Compile(std::string* why) {
    auto rp = std::make_unique<RuleProgram>();
    rp_ = rp.get();
    rp_->rule_index = rule_index_;
    rp_->nregs = rule_.var_count;
    rp_->head_pred = rule_.head.pred_ref();
    load_level_.assign(rule_.var_count, -1);

    for (size_t li = 0; li < rule_.body.size(); ++li) {
      const Literal& lit = rule_.body[li];
      if (lit.negated) {
        *why = "negated literal";
        return nullptr;
      }
      PredRef p = lit.pred_ref();
      if (internal_.count(p) == 0) {
        if (env_.is_builtin(p.sym->name, p.arity)) {
          if (!EmitTest(lit, why)) return nullptr;
          continue;
        }
        if (env_.is_module_pred(p)) {
          *why = "cross-module literal " + p.ToString();
          return nullptr;
        }
      }
      if (!EmitLevel(lit, static_cast<uint32_t>(li), why)) return nullptr;
    }
    if (rp_->preds.empty()) {
      *why = "no relation literal in body";
      return nullptr;
    }
    for (const Arg* a : rule_.head.args) {
      Operand o;
      if (!LowerOperand(a, &o, why)) {
        *why = "head: " + *why;
        return nullptr;
      }
      if (!o.is_const && load_level_[o.index] < 0) {
        *why = "head variable not bound by a scan";
        return nullptr;
      }
      rp_->head.push_back(o);
    }
    Instr project;
    project.op = Op::kProject;
    rp_->code.push_back(project);
    Instr insert;
    insert.op = Op::kInsert;
    rp_->code.push_back(insert);
    Status st = BuildLevels(rp_);
    if (!st.ok()) {
      *why = st.message();
      return nullptr;
    }
    return rp;
  }

 private:
  /// A plain variable or ground term as a register/constant operand.
  bool LowerOperand(const Arg* a, Operand* out, std::string* why) {
    if (a->kind() == ArgKind::kVariable) {
      out->is_const = false;
      out->index = ArgCast<Variable>(a)->slot();
      return true;
    }
    if (a->IsGround()) {
      out->is_const = true;
      out->index = ConstSlot(a);
      return true;
    }
    *why = "non-ground structured argument";
    return false;
  }

  uint32_t ConstSlot(const Arg* a) {
    // Constants are canonical, so pointer equality dedups the pool.
    for (uint32_t i = 0; i < rp_->consts.size(); ++i) {
      if (rp_->consts[i] == a) return i;
    }
    rp_->consts.push_back(a);
    return static_cast<uint32_t>(rp_->consts.size()) - 1;
  }

  bool EmitTest(const Literal& lit, std::string* why) {
    Instr t;
    t.op = Op::kTestBuiltin;
    if (lit.args.size() != 2 || !CmpFromName(lit.pred->name, &t.cmp)) {
      *why = "builtin " + lit.pred_ref().ToString();
      return false;
    }
    if (rp_->preds.empty()) {
      *why = "comparison before first scan";
      return false;
    }
    Operand* ops[2] = {&t.a, &t.b};
    for (int i = 0; i < 2; ++i) {
      if (!LowerOperand(lit.args[i], ops[i], why)) {
        *why = "comparison: " + *why;
        return false;
      }
      if (!ops[i]->is_const && load_level_[ops[i]->index] < 0) {
        // `=` over an unbound variable is an assignment, and any other
        // comparison over one is a runtime error — both interpreter work.
        *why = "comparison over unbound variable";
        return false;
      }
    }
    rp_->code.push_back(t);
    return true;
  }

  bool EmitLevel(const Literal& lit, uint32_t li, std::string* why) {
    int level = static_cast<int>(rp_->preds.size());
    rp_->preds.push_back(lit.pred_ref());
    size_t scan_at = rp_->code.size();
    Instr s;
    s.op = Op::kScanFull;
    s.lit = li;
    s.pred = static_cast<uint32_t>(level);
    s.window = li < ranges_.size() ? ranges_[li] : RangeSel::kFull;
    rp_->code.push_back(s);
    bool has_key = false;
    for (uint32_t col = 0; col < lit.args.size(); ++col) {
      Instr u;
      u.op = Op::kUnifyArg;
      u.col = col;
      if (!LowerOperand(lit.args[col], &u.a, why)) return false;
      if (u.a.is_const) {
        u.mode = UnifyMode::kMatchConst;
        has_key = true;
      } else if (load_level_[u.a.index] < 0) {
        u.mode = UnifyMode::kLoadReg;
        load_level_[u.a.index] = level;
      } else {
        u.mode = UnifyMode::kCheckReg;
        if (load_level_[u.a.index] < level) has_key = true;
      }
      rp_->code.push_back(u);
    }
    rp_->code[scan_at].op =
        has_key ? Op::kProbeIndex
                : (s.window == RangeSel::kDelta ? Op::kScanDelta
                                                : Op::kScanFull);
    return true;
  }

  const Rule& rule_;
  uint32_t rule_index_;
  std::span<const RangeSel> ranges_;
  const InternalSet& internal_;
  const CompileEnv& env_;
  RuleProgram* rp_ = nullptr;
  std::vector<int> load_level_;
};

}  // namespace

CompiledRule CompileRule(const Rule& rule, uint32_t rule_index,
                         std::span<const RangeSel> ranges,
                         const InternalSet& internal, const CompileEnv& env) {
  CompiledRule out;
  out.prog = RuleCompiler(rule, rule_index, ranges, internal, env)
                 .Compile(&out.why);
  if (out.prog == nullptr) return out;
  // Verify-after-compile: a program the static verifier rejects must
  // never bind (CRL301).
  VerifyReport report = VerifyProgram(*out.prog);
  if (const VerifyFinding* err = report.FirstError(); err != nullptr) {
    out.why = "verifier: " + err->ToString() + " [" + vdiag::kUnverifiable +
              "]";
    out.verifier_rejected = true;
    out.prog.reset();
  }
  return out;
}

ModuleProgram CompileModule(const RewrittenProgram& prog,
                            const ModuleDecl& decl, const CompileEnv& env) {
  ModuleProgram out;
  std::ostringstream listing;
  const char* module_skip = nullptr;
  if (decl.no_vm) {
    module_skip = "@no_vm";
  } else if (prog.ordered_search || decl.ordered_search) {
    module_skip = "ordered search";
  } else if (decl.explain) {
    module_skip = "@explain";
  } else if (decl.eval_mode == EvalMode::kPipelined) {
    module_skip = "pipelined";
  }
  if (module_skip != nullptr) {
    listing << "module interpreted: " << module_skip << "\n";
    out.listing = listing.str();
    return out;
  }

  // Predicates the evaluator materializes inside the module instance;
  // everything else is a base relation, a builtin, or another module.
  InternalSet internal;
  for (const Rule& r : prog.rules) internal.insert(r.head.pred_ref());
  if (prog.answer_pred.sym != nullptr) internal.insert(prog.answer_pred);
  if (prog.uses_magic && prog.seed_pred.sym != nullptr) {
    internal.insert(prog.seed_pred);
  }
  for (const auto& [magic, done] : prog.done_of) internal.insert(done);

  out.sccs.resize(prog.seminaive.sccs.size());
  for (size_t si = 0; si < prog.seminaive.sccs.size(); ++si) {
    const SccPlan& plan = prog.seminaive.sccs[si];
    auto compile_table =
        [&](const std::vector<RuleVersion>& versions, const char* kind,
            std::vector<std::unique_ptr<RuleProgram>>* table) {
          for (size_t vi = 0; vi < versions.size(); ++vi) {
            const RuleVersion& v = versions[vi];
            CompiledRule c;
            if (v.is_aggregate) {
              c.why = "aggregate head";
            } else {
              c = CompileRule(prog.rules[v.rule_index], v.rule_index,
                              v.ranges, internal, env);
            }
            listing << "scc " << si << " " << kind << " " << vi;
            if (c.prog != nullptr) {
              ++out.verified;
              ++out.compiled;
              listing << " delta=" << v.delta_pos << "\n"
                      << Disassemble(*c.prog);
            } else {
              if (c.verifier_rejected) ++out.verifier_rejected;
              ++out.skipped;
              listing << " interpreted: " << c.why << "\n";
            }
            table->push_back(std::move(c.prog));
          }
        };
    compile_table(plan.versions, "version", &out.sccs[si].versions);
    compile_table(plan.once, "once", &out.sccs[si].once);
  }
  out.listing = listing.str();
  return out;
}

}  // namespace coral::vm
