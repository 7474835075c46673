#include "src/core/module_manager.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/analysis/analyzer.h"
#include "src/core/database.h"
#include "src/rel/readview.h"
#include "src/util/logging.h"
#include "src/vm/compiler.h"

namespace coral {

namespace {

/// Scan over a completed instance's answers; keeps the instance (and thus
/// the relations backing the yielded tuples' terms — actually the factory
/// owns those, but marks and tombstones live here) alive.
class EagerAnswerIterator : public TupleIterator {
 public:
  EagerAnswerIterator(std::shared_ptr<MaterializedInstance> inst,
                      const Tuple* goal)
      : inst_(std::move(inst)),
        goal_(goal),
        env_(std::make_unique<BindEnv>(goal->var_count())) {
    std::vector<TermRef> refs;
    refs.reserve(goal_->arity());
    for (uint32_t i = 0; i < goal_->arity(); ++i) {
      refs.push_back({goal_->arg(i), env_.get()});
    }
    scan_ = inst_->answer_relation()->Select(refs, 0, kMaxMark);
    inst_->OpenAnswerScan();
  }
  ~EagerAnswerIterator() override { inst_->CloseAnswerScan(); }
  const Tuple* Next() override { return scan_->Next(); }

 private:
  std::shared_ptr<MaterializedInstance> inst_;
  const Tuple* goal_;
  std::unique_ptr<BindEnv> env_;
  std::unique_ptr<TupleIterator> scan_;
};

/// RAII guard for the inter-module call depth.
class DepthGuard {
 public:
  explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
  ~DepthGuard() { --*depth_; }

 private:
  int* depth_;
};

constexpr int kMaxCallDepth = 256;

// Per-thread: each session's query has its own module-call recursion
// budget (a member counter would be corrupted by concurrent readers).
thread_local int g_call_depth = 0;

}  // namespace

Status ModuleManager::AddModule(ModuleDecl decl, DiagnosticList* diags) {
  // Semantic analysis before registration (rule safety, binding modes,
  // export validity, annotation sanity, dead code, stratification). An
  // error — or any warning in strict mode — refuses the module and
  // leaves a previously registered version untouched.
  AnalyzerOptions opts;
  opts.strict = db_->strict();
  opts.is_builtin = db_->builtins()->IsBuiltin();
  opts.modes_of = db_->builtins()->ModesOf();
  DiagnosticList analysis = AnalyzeModule(decl, opts);
  const bool reject = analysis.ShouldReject(opts.strict);
  std::string reject_text = analysis.RejectionText(opts.strict);
  if (diags != nullptr) diags->Append(analysis);
  if (reject) {
    return Status::InvalidArgument("module " + decl.name +
                                   " rejected by semantic analysis:\n" +
                                   reject_text);
  }

  MutexLock lock(&mu_);
  // Replace an existing module of the same name. The displaced entry is
  // retired rather than destroyed: queries already running against it
  // (possible under concurrent sessions) finish on the old version.
  for (auto it = modules_.begin(); it != modules_.end(); ++it) {
    if ((*it)->decl.name == decl.name) {
      for (auto eit = export_index_.begin(); eit != export_index_.end();) {
        if (eit->second == it->get()) {
          eit = export_index_.erase(eit);
        } else {
          ++eit;
        }
      }
      for (auto lit = local_index_.begin(); lit != local_index_.end();) {
        if (lit->second == decl.name) {
          lit = local_index_.erase(lit);
        } else {
          ++lit;
        }
      }
      retired_.push_back(std::move(*it));
      modules_.erase(it);
      names_.erase(std::find(names_.begin(), names_.end(), decl.name));
      break;
    }
  }

  auto entry = std::make_unique<ModuleEntry>();
  entry->decl = std::move(decl);
  if (entry->decl.eval_mode == EvalMode::kPipelined) {
    entry->pipelined =
        std::make_unique<PipelinedModule>(&entry->decl, db_);
  }
  for (const QueryFormDecl& form : entry->decl.exports) {
    PredRef pred{form.pred, static_cast<uint32_t>(form.adornment.size())};
    export_index_[pred] = entry.get();
  }
  // Non-exported rule heads are module-local (paper §5): visible to this
  // module's own rules only.
  for (const Rule& r : entry->decl.rules) {
    PredRef head = r.head.pred_ref();
    if (export_index_.count(head) == 0) {
      local_index_[head] = entry->decl.name;
    }
  }
  names_.push_back(entry->decl.name);
  modules_.push_back(std::move(entry));
  return Status::OK();
}

bool ModuleManager::Exports(const PredRef& pred) const {
  MutexLock lock(&mu_);
  return export_index_.count(pred) > 0;
}

bool ModuleManager::ExportsUnlocked(const PredRef& pred) const {
  return export_index_.count(pred) > 0;
}

bool ModuleManager::HasLocalOwnerUnlocked(const PredRef& pred) const {
  return local_index_.count(pred) > 0 && export_index_.count(pred) == 0;
}

std::string ModuleManager::LocalOwner(const PredRef& pred) const {
  MutexLock lock(&mu_);
  auto it = local_index_.find(pred);
  // Exported elsewhere wins: a name can be local in one module and
  // exported by another.
  if (it == local_index_.end() || export_index_.count(pred) > 0) {
    return std::string();
  }
  return it->second;
}

const QueryFormDecl* ModuleManager::SelectForm(
    const ModuleEntry& entry, const PredRef& pred,
    std::span<const TermRef> args) const {
  // Query binding pattern: an argument is 'b' unless it dereferences to
  // an unbound variable (partially instantiated terms count as bound —
  // Magic Templates handles non-ground seeds).
  std::string qpat;
  for (const TermRef& r : args) {
    TermRef d = Deref(r.term, r.env);
    qpat += d.term->kind() == ArgKind::kVariable ? 'f' : 'b';
  }

  const QueryFormDecl* best = nullptr;
  int best_score = INT32_MIN;
  for (const QueryFormDecl& form : entry.decl.exports) {
    if (form.pred != pred.sym || form.adornment.size() != pred.arity) {
      continue;
    }
    int matched = 0, excess = 0;
    for (size_t i = 0; i < form.adornment.size(); ++i) {
      if (form.adornment[i] != 'b') continue;
      if (qpat[i] == 'b') {
        ++matched;
      } else {
        ++excess;  // form propagates an argument the query leaves free
      }
    }
    // Prefer forms whose bound positions are all provided by the query
    // (no free seeding); among those the most selective.
    int score = excess == 0 ? 1000 + matched : matched - 10 * excess;
    if (score > best_score) {
      best_score = score;
      best = &form;
    }
  }
  return best;
}

StatusOr<ModuleManager::CompiledForm*> ModuleManager::CompileFormLocked(
    ModuleEntry* entry, const QueryFormDecl& form) {
  std::string key = form.pred->name + "/" +
                    std::to_string(form.adornment.size()) + "@" +
                    form.adornment;
  auto it = entry->forms.find(key);
  if (it != entry->forms.end()) return &it->second;
  RewriteOptions ropts;
  ropts.auto_reorder = db_->auto_optimize();
  ropts.auto_index = db_->auto_optimize();
  ropts.is_builtin = db_->builtins()->IsBuiltin();
  ropts.modes_of = db_->builtins()->ModesOf();
  // Real base-relation sizes at compile time feed the cardinality domain.
  Database* db = db_;
  ropts.base_card = [db](const PredRef& pred) {
    Relation* rel = db->FindBaseRelation(pred);
    if (rel == nullptr) return absint::Card::kMany;  // unknown / late facts
    size_t n = rel->size();
    if (n == 0) return absint::Card::kFew;  // may still be loaded later
    if (n == 1) return absint::Card::kOne;
    return n <= 16 ? absint::Card::kFew : absint::Card::kMany;
  };
  CORAL_ASSIGN_OR_RETURN(
      RewrittenProgram prog,
      RewriteModule(entry->decl, form, db_->factory(), ropts));
  // Paper §2: "The rewritten program is stored as a text file — which is
  // useful as a debugging aid for the user."
  if (!db_->listing_dir().empty()) {
    std::string path = db_->listing_dir() + "/" + entry->decl.name + "." +
                       form.pred->name + "." + form.adornment + ".crl";
    std::ofstream out(path);
    if (out) {
      out << "% rewritten program for module " << entry->decl.name
          << ", query form " << form.pred->name << "(" << form.adornment
          << ")\n" << prog.listing;
      // The optimizer plan rides along as comment lines.
      std::istringstream plan(prog.plan);
      for (std::string line; std::getline(plan, line);) {
        out << "% " << line << "\n";
      }
    }
  }
  CompiledForm cf;
  cf.prog = std::make_unique<RewrittenProgram>(std::move(prog));
  // Dependency set for update routing: body predicates of the rewritten
  // rules that are neither module-internal (some rule's head) nor
  // builtins are base relations this form reads; module calls make the
  // form's answers depend on state we do not track.
  {
    std::unordered_set<PredRef, PredRefHash> heads;
    for (const Rule& r : cf.prog->rules) heads.insert(r.head.pred_ref());
    for (const Rule& r : cf.prog->rules) {
      for (const Literal& lit : r.body) {
        PredRef p = lit.pred_ref();
        if (heads.count(p) > 0) continue;
        if (ropts.is_builtin(p.sym->name, p.arity)) continue;
        if (ExportsUnlocked(p) || HasLocalOwnerUnlocked(p)) {
          cf.external_module_deps = true;
          continue;
        }
        cf.base_deps.insert(p);
      }
    }
  }
  // Lower the rule versions to join bytecode (docs/VM.md). Compiled
  // unconditionally so a later set_use_vm(true) finds the cached form
  // ready; whether it actually runs is decided at activation time.
  {
    vm::CompileEnv cenv;
    cenv.is_builtin = ropts.is_builtin;
    ModuleManager* self = this;
    // Unlocked variants: these callbacks run during CompileModule, below,
    // while this thread already holds mu_.
    cenv.is_module_pred = [self](const PredRef& p) {
      return self->ExportsUnlocked(p) || self->HasLocalOwnerUnlocked(p);
    };
    cf.vm = std::make_unique<vm::ModuleProgram>(
        vm::CompileModule(*cf.prog, entry->decl, cenv));
    // Whole-plan audit (docs/VM.md "Verification"): cross-check every
    // compiled program against the rewritten plan, declared indexes, and
    // the absint type facts. Audit-rejected programs are nulled out here
    // so they can never bind; they run interpreted with the reason in
    // the listing (CRL301).
    if (cf.vm->compiled > 0) {
      absint::AbsIntOptions aopts;
      aopts.is_builtin = ropts.is_builtin;
      aopts.base_card = ropts.base_card;
      if (cf.prog->answer_pred.sym != nullptr &&
          !cf.prog->answer_adornment.empty()) {
        std::vector<bool> bound;
        for (char c : cf.prog->answer_adornment) bound.push_back(c == 'b');
        aopts.seeds[cf.prog->answer_pred] = std::move(bound);
      }
      if (cf.prog->uses_magic && cf.prog->seed_pred.sym != nullptr) {
        aopts.assumed_facts.insert(cf.prog->seed_pred);
      }
      for (const auto& [magic, done] : cf.prog->done_of) {
        aopts.assumed_facts.insert(done);
      }
      absint::AnalysisResult facts =
          absint::AnalyzeRules(cf.prog->rules, cf.prog->graph, aopts);
      vm::AuditOptions vopts;
      vopts.rewritten = cf.prog.get();
      vopts.decl = &entry->decl;
      vopts.facts = &facts;
      vopts.index_plan_authoritative = db_->auto_optimize();
      cf.audit = std::make_unique<vm::ModuleAudit>(
          vm::AuditModule(*cf.vm, vopts));
      for (const vm::ProgramVerdict& v : cf.audit->verdicts) {
        if (v.report.ok()) continue;
        auto& tbl = v.once ? cf.vm->sccs[v.scc].once
                           : cf.vm->sccs[v.scc].versions;
        if (v.index < tbl.size() && tbl[v.index] != nullptr) {
          tbl[v.index].reset();
          --cf.vm->compiled;
          ++cf.vm->skipped;
          --cf.vm->verified;
          ++cf.vm->verifier_rejected;
          cf.vm->listing += "scc " + std::to_string(v.scc) +
                            (v.once ? " once " : " version ") +
                            std::to_string(v.index) +
                            " audit rejected: " +
                            v.report.FirstError()->ToString() + " [" +
                            vm::vdiag::kUnverifiable + "]\n";
        }
      }
    }
    obs::VmCounters& vc = *db_->vm_counters();
    vc.programs_verified.fetch_add(cf.vm->verified,
                                   std::memory_order_relaxed);
    vc.verifier_rejected.fetch_add(cf.vm->verifier_rejected,
                                   std::memory_order_relaxed);
    vc.compile_skips.fetch_add(cf.vm->skipped - cf.vm->verifier_rejected,
                               std::memory_order_relaxed);
    if (cf.audit != nullptr) {
      vc.verifier_warnings.fetch_add(cf.audit->warnings,
                                     std::memory_order_relaxed);
      std::string audit_text = cf.audit->ToString();
      if (!audit_text.empty()) {
        cf.prog->plan += "--- bytecode verifier ---\n" + audit_text;
      }
    }
    if (!cf.vm->listing.empty()) {
      cf.prog->plan += "--- join bytecode ---\n" + cf.vm->listing;
    }
  }
  auto [nit, inserted] = entry->forms.emplace(key, std::move(cf));
  CORAL_CHECK(inserted);
  return &nit->second;
}

std::vector<ModuleManager::FormBytecodeAudit>
ModuleManager::AuditAllBytecode() {
  MutexLock lock(&mu_);
  std::vector<FormBytecodeAudit> out;
  for (auto& entry : modules_) {
    for (const QueryFormDecl& form : entry->decl.exports) {
      FormBytecodeAudit fa;
      fa.module = entry->decl.name;
      fa.pred = form.pred->name + "/" +
                std::to_string(form.adornment.size());
      fa.adornment = form.adornment;
      if (entry->pipelined != nullptr) {
        fa.fallback_reason = "pipelined module: runs interpreted";
        out.push_back(std::move(fa));
        continue;
      }
      StatusOr<CompiledForm*> cf = CompileFormLocked(entry.get(), form);
      if (!cf.ok()) {
        fa.error = cf.status().message();
      } else {
        const CompiledForm* f = *cf;
        if (f->vm != nullptr) {
          fa.compiled = f->vm->compiled;
          fa.skipped = f->vm->skipped;
          // A module-level skip ("module interpreted: <why>") leaves no
          // compiled programs; surface the reason.
          if (f->vm->sccs.empty() && !f->vm->listing.empty()) {
            std::string_view l = f->vm->listing;
            if (l.rfind("module interpreted: ", 0) == 0) {
              l.remove_prefix(sizeof("module interpreted: ") - 1);
              size_t nl = l.find('\n');
              fa.fallback_reason =
                  std::string(l.substr(0, nl)) + ": runs interpreted";
            }
          }
        }
        if (f->audit != nullptr) fa.audit = *f->audit;
      }
      out.push_back(std::move(fa));
    }
  }
  return out;
}

void ModuleManager::InvalidateDependents(const PredRef& pred) {
  MutexLock lock(&mu_);
  for (auto& entry : modules_) {
    for (auto& [key, cf] : entry->forms) {
      if (cf.saved == nullptr) continue;
      if (cf.external_module_deps || cf.base_deps.count(pred) > 0) {
        cf.saved.reset();
      }
    }
  }
}

void ModuleManager::PropagateUpdate(const UpdateDelta& delta,
                                    UpdateResult* result) {
  // Phase 1, under mu_: collect the affected saved instances. The
  // CompiledForm pointers stay valid outside the lock (node-stable map,
  // entries never destroyed); the shared_ptr keeps each instance alive.
  struct Affected {
    CompiledForm* cf;
    std::shared_ptr<MaterializedInstance> inst;
  };
  std::vector<Affected> affected;
  {
    MutexLock lock(&mu_);
    for (auto& entry : modules_) {
      for (auto& [key, cf] : entry->forms) {
        if (cf.saved == nullptr) continue;
        bool touched = cf.external_module_deps;
        if (!touched) {
          for (const auto& [p, vec] : delta.plus) {
            if (cf.base_deps.count(p) > 0) {
              touched = true;
              break;
            }
          }
        }
        if (!touched) {
          for (const auto& [p, vec] : delta.minus) {
            if (cf.base_deps.count(p) > 0) {
              touched = true;
              break;
            }
          }
        }
        if (touched) affected.push_back({&cf, cf.saved});
      }
    }
  }

  // Phase 2, outside mu_ (the caller's commit lock serializes writers):
  // maintain covered shapes, mark the rest for invalidation. A failed
  // maintenance pass leaves the instance half-updated, so it is dropped
  // like an unmaintainable one.
  std::vector<CompiledForm*> drop;
  for (Affected& a : affected) {
    bool maintained = false;
    if (db_->maintenance_enabled() && delta.ground_only &&
        !a.cf->external_module_deps && a.inst->CanMaintain()) {
      maintained = a.inst->Maintain(delta, result).ok();
    }
    if (maintained) {
      ++result->maintained;
    } else {
      ++result->invalidated;
      drop.push_back(a.cf);
    }
  }

  // Phase 3, under mu_: drop the failures. Only reset if the saved
  // pointer is still the instance we worked on (a concurrent reader
  // cannot have replaced it — writers are serialized — but be exact).
  if (!drop.empty()) {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < affected.size(); ++i) {
      CompiledForm* cf = affected[i].cf;
      if (std::find(drop.begin(), drop.end(), cf) != drop.end() &&
          cf->saved == affected[i].inst) {
        cf->saved.reset();
      }
    }
  }
}

StatusOr<std::unique_ptr<TupleIterator>> ModuleManager::OpenQuery(
    const PredRef& pred, std::span<const TermRef> args) {
  if (g_call_depth >= kMaxCallDepth) {
    return Status::FailedPrecondition(
        "inter-module call depth exceeded (cyclic module calls?)");
  }
  DepthGuard guard(&g_call_depth);

  // Phase 1, under mu_: resolve the export and compile the form. The
  // returned pointers outlive the lock — entries are never destroyed
  // (replacement retires them), forms live in a node-stable map, and
  // decl/prog/vm are immutable once compiled.
  ModuleEntry* entry;
  CompiledForm* cf = nullptr;
  {
    MutexLock lock(&mu_);
    auto eit = export_index_.find(pred);
    if (eit == export_index_.end()) {
      return Status::NotFound("no module exports " + pred.ToString());
    }
    entry = eit->second;
    if (entry->decl.eval_mode != EvalMode::kPipelined) {
      const QueryFormDecl* form = SelectForm(*entry, pred, args);
      if (form == nullptr) {
        return Status::NotFound("no query form of " + pred.ToString() +
                                " matches this call");
      }
      CORAL_ASSIGN_OR_RETURN(cf, CompileFormLocked(entry, *form));
    }
  }

  if (obs::TraceSink* sink = db_->trace_sink()) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kModuleCall;
    ev.module = entry->decl.name;
    ev.pred = pred.ToString();
    sink->Emit(ev);
  }

  if (entry->decl.eval_mode == EvalMode::kPipelined) {
    return entry->pipelined->OpenQuery(pred, args);
  }

  // Phase 2, outside mu_: instance setup and evaluation. Init acquires
  // the database commit lock (rank below mu_), so it must not run under
  // the manager lock.
  std::shared_ptr<MaterializedInstance> inst;
  // A snapshot reader never touches the shared saved instance: it gets a
  // fresh, transient activation evaluated against its own view. The
  // save-module memo (paper §5.4.2) stays a single-threaded-writer
  // facility.
  const bool use_saved =
      entry->decl.save_module && ActiveReadView() == nullptr;
  if (use_saved) {
    if (cf->saved == nullptr) {
      auto saved = std::make_shared<MaterializedInstance>(
          cf->prog.get(), &entry->decl, db_);
      saved->set_vm_program(cf->vm.get());
      CORAL_RETURN_IF_ERROR(saved->Init());
      cf->saved = std::move(saved);
    }
    inst = cf->saved;
    if (inst->in_step()) {
      return Status::FailedPrecondition(
          "recursive invocation of save module " + entry->decl.name +
          " (paper §5.4.2 restriction)");
    }
  } else {
    inst = std::make_shared<MaterializedInstance>(cf->prog.get(),
                                                  &entry->decl, db_);
    inst->set_vm_program(cf->vm.get());
    CORAL_RETURN_IF_ERROR(inst->Init());
  }
  CORAL_RETURN_IF_ERROR(inst->Seed(args));
  {
    MutexLock lock(&mu_);
    last_instance_ = inst;
  }

  const Tuple* goal = ResolveTuple(args, db_->factory());

  // Save modules and modules with aggregate selections compute all
  // answers before returning any (paper §5.6); otherwise answers are
  // delivered per fixpoint iteration (lazy, §5.4.3).
  bool eager = entry->decl.save_module || entry->decl.eager ||
               !entry->decl.agg_selections.empty() ||
               entry->decl.ordered_search;
  if (eager) {
    CORAL_RETURN_IF_ERROR(inst->RunToCompletion());
    return std::unique_ptr<TupleIterator>(
        new EagerAnswerIterator(std::move(inst), goal));
  }
  return std::unique_ptr<TupleIterator>(
      new LazyAnswerIterator(std::move(inst), goal));
}

StatusOr<std::string> ModuleManager::RewrittenListing(
    const std::string& module_name, const std::string& pred,
    const std::string& adornment) {
  MutexLock lock(&mu_);
  for (auto& entry : modules_) {
    if (entry->decl.name != module_name) continue;
    Symbol sym = db_->factory()->symbols().Intern(pred);
    QueryFormDecl form{sym, adornment, SourceLoc{}};
    CORAL_ASSIGN_OR_RETURN(CompiledForm * cf,
                           CompileFormLocked(entry.get(), form));
    return cf->prog->listing;
  }
  return Status::NotFound("no module named " + module_name);
}

StatusOr<std::string> ModuleManager::PlanListing(
    const std::string& module_name, const std::string& pred,
    const std::string& adornment) {
  MutexLock lock(&mu_);
  for (auto& entry : modules_) {
    if (entry->decl.name != module_name) continue;
    Symbol sym = db_->factory()->symbols().Intern(pred);
    QueryFormDecl form{sym, adornment, SourceLoc{}};
    CORAL_ASSIGN_OR_RETURN(CompiledForm * cf,
                           CompileFormLocked(entry.get(), form));
    return cf->prog->plan;
  }
  return Status::NotFound("no module named " + module_name);
}

std::string ModuleManager::PlanReport() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& entry : modules_) {
    for (const auto& [key, cf] : entry->forms) {
      out += "plan for module " + entry->decl.name + ", query form " + key +
             "\n";
      out += cf.prog->plan;
      out += "\n";
    }
  }
  return out;
}

EvalStats ModuleManager::last_stats() const {
  MutexLock lock(&mu_);
  return last_instance_ == nullptr ? EvalStats{} : last_instance_->stats();
}

StatusOr<std::string> ModuleManager::ExplainLast(const Tuple* fact) const {
  std::shared_ptr<MaterializedInstance> inst;
  {
    MutexLock lock(&mu_);
    inst = last_instance_;
  }
  if (inst == nullptr) {
    return Status::FailedPrecondition("no module evaluation has run");
  }
  if (!inst->decl().explain) {
    return Status::FailedPrecondition(
        "module " + inst->decl().name +
        " does not record derivations; add the @explain annotation");
  }
  return inst->Explain(fact);
}

}  // namespace coral
