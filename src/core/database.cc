#include "src/core/database.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "src/lang/parser.h"
#include "src/obs/report.h"
#include "src/rel/hash_relation.h"
#include "src/rewrite/seminaive.h"
#include "src/util/logging.h"

namespace coral {

std::string AnswerRow::ToString() const {
  if (bindings.empty()) return "true";
  std::string s;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i) s += ", ";
    s += bindings[i].first + " = " + bindings[i].second->ToString();
  }
  return s;
}

std::string QueryResult::ToString() const {
  std::string s;
  if (rows.empty()) return "false\n";
  for (const AnswerRow& row : rows) {
    s += row.ToString();
    s += "\n";
  }
  return s;
}

namespace {

/// Single-solution generator succeeding iff `f` returns true.
class OnceFnGenerator : public BuiltinGenerator {
 public:
  explicit OnceFnGenerator(std::function<bool(Trail*)> f)
      : f_(std::move(f)) {}
  bool Next(Trail* trail) override {
    if (done_) return false;
    done_ = true;
    return f_(trail);
  }

 private:
  std::function<bool(Trail*)> f_;
  bool done_ = false;
};

/// The fact a reified term like p(a, b) denotes.
StatusOr<Rule> ReifyFact(TermRef t, TermFactory* factory) {
  TermRef r = Deref(t.term, t.env);
  if (r.term->kind() != ArgKind::kAtomOrFunctor) {
    return Status::InvalidArgument("assert/retract need a predicate term");
  }
  const auto* f = ArgCast<FunctorArg>(r.term);
  std::vector<TermRef> refs;
  refs.reserve(f->arity());
  for (const Arg* a : f->args()) refs.push_back({a, r.env});
  const Tuple* tuple = ResolveTuple(refs, factory);
  Rule fact;
  fact.head.pred = f->functor();
  fact.head.args.assign(tuple->args().begin(), tuple->args().end());
  fact.var_count = tuple->var_count();
  return fact;
}

}  // namespace

Database::Database()
    : factory_(std::make_unique<TermFactory>()),
      modules_(std::make_unique<ModuleManager>(this)) {
  builtins_.RegisterStandard();

  // Update predicates (paper §5.2: pipelining guarantees an evaluation
  // order, so side-effecting predicates like updates become meaningful).
  Database* db = this;
  auto add_update = [this](const std::string& name, BuiltinFn fn) {
    std::vector<std::vector<uint32_t>> no_inputs = {{}};
    Status st = builtins_.Register(
        name, 1, {std::move(fn), {no_inputs, name + "(?)", /*pure=*/false}});
    CORAL_CHECK(st.ok()) << st.ToString();
  };
  add_update("assert", [db](std::span<const TermRef> args,
                            TermFactory* factory)
                 -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
    TermRef t = args[0];
    return std::unique_ptr<BuiltinGenerator>(
        new OnceFnGenerator([db, t, factory](Trail*) {
          auto fact = ReifyFact(t, factory);
          // Succeeds even if a duplicate (like Prolog).
          return fact.ok() && db->InsertFact(*fact).ok();
        }));
  });
  add_update("retract", [db](std::span<const TermRef> args,
                             TermFactory* factory)
                 -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
    TermRef t = args[0];
    return std::unique_ptr<BuiltinGenerator>(
        new OnceFnGenerator([db, t, factory](Trail*) {
          auto fact = ReifyFact(t, factory);
          if (!fact.ok()) return false;
          auto removed = db->DeleteFacts(*fact);
          return removed.ok() && *removed > 0;
        }));
  });
}

Database::~Database() {
  // Teardown ordering: member declaration order would destroy stats_
  // before the thread pool and the module instances that still hold
  // ModuleProfile pointers into it. Quiesce the users first — detach the
  // trace sink, join/destroy pool workers, drop module state — so a
  // TraceSink or a profile reader can never observe a dead registry.
  trace_sink_ = nullptr;
  pool_.reset();
  modules_.reset();
}

void Database::set_num_threads(int n) {
  if (n < 1) n = 1;
  if (n > kMaxParallelThreads) n = static_cast<int>(kMaxParallelThreads);
  num_threads_ = n;
  // Term construction only needs the hash-consing lock when fixpoint
  // workers can run; single-threaded mode takes the uncontended fast
  // path — unless concurrent sessions were enabled, which is sticky.
  factory_->set_concurrent(
      num_threads_ > 1 ||
      concurrent_sessions_.load(std::memory_order_relaxed));
}

void Database::EnableConcurrentSessions() {
  // Enable-only (engages strictly more locking), hence safe at any time.
  concurrent_sessions_.store(true, std::memory_order_relaxed);
  factory_->set_concurrent(true);
}

ThreadPool* Database::thread_pool(size_t threads) {
  if (threads < 1) threads = 1;
  // Pool workers + the calling thread service a batch, so `threads`
  // workers would leave one idle; size the pool at threads - 1.
  size_t want = threads - 1;
  if (pool_ == nullptr || (want > 0 && pool_->size() < want)) {
    pool_ = std::make_unique<ThreadPool>(want > 0 ? want : 1);
  }
  return pool_.get();
}

Relation* Database::FindBaseRelation(const PredRef& pred) const {
  MutexLock lock(&base_mu_);
  auto it = base_.find(pred);
  return it == base_.end() ? nullptr : it->second;
}

Relation* Database::GetOrCreateBaseRelation(const PredRef& pred) {
  MutexLock lock(&base_mu_);
  auto it = base_.find(pred);
  if (it != base_.end()) return it->second;
  auto rel = std::make_unique<HashRelation>(pred.sym->name, pred.arity);
  // Enrolled in snapshot publication BEFORE becoming reachable through
  // the map, so a reader can never see a shared base in its pre-shared
  // state (the mutex publishes the flag).
  rel->MarkSharedBase();
  Relation* raw = rel.get();
  owned_relations_.push_back(std::move(rel));
  base_.emplace(pred, raw);
  return raw;
}

Status Database::RegisterExternalRelation(const PredRef& pred,
                                          Relation* relation) {
  CORAL_CHECK(relation != nullptr);
  if (relation->arity() != pred.arity) {
    return Status::InvalidArgument("relation arity mismatch for " +
                                   pred.ToString());
  }
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  // Non-MemoryRelation registrations (persistent relations) have no
  // snapshot protocol; concurrent sessions read them live, which
  // is safe only if the implementation is itself thread-safe.
  if (auto* mr = dynamic_cast<MemoryRelation*>(relation)) {
    mr->MarkSharedBase();
  }
  {
    MutexLock lock(&base_mu_);
    base_[pred] = relation;
  }
  // The predicate's contents changed wholesale; any saved instance that
  // read it (or its previous registration) is stale.
  modules_->InvalidateDependents(pred);
  return Status::OK();
}

StatusOr<bool> Database::InsertFact(const Rule& fact) {
  UpdateBatch batch;
  batch.inserts.push_back(fact);
  WriterLock commit(&commit_mu_);
  CORAL_ASSIGN_OR_RETURN(UpdateResult result, CommitLocked(batch));
  return result.base_inserted > 0;
}

StatusOr<size_t> Database::DeleteFacts(const Rule& fact) {
  UpdateBatch batch;
  batch.deletes.push_back(fact);
  WriterLock commit(&commit_mu_);
  CORAL_ASSIGN_OR_RETURN(UpdateResult result, CommitLocked(batch));
  return result.base_deleted;
}

StatusOr<UpdateResult> Database::ApplyUpdate(const UpdateBatch& batch) {
  WriterLock commit(&commit_mu_);
  maintenance_counters_.updates.fetch_add(1, std::memory_order_relaxed);
  return CommitLocked(batch);
}

StatusOr<UpdateResult> Database::CommitLocked(const UpdateBatch& batch) {
  // A writer acts on live state, even from a session thread whose query
  // (assert/retract) evaluates under a snapshot.
  ScopedReadView live(nullptr);
  snapshot_stale_.store(true, std::memory_order_release);

  // Validate the whole batch before the first mutation, so a rejected
  // batch changes nothing; each fact's relation and tuple are resolved
  // once. A relation that does not exist yet will be a fresh
  // HashRelation, which accepts any tuple.
  struct Resolved {
    PredRef pred;
    Relation* rel;  // nullptr: no such relation yet
    const Tuple* tuple;
  };
  auto resolve = [this](const std::vector<Rule>& facts,
                        std::vector<Resolved>* out) -> Status {
    out->reserve(facts.size());
    for (const Rule& fact : facts) {
      if (!fact.is_fact()) {
        return Status::InvalidArgument("not a fact: " + fact.ToString());
      }
      PredRef pred = fact.head.pred_ref();
      out->push_back({pred, FindBaseRelation(pred),
                      factory_->MakeTuple(fact.head.args)});
    }
    return Status::OK();
  };
  std::vector<Resolved> deletes, inserts;
  CORAL_RETURN_IF_ERROR(resolve(batch.deletes, &deletes));
  CORAL_RETURN_IF_ERROR(resolve(batch.inserts, &inserts));
  for (const Resolved& ins : inserts) {
    if (builtins_.Lookup(ins.pred.sym->name, ins.pred.arity) != nullptr) {
      return Status::Unsupported("predicate " + ins.pred.ToString() +
                                 " is computed by code and not updatable");
    }
    if (ins.rel != nullptr) {
      CORAL_RETURN_IF_ERROR(ins.rel->ValidateInsert(ins.tuple));
    }
  }

  UpdateDelta delta;
  UpdateResult result;

  // Deletions first: every stored tuple a pattern subsumes, recording the
  // tuples actually removed. The relation's indexes pick the candidates
  // (a superset); subsumption decides.
  for (const Resolved& del : deletes) {
    if (del.rel == nullptr) continue;
    BindEnv env(del.tuple->var_count());
    std::vector<TermRef> pattern;
    pattern.reserve(del.tuple->arity());
    for (const Arg* a : del.tuple->args()) pattern.push_back({a, &env});
    std::vector<const Tuple*> doomed;
    std::unique_ptr<TupleIterator> it = del.rel->Select(pattern);
    while (const Tuple* t = it->Next()) {
      if (SubsumesTuple(del.tuple, t)) doomed.push_back(t);
    }
    for (const Tuple* t : doomed) {
      if (del.rel->Delete(t)) {
        delta.minus[del.pred].push_back(t);
        if (!t->IsGround()) delta.ground_only = false;
        ++result.base_deleted;
      }
    }
  }

  // Then insertions.
  for (const Resolved& ins : inserts) {
    Relation* rel =
        ins.rel != nullptr ? ins.rel : GetOrCreateBaseRelation(ins.pred);
    if (rel->Insert(ins.tuple)) {
      delta.plus[ins.pred].push_back(ins.tuple);
      if (!ins.tuple->IsGround()) delta.ground_only = false;
      ++result.base_inserted;
    }
  }

  // Net out tuples deleted and re-inserted by the same batch: the
  // relation is unchanged for them, so maintenance must see neither side.
  for (auto pit = delta.plus.begin(); pit != delta.plus.end();) {
    auto mit = delta.minus.find(pit->first);
    if (mit != delta.minus.end()) {
      std::unordered_set<const Tuple*> minus_set(mit->second.begin(),
                                                 mit->second.end());
      std::unordered_set<const Tuple*> both;
      for (const Tuple* t : pit->second) {
        if (minus_set.count(t) > 0) both.insert(t);
      }
      if (!both.empty()) {
        auto strip = [&both](std::vector<const Tuple*>* v) {
          v->erase(std::remove_if(v->begin(), v->end(),
                                  [&both](const Tuple* t) {
                                    return both.count(t) > 0;
                                  }),
                   v->end());
        };
        strip(&pit->second);
        strip(&mit->second);
      }
      if (mit->second.empty()) delta.minus.erase(mit);
    }
    pit = pit->second.empty() ? delta.plus.erase(pit) : std::next(pit);
  }

  if (!delta.empty()) {
    modules_->PropagateUpdate(delta, &result);
  }

  maintenance_counters_.maintained.fetch_add(result.maintained,
                                             std::memory_order_relaxed);
  maintenance_counters_.invalidated.fetch_add(result.invalidated,
                                              std::memory_order_relaxed);
  maintenance_counters_.derived_inserted.fetch_add(
      result.derived_inserted, std::memory_order_relaxed);
  maintenance_counters_.derived_deleted.fetch_add(
      result.derived_deleted, std::memory_order_relaxed);
  maintenance_counters_.rederived.fetch_add(result.rederived,
                                            std::memory_order_relaxed);
  return result;
}

Status Database::ApplyIndexDecl(const IndexDecl& decl) {
  PredRef pred{decl.pred, static_cast<uint32_t>(decl.pattern.size())};
  auto* rel = dynamic_cast<HashRelation*>(GetOrCreateBaseRelation(pred));
  if (rel == nullptr) {
    return Status::Unsupported("@make_index: relation " + pred.ToString() +
                               " does not support in-memory indices");
  }
  if (decl.argument_form) {
    rel->AddArgumentIndex(decl.cols);
  } else {
    rel->AddPatternIndex(decl.pattern, decl.var_count, decl.key_slots);
  }
  return Status::OK();
}

Status Database::ApplyAggSelDecl(const AggSelDecl& decl) {
  PredRef pred{decl.pred, static_cast<uint32_t>(decl.pattern.size())};
  Relation* rel = GetOrCreateBaseRelation(pred);
  rel->AddAggregateSelection(std::make_unique<AggregateSelection>(
      decl.kind, decl.pattern, decl.var_count, decl.group_args,
      decl.agg_arg));
  return Status::OK();
}

StatusOr<std::vector<Query>> Database::Consult(std::string_view text) {
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  return ConsultLocked(text);
}

StatusOr<std::vector<Query>> Database::ConsultLocked(std::string_view text) {
  last_diagnostics_ = DiagnosticList();
  Parser parser(text, factory_.get());
  CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
  // Annotations first: indices backfill, but aggregate selections only
  // constrain inserts made after they are attached.
  for (const IndexDecl& decl : prog.top_indexes) {
    CORAL_RETURN_IF_ERROR(ApplyIndexDecl(decl));
  }
  for (const AggSelDecl& decl : prog.top_agg_selections) {
    CORAL_RETURN_IF_ERROR(ApplyAggSelDecl(decl));
  }
  UpdateBatch facts;
  facts.inserts = std::move(prog.top_facts);
  CORAL_RETURN_IF_ERROR(CommitLocked(facts).status());
  for (ModuleDecl& mod : prog.modules) {
    CORAL_RETURN_IF_ERROR(
        modules_->AddModule(std::move(mod), &last_diagnostics_));
  }
  return std::move(prog.queries);
}

std::shared_ptr<const ReadView> Database::AcquireReadSnapshot() {
  {
    // Fast path: nothing committed since the last publication — share
    // the cached view under the reader lock.
    ReaderLock lock(&commit_mu_);
    if (!snapshot_stale_.load(std::memory_order_acquire) &&
        view_ != nullptr) {
      return view_;
    }
  }
  // Publication is deferred to acquisition time (not done per commit) so
  // a bulk load of N facts publishes once, not N times.
  WriterLock lock(&commit_mu_);
  if (snapshot_stale_.load(std::memory_order_relaxed) || view_ == nullptr) {
    PublishLocked();
  }
  return view_;
}

void Database::PublishLocked() {
  uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto view = std::make_shared<ReadView>();
  view->epoch = epoch;
  {
    MutexLock lock(&base_mu_);
    for (const auto& [pred, rel] : base_) {
      auto* mr = dynamic_cast<MemoryRelation*>(rel);
      if (mr == nullptr || !mr->is_shared_base()) continue;
      if (mr->publish_dirty()) mr->PublishCommitted(epoch);
      if (const RelReadTable* table = mr->published_table()) {
        view->tables.emplace(rel, table);
      }
    }
  }
  view_ = std::move(view);
  snapshot_stale_.store(false, std::memory_order_release);
}

StatusOr<std::vector<Query>> Database::ConsultFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Consult(buf.str());
}

StatusOr<QueryResult> Database::ExecuteQuery(const Query& query) {
  QueryResult result;
  result.query = query;

  BindEnv env(query.var_count);
  Trail trail;
  ExternalResolver resolver(this);
  std::vector<std::unique_ptr<GoalSource>> sources;
  sources.reserve(query.body.size());
  for (const Literal& lit : query.body) {
    CORAL_ASSIGN_OR_RETURN(std::unique_ptr<GoalSource> src,
                           resolver.Make(&lit, &env));
    sources.push_back(std::move(src));
  }
  Rule pseudo;
  pseudo.body = query.body;
  RuleCursor cursor(std::move(sources), ComputeBacktrackPoints(pseudo),
                    /*intelligent_bt=*/true, &trail);

  // Named variables reported in declaration order.
  std::vector<std::pair<std::string, const Variable*>> named;
  for (uint32_t slot = 0; slot < query.var_count; ++slot) {
    const std::string& name = query.var_names[slot];
    if (!name.empty() && name[0] != '_') {
      named.emplace_back(name, factory_->MakeVariable(slot, name));
    }
  }

  std::unordered_set<std::string> seen;
  while (cursor.Next()) {
    AnswerRow row;
    for (const auto& [name, var] : named) {
      VarRenamer renamer;
      const Arg* value = ResolveTerm(var, &env, factory_.get(), &renamer);
      row.bindings.emplace_back(name, value);
    }
    // Top-level answers are shown set-style: duplicates collapse.
    std::string key = row.ToString();
    if (seen.insert(key).second) result.rows.push_back(std::move(row));
  }
  cursor.UndoAll();
  CORAL_RETURN_IF_ERROR(cursor.status());
  return result;
}

StatusOr<QueryResult> Database::EvalQuery(const std::string& text) {
  std::string q = text;
  // Trim leading whitespace.
  size_t start = q.find_first_not_of(" \t\r\n");
  q = start == std::string::npos ? "" : q.substr(start);
  if (q.rfind("?-", 0) != 0 && q.rfind("?", 0) != 0) q = "?- " + q;
  size_t end = q.find_last_not_of(" \t\r\n");
  if (end != std::string::npos && q[end] != '.') q += ".";
  Parser parser(q, factory_.get());
  CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
  if (prog.queries.size() != 1) {
    return Status::InvalidArgument("expected exactly one query");
  }
  return ExecuteQuery(prog.queries[0]);
}

StatusOr<std::string> Database::Explain(const std::string& fact_text) {
  uint32_t var_count = 0;
  CORAL_ASSIGN_OR_RETURN(const Arg* term,
                         Parser::ParseTerm(fact_text, factory_.get(),
                                           &var_count));
  if (term->kind() != ArgKind::kAtomOrFunctor) {
    return Status::InvalidArgument("expected a fact like anc(a, c)");
  }
  const auto* f = ArgCast<FunctorArg>(term);
  std::vector<TermRef> refs;
  refs.reserve(f->arity());
  for (const Arg* a : f->args()) refs.push_back({a, nullptr});
  const Tuple* tuple = ResolveTuple(refs, factory_.get());
  return modules_->ExplainLast(tuple);
}

std::string Database::ProfileReport() const {
  std::string out = obs::RenderReport(stats_);
  const obs::MaintenanceCounters& mc = maintenance_counters_;
  uint64_t updates = mc.updates.load(std::memory_order_relaxed);
  uint64_t maintained = mc.maintained.load(std::memory_order_relaxed);
  uint64_t invalidated = mc.invalidated.load(std::memory_order_relaxed);
  // Every base write repairs or drops saved instances, but only
  // ApplyUpdate calls count as batches: show the section on either.
  if (updates + maintained + invalidated > 0) {
    out += "--- incremental updates ---\n";
    out += "ApplyUpdate calls: " + std::to_string(updates) + "\n";
    out += "maintained:        " + std::to_string(maintained) + "\n";
    out += "invalidated:       " + std::to_string(invalidated) + "\n";
    out += "derived inserted:  " +
           std::to_string(
               mc.derived_inserted.load(std::memory_order_relaxed)) +
           "\n";
    out += "derived deleted:   " +
           std::to_string(
               mc.derived_deleted.load(std::memory_order_relaxed)) +
           "\n";
    out += "rederived:         " +
           std::to_string(mc.rederived.load(std::memory_order_relaxed)) +
           "\n";
  }
  return out;
}

StatusOr<std::string> Database::PlanListing(const std::string& module_name,
                                            const std::string& pred,
                                            const std::string& adornment) {
  return modules_->PlanListing(module_name, pred, adornment);
}

std::string Database::PlanReport() const { return modules_->PlanReport(); }

std::string Database::BytecodeVerifierReport() {
  std::string out = "=== bytecode verifier ===\n";
  for (ModuleManager::FormBytecodeAudit& fa : modules_->AuditAllBytecode()) {
    out += "module " + fa.module + ", query form " + fa.pred;
    if (!fa.adornment.empty()) out += "(" + fa.adornment + ")";
    out += ":\n";
    if (!fa.error.empty()) {
      out += "  " + fa.error + "\n";
      continue;
    }
    out += "  compiled " + std::to_string(fa.compiled) + ", interpreted " +
           std::to_string(fa.skipped) + "\n";
    std::string audit = fa.audit.ToString();
    if (audit.empty()) audit = "no compiled programs\n";
    std::istringstream lines(audit);
    for (std::string line; std::getline(lines, line);) {
      out += "  " + line + "\n";
    }
  }
  return out;
}

StatusOr<std::string> Database::Run(std::string_view text) {
  CORAL_ASSIGN_OR_RETURN(std::vector<Query> queries, Consult(text));
  std::string out;
  for (const Query& q : queries) {
    CORAL_ASSIGN_OR_RETURN(QueryResult result, ExecuteQuery(q));
    out += result.query.ToString();
    out += "\n";
    out += result.ToString();
  }
  return out;
}

}  // namespace coral
