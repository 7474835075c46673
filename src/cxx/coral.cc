#include "src/cxx/coral.h"

#include "src/core/module_eval.h"
#include "src/lang/parser.h"

namespace coral {

namespace {

/// A C++ predicate's answers as a builtin generator: each tuple the
/// definition produced is unified with the call's arguments in turn.
class TupleGenerator : public BuiltinGenerator {
 public:
  TupleGenerator(std::span<const TermRef> args,
                 std::vector<const Tuple*> tuples)
      : args_(args.begin(), args.end()),
        tuples_(std::move(tuples)),
        tuple_env_(0) {}

  bool Next(Trail* trail) override {
    while (pos_ < tuples_.size()) {
      const Tuple* t = tuples_[pos_++];
      if (t->arity() != args_.size()) continue;
      tuple_env_.EnsureSize(t->var_count());
      Trail::Mark m = trail->mark();
      bool match = true;
      for (uint32_t i = 0; i < t->arity() && match; ++i) {
        match = Unify(args_[i].term, args_[i].env, t->arg(i), &tuple_env_,
                      trail);
      }
      if (match) return true;
      trail->UndoTo(m);
    }
    return false;
  }

 private:
  std::vector<TermRef> args_;
  std::vector<const Tuple*> tuples_;
  size_t pos_ = 0;
  BindEnv tuple_env_;
};

}  // namespace

StatusOr<const Arg*> Coral::Term(const std::string& text) {
  uint32_t var_count = 0;
  return Parser::ParseTerm(text, factory(), &var_count);
}

Relation* Coral::GetRelation(const std::string& name, uint32_t arity) {
  // A predicate computed by code stores nothing: a relation under its
  // name would hold tuples no query reads.
  if (db_->builtins()->Lookup(name, arity) != nullptr) return nullptr;
  PredRef pred{factory()->symbols().Intern(name), arity};
  return db_->GetOrCreateBaseRelation(pred);
}

StatusOr<bool> Coral::Insert(const std::string& pred,
                             std::initializer_list<const Arg*> args) {
  Rule fact;
  fact.head.pred = factory()->symbols().Intern(pred);
  fact.head.args.assign(args.begin(), args.end());
  return db_->InsertFact(fact);
}

StatusOr<size_t> Coral::Delete(const std::string& pred,
                               std::initializer_list<const Arg*> args) {
  Rule fact;
  fact.head.pred = factory()->symbols().Intern(pred);
  fact.head.args.assign(args.begin(), args.end());
  return db_->DeleteFacts(fact);
}

StatusOr<C_ScanDesc> Coral::OpenScan(const std::string& goal) {
  // Parse the goal as a single-literal query.
  std::string text = "?- " + goal;
  size_t end = text.find_last_not_of(" \t\r\n");
  if (end != std::string::npos && text[end] != '.') text += ".";
  Parser parser(text, factory());
  CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
  if (prog.queries.size() != 1 || prog.queries[0].body.size() != 1) {
    return Status::InvalidArgument(
        "OpenScan takes a single-literal goal; use Command for conjunctive "
        "queries");
  }
  if (prog.queries[0].body[0].negated) {
    return Status::InvalidArgument("cannot open a scan on a negated goal");
  }

  // The goal resolves like a query literal (ExternalResolver): to a
  // builtin, a base relation or a module export. Each solution is the
  // tuple of the goal's arguments under its bindings.
  class GoalIterator : public TupleIterator {
   public:
    GoalIterator(Query query, TermFactory* factory)
        : query_(std::move(query)),
          env_(query_.var_count),
          factory_(factory) {
      for (const Arg* a : query_.body[0].args) refs_.push_back({a, &env_});
    }
    Status Open(const ExternalResolver& resolver) {
      CORAL_ASSIGN_OR_RETURN(source_, resolver.Make(&query_.body[0], &env_));
      source_->Reset(&trail_);
      return source_->status();
    }
    const Tuple* Next() override {
      if (!source_->Next(&trail_)) return nullptr;
      return ResolveTuple(refs_, factory_);
    }
    const Status& status() const override { return source_->status(); }

   private:
    Query query_;
    BindEnv env_;
    TermFactory* factory_;
    std::vector<TermRef> refs_;
    Trail trail_;
    std::unique_ptr<GoalSource> source_;
  };
  auto it = std::make_unique<GoalIterator>(std::move(prog.queries[0]),
                                           factory());
  CORAL_RETURN_IF_ERROR(it->Open(ExternalResolver(db_)));
  return C_ScanDesc(std::move(it));
}

Status Coral::RegisterPredicate(const std::string& pred, uint32_t arity,
                                ComputedPredicateFn fn) {
  PredRef ref{factory()->symbols().Intern(pred), arity};
  if (db_->FindBaseRelation(ref) != nullptr) {
    return Status::AlreadyExists("predicate " + ref.ToString() +
                                 " already has a relation");
  }
  BuiltinFn gen = [fn = std::move(fn)](std::span<const TermRef> args,
                                       TermFactory* f)
      -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
    std::vector<const Tuple*> tuples;
    CORAL_RETURN_IF_ERROR(fn(args, f, &tuples));
    return std::unique_ptr<BuiltinGenerator>(
        new TupleGenerator(args, std::move(tuples)));
  };
  // Modes unknown: the optimizer keeps rules that call it in written
  // order. No evaluation has read pred/arity yet: one that had would
  // have created its (empty) base relation.
  return db_->builtins()->Register(pred, arity, {std::move(gen), {}});
}

}  // namespace coral
