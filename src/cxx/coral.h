// Copyright (c) 1993-style CORAL reproduction authors.
// The CORAL/C++ interface (paper §6): imperative programs manipulate
// relations computed by declarative modules without breaking the relation
// abstraction, embed CORAL commands, construct and take apart terms and
// tuples, open scans (C_ScanDesc), and define new predicates in C++.

#ifndef CORAL_CXX_CORAL_H_
#define CORAL_CXX_CORAL_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/cxx/scan_desc.h"

namespace coral {

/// The C++ definition of a predicate (Coral::RegisterPredicate): given the
/// call's argument bindings (one TermRef per column; unbound variables
/// mean "free"), produce every matching tuple. Return a non-OK status for
/// unsupported binding patterns (e.g. a generator that needs its first
/// argument bound).
using ComputedPredicateFn = std::function<Status(
    std::span<const TermRef> args, TermFactory* factory,
    std::vector<const Tuple*>* out)>;

/// The embedded-C++ facade over a CORAL database.
class Coral {
 public:
  /// A self-contained CORAL system (typical "main program in C++" mode).
  Coral() : owned_(std::make_unique<Database>()), db_(owned_.get()) {}
  /// Wraps an existing database without taking ownership.
  explicit Coral(Database* db) : db_(db) {}

  Database* db() { return db_; }
  TermFactory* factory() { return db_->factory(); }

  // ---- embedded CORAL commands (paper §6.1) ----
  //
  // All entry points return StatusOr<> uniformly; see docs/API.md for the
  // Status codes each can produce (kInvalidArgument for parse/semantic
  // errors, kNotFound for unknown predicates, kFailedPrecondition for
  // evaluation-order violations, kInternal for engine bugs).
  /// Executes any command sequence legal at the interactive interface:
  /// facts, modules, annotations, queries. Returns the printed output of
  /// the queries it contained.
  StatusOr<std::string> Command(const std::string& coral_text) {
    return db_->Run(coral_text);
  }
  /// Consults declarations only. Queries in the text are parsed but not
  /// executed; they are returned so the caller can run them (or ignore
  /// them) — the same convention as Database::Consult.
  StatusOr<std::vector<Query>> Consult(const std::string& coral_text) {
    return db_->Consult(coral_text);
  }
  /// Parses and evaluates a single query string like "?- path(1, X)."
  /// (the "?-" may be omitted).
  StatusOr<QueryResult> EvalQuery(const std::string& text) {
    return db_->EvalQuery(text);
  }

  // ---- static analysis ----
  /// Diagnostics the semantic analyzer produced for the most recent
  /// Command/Consult. Errors refuse the module (and surface as a failed
  /// Status); warnings accumulate here.
  const DiagnosticList& Diagnostics() const {
    return db_->last_diagnostics();
  }
  /// Warnings-as-errors for subsequent consults.
  void SetStrict(bool strict) { db_->set_strict(strict); }

  // ---- evaluation observability (docs/API.md) ----
  /// Globally enables per-rule/per-iteration statistics for subsequent
  /// evaluations, as if every module carried @profile.
  void SetProfiling(bool on) { db_->set_profiling(on); }
  /// The statistics registry (one ModuleProfile per profiled module).
  obs::StatsRegistry* Stats() { return db_->stats(); }
  /// Human-readable report over everything collected so far.
  std::string ProfileReport() const { return db_->ProfileReport(); }
  /// Drops all collected statistics (keeps profiling enabled/disabled).
  void ClearStats() { db_->ClearStats(); }
  /// Attaches a structured trace-event sink (nullptr detaches). The sink
  /// must outlive evaluation; events arrive on the evaluating thread.
  void SetTraceSink(obs::TraceSink* sink) { db_->set_trace_sink(sink); }

  // ---- argument construction (paper §6.1 class Arg) ----
  const Arg* Int(int64_t v) { return factory()->MakeInt(v); }
  const Arg* Double(double v) { return factory()->MakeDouble(v); }
  const Arg* String(std::string_view v) { return factory()->MakeString(v); }
  const Arg* Atom(std::string_view v) { return factory()->MakeAtom(v); }
  const Arg* Big(const BigInt& v) { return factory()->MakeBigInt(v); }
  const Arg* List(std::initializer_list<const Arg*> elems) {
    std::vector<const Arg*> v(elems);
    return factory()->MakeList(v);
  }
  const Arg* Functor(std::string_view name,
                     std::initializer_list<const Arg*> args) {
    std::vector<const Arg*> v(args);
    return factory()->MakeFunctor(name, v);
  }
  /// Parses a term from text (variables allowed).
  StatusOr<const Arg*> Term(const std::string& text);

  // ---- tuples and relation values (paper §6.1) ----
  const Tuple* MakeTuple(std::initializer_list<const Arg*> args) {
    std::vector<const Arg*> v(args);
    return factory()->MakeTuple(v);
  }

  /// The base relation for name/arity (created empty if absent), read
  /// only: writes go through Insert/Delete, whose commit validates them
  /// and maintains saved modules. nullptr when a builtin
  /// (RegisterPredicate's included) or a module defines the predicate
  /// (Database::Resolve).
  const Relation* GetRelation(const std::string& name, uint32_t arity);

  /// Inserts a fact; creates the relation on first use.
  StatusOr<bool> Insert(const std::string& pred,
                        std::initializer_list<const Arg*> args);
  /// Deletes the stored facts subsumed by the given argument pattern.
  StatusOr<size_t> Delete(const std::string& pred,
                          std::initializer_list<const Arg*> args);

  // ---- scans (paper §6.1 C_ScanDesc) ----
  /// Opens a cursor over the answers to a single-literal goal, e.g.
  /// "path(1, X)". Resolves like a query literal: to a builtin (a
  /// predicate defined in C++ included), a module export or a base
  /// relation. Non-ground answers are hidden (paper §6.1).
  StatusOr<C_ScanDesc> OpenScan(const std::string& goal);

  // ---- predicates defined in C++ (paper §6.2) ----
  /// Registers `fn` as the definition of pred/arity, a builtin whose
  /// binding modes are unknown; declarative rules can then call it like
  /// any other predicate, and facts for it are refused. AlreadyExists
  /// when pred/arity is a builtin, a module export or has a base
  /// relation. Substitute for
  /// the paper's incremental .o loading (DESIGN.md §4).
  Status RegisterPredicate(const std::string& pred, uint32_t arity,
                           ComputedPredicateFn fn);

 private:
  std::unique_ptr<Database> owned_;
  Database* db_;
};

}  // namespace coral

#endif  // CORAL_CXX_CORAL_H_
