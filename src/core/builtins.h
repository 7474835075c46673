// Copyright (c) 1993-style CORAL reproduction authors.
// Built-in predicates and arithmetic evaluation. Builtins present the same
// generator ("get-next-tuple") discipline as relation scans: Next() binds
// variables through the trail and returns false when exhausted. CORAL has
// no compile-time type checking (paper §9 lists this as a lesson learned);
// instantiation and type faults surface as Status errors at run time.

#ifndef CORAL_CORE_BUILTINS_H_
#define CORAL_CORE_BUILTINS_H_

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>

#include "src/data/term_factory.h"
#include "src/data/unify.h"
#include "src/rewrite/existential.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace coral {

/// One activation of a builtin for a specific argument binding.
class BuiltinGenerator {
 public:
  virtual ~BuiltinGenerator() = default;
  /// Produces the next solution, recording variable bindings on `trail`.
  /// The caller undoes the trail between solutions. Returns false when no
  /// (more) solutions exist.
  virtual bool Next(Trail* trail) = 0;
};

/// Factory invoked each time evaluation reaches the builtin literal with
/// fresh bindings. Errors (e.g. insufficiently instantiated arguments)
/// propagate as Status.
using BuiltinFn = std::function<StatusOr<std::unique_ptr<BuiltinGenerator>>(
    std::span<const TermRef> args, TermFactory* factory)>;

/// One predicate computed by code rather than stored (paper §6.2, §7.1):
/// a standard builtin, an update predicate or a predicate defined in C++.
struct BuiltinEntry {
  BuiltinFn fn;
  BindingModes modes;
};

/// Name/arity-keyed registry of every predicate computed by code; each
/// Database owns one pre-loaded with the standard builtins, extensible by
/// users (paper §7.1: registration of predicates manipulating new types
/// is a single command). Entries are never replaced or removed, so the
/// pointers Find and Lookup return stay valid.
class BuiltinRegistry {
 public:
  BuiltinRegistry() = default;

  /// AlreadyExists when name/arity is registered already.
  Status Register(const std::string& name, uint32_t arity,
                  BuiltinEntry entry);
  /// nullptr when not a builtin.
  const BuiltinFn* Find(const std::string& name, uint32_t arity) const;
  const BuiltinEntry* Lookup(const std::string& name, uint32_t arity) const;

  /// The registry as analysis, rewriting and the VM compiler see it:
  /// callbacks, so those passes do not depend on the evaluation core.
  std::function<bool(const std::string&, uint32_t)> IsBuiltin() const;
  ModesLookup ModesOf() const;

  /// Loads =, \=, <, >, =<, >=, append/3, member/2, length/2, between/3,
  /// functor/3, arg/3, sort/2, write/1, writeln/1.
  void RegisterStandard();

 private:
  // A leaf lock: held only for one map operation.
  mutable Mutex mu_;
  // Keyed by (name, arity); std::less<> lets a lookup compare against
  // references to its arguments, so no key is built per call.
  std::map<std::tuple<std::string, uint32_t>, BuiltinEntry, std::less<>>
      entries_ CORAL_GUARDED_BY(mu_);
};

/// Evaluates `t` under `env` as an arithmetic expression when it is one:
/// +, -, *, /, mod, min, max, abs over int/double/bigint with the usual
/// promotions (int overflow promotes to bigint). Non-arithmetic terms are
/// resolved and returned unchanged, so `=` can serve both unification and
/// arithmetic (as in CORAL's C1 = C + EC). Unbound variables inside an
/// arithmetic functor are an error.
StatusOr<TermRef> EvalArith(const Arg* t, BindEnv* env, TermFactory* factory);

}  // namespace coral

#endif  // CORAL_CORE_BUILTINS_H_
