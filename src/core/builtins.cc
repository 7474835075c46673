#include "src/core/builtins.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <vector>

#include "src/util/logging.h"

namespace coral {

Status BuiltinRegistry::Register(const std::string& name, uint32_t arity,
                                 BuiltinEntry entry) {
  MutexLock lock(&mu_);
  if (!entries_.emplace(std::tuple(name, arity), std::move(entry)).second) {
    return Status::AlreadyExists("predicate " + name + "/" +
                                 std::to_string(arity) +
                                 " is already a builtin");
  }
  return Status::OK();
}

const BuiltinEntry* BuiltinRegistry::Lookup(const std::string& name,
                                            uint32_t arity) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(std::tie(name, arity));
  return it == entries_.end() ? nullptr : &it->second;
}

const BuiltinFn* BuiltinRegistry::Find(const std::string& name,
                                       uint32_t arity) const {
  const BuiltinEntry* entry = Lookup(name, arity);
  return entry == nullptr ? nullptr : &entry->fn;
}

std::function<bool(const std::string&, uint32_t)>
BuiltinRegistry::IsBuiltin() const {
  return [this](const std::string& name, uint32_t arity) {
    return Lookup(name, arity) != nullptr;
  };
}

ModesLookup BuiltinRegistry::ModesOf() const {
  return [this](const std::string& name,
                uint32_t arity) -> const BindingModes* {
    const BuiltinEntry* entry = Lookup(name, arity);
    return entry == nullptr ? nullptr : &entry->modes;
  };
}

namespace {

// ---------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------

/// Numeric value with CORAL's promotions: int64 -> BigInt on overflow;
/// any double operand makes the result double.
struct NumVal {
  enum class Kind { kInt, kDouble, kBig } kind;
  int64_t i = 0;
  double d = 0;
  BigInt big;

  double AsDouble() const {
    switch (kind) {
      case Kind::kInt: return static_cast<double>(i);
      case Kind::kDouble: return d;
      case Kind::kBig: {
        int64_t v;
        if (big.FitsInt64(&v)) return static_cast<double>(v);
        // Good-enough magnitude via decimal string.
        return std::strtod(big.ToString().c_str(), nullptr);
      }
    }
    return 0;
  }
  BigInt AsBig() const {
    return kind == Kind::kBig ? big : BigInt(i);
  }
};

std::optional<NumVal> NumOf(const Arg* t) {
  switch (t->kind()) {
    case ArgKind::kInt:
      return NumVal{NumVal::Kind::kInt, ArgCast<IntArg>(t)->value(), 0, {}};
    case ArgKind::kDouble:
      return NumVal{NumVal::Kind::kDouble, 0, ArgCast<DoubleArg>(t)->value(),
                    {}};
    case ArgKind::kBigInt:
      return NumVal{NumVal::Kind::kBig, 0, 0, ArgCast<BigIntArg>(t)->value()};
    default:
      return std::nullopt;
  }
}

const Arg* MakeNum(const NumVal& v, TermFactory* f) {
  switch (v.kind) {
    case NumVal::Kind::kInt: return f->MakeInt(v.i);
    case NumVal::Kind::kDouble: return f->MakeDouble(v.d);
    case NumVal::Kind::kBig: {
      int64_t small;
      if (v.big.FitsInt64(&small)) return f->MakeInt(small);  // demote
      return f->MakeBigInt(v.big);
    }
  }
  CORAL_UNREACHABLE();
}

StatusOr<NumVal> ApplyBinary(const std::string& op, const NumVal& a,
                             const NumVal& b) {
  if (a.kind == NumVal::Kind::kDouble || b.kind == NumVal::Kind::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    NumVal r{NumVal::Kind::kDouble, 0, 0, {}};
    if (op == "+") r.d = x + y;
    else if (op == "-") r.d = x - y;
    else if (op == "*") r.d = x * y;
    else if (op == "/") {
      if (y == 0) return Status::InvalidArgument("division by zero");
      r.d = x / y;
    } else if (op == "min") r.d = std::min(x, y);
    else if (op == "max") r.d = std::max(x, y);
    else if (op == "mod") {
      return Status::InvalidArgument("mod requires integer operands");
    } else {
      return Status::Internal("unknown arithmetic operator " + op);
    }
    return r;
  }
  if (a.kind == NumVal::Kind::kBig || b.kind == NumVal::Kind::kBig) {
    BigInt x = a.AsBig(), y = b.AsBig();
    NumVal r{NumVal::Kind::kBig, 0, 0, {}};
    if (op == "+") r.big = x + y;
    else if (op == "-") r.big = x - y;
    else if (op == "*") r.big = x * y;
    else if (op == "/" || op == "mod") {
      BigInt q, rem;
      CORAL_RETURN_IF_ERROR(BigInt::DivMod(x, y, &q, &rem));
      r.big = op == "/" ? q : rem;
    } else if (op == "min") r.big = x < y ? x : y;
    else if (op == "max") r.big = x < y ? y : x;
    else return Status::Internal("unknown arithmetic operator " + op);
    return r;
  }
  // int64 with overflow promotion to BigInt.
  int64_t x = a.i, y = b.i, res;
  NumVal r{NumVal::Kind::kInt, 0, 0, {}};
  bool overflow = false;
  if (op == "+") overflow = __builtin_add_overflow(x, y, &res);
  else if (op == "-") overflow = __builtin_sub_overflow(x, y, &res);
  else if (op == "*") overflow = __builtin_mul_overflow(x, y, &res);
  else if (op == "/") {
    if (y == 0) return Status::InvalidArgument("division by zero");
    if (x == INT64_MIN && y == -1) {
      overflow = true;
      res = 0;
    } else {
      res = x / y;
    }
  } else if (op == "mod") {
    if (y == 0) return Status::InvalidArgument("mod by zero");
    res = x % y;
  } else if (op == "min") res = std::min(x, y);
  else if (op == "max") res = std::max(x, y);
  else return Status::Internal("unknown arithmetic operator " + op);
  if (overflow) {
    NumVal rb{NumVal::Kind::kBig, 0, 0, {}};
    return ApplyBinary(op, NumVal{NumVal::Kind::kBig, 0, 0, BigInt(x)},
                       NumVal{NumVal::Kind::kBig, 0, 0, BigInt(y)});
    (void)rb;
  }
  r.i = res;
  return r;
}

bool IsArithFunctor(const FunctorArg* f) {
  const std::string& n = f->name();
  if (f->arity() == 2) {
    return n == "+" || n == "-" || n == "*" || n == "/" || n == "mod" ||
           n == "min" || n == "max";
  }
  if (f->arity() == 1) return n == "-" || n == "abs";
  return false;
}

StatusOr<NumVal> EvalNumericChild(const Arg* t, BindEnv* env,
                                  TermFactory* f) {
  CORAL_ASSIGN_OR_RETURN(TermRef r, EvalArith(t, env, f));
  if (r.term->kind() == ArgKind::kVariable) {
    return Status::FailedPrecondition(
        "unbound variable in arithmetic expression");
  }
  auto num = NumOf(r.term);
  if (!num.has_value()) {
    return Status::InvalidArgument("non-numeric operand in arithmetic: " +
                                   r.term->ToString());
  }
  return *num;
}

}  // namespace

StatusOr<TermRef> EvalArith(const Arg* t, BindEnv* env, TermFactory* f) {
  TermRef r = Deref(t, env);
  if (r.term->kind() != ArgKind::kAtomOrFunctor) return r;
  const auto* fn = ArgCast<FunctorArg>(r.term);
  if (!IsArithFunctor(fn)) return r;

  if (fn->arity() == 1) {
    CORAL_ASSIGN_OR_RETURN(NumVal v, EvalNumericChild(fn->arg(0), r.env, f));
    NumVal out = v;
    if (fn->name() == "-") {
      CORAL_ASSIGN_OR_RETURN(
          out, ApplyBinary("-", NumVal{NumVal::Kind::kInt, 0, 0, {}}, v));
    } else {  // abs
      switch (v.kind) {
        case NumVal::Kind::kInt:
          if (v.i < 0) {
            CORAL_ASSIGN_OR_RETURN(
                out,
                ApplyBinary("-", NumVal{NumVal::Kind::kInt, 0, 0, {}}, v));
          }
          break;
        case NumVal::Kind::kDouble:
          out.d = std::fabs(v.d);
          break;
        case NumVal::Kind::kBig:
          if (v.big.is_negative()) out.big = -v.big;
          break;
      }
    }
    return TermRef{MakeNum(out, f), nullptr};
  }

  CORAL_ASSIGN_OR_RETURN(NumVal a, EvalNumericChild(fn->arg(0), r.env, f));
  CORAL_ASSIGN_OR_RETURN(NumVal b, EvalNumericChild(fn->arg(1), r.env, f));
  CORAL_ASSIGN_OR_RETURN(NumVal out, ApplyBinary(fn->name(), a, b));
  return TermRef{MakeNum(out, f), nullptr};
}

// ---------------------------------------------------------------------
// Standard builtins
// ---------------------------------------------------------------------

namespace {

/// Zero- or one-solution generator driven by a callback evaluated on the
/// first Next().
class OnceGenerator : public BuiltinGenerator {
 public:
  explicit OnceGenerator(std::function<bool(Trail*)> f) : f_(std::move(f)) {}
  bool Next(Trail* trail) override {
    if (done_) return false;
    done_ = true;
    return f_(trail);
  }

 private:
  std::function<bool(Trail*)> f_;
  bool done_ = false;
};

bool RefGround(TermRef r) {
  r = Deref(r.term, r.env);
  if (r.term->IsGround()) return true;
  switch (r.term->kind()) {
    case ArgKind::kVariable:
      return false;
    case ArgKind::kAtomOrFunctor: {
      const auto* f = ArgCast<FunctorArg>(r.term);
      for (const Arg* c : f->args()) {
        if (!RefGround({c, r.env})) return false;
      }
      return true;
    }
    case ArgKind::kSet: {
      const auto* s = ArgCast<SetArg>(r.term);
      for (const Arg* c : s->elems()) {
        if (!RefGround({c, r.env})) return false;
      }
      return true;
    }
    default:
      return true;
  }
}

/// Walks a (dereferenced) list spine. Returns the element TermRefs and
/// sets *proper to whether the spine ends in []. The tail ref is stored in
/// *tail when not proper.
std::vector<TermRef> WalkList(TermRef list, bool* proper, TermRef* tail) {
  std::vector<TermRef> elems;
  TermRef cur = Deref(list.term, list.env);
  while (cur.term->kind() == ArgKind::kAtomOrFunctor) {
    const auto* f = ArgCast<FunctorArg>(cur.term);
    if (f->arity() == 2 && f->name() == ".") {
      elems.push_back({f->arg(0), cur.env});
      cur = Deref(f->arg(1), cur.env);
      continue;
    }
    break;
  }
  *proper = IsAtom(cur.term, "[]");
  *tail = cur;
  return elems;
}

/// Builds a list term from element refs by resolving each element (a
/// snapshot: unbound variables are renamed into *list_env).
struct BuiltTerm {
  const Arg* term;
  std::unique_ptr<BindEnv> env;  // scope for renamed variables
};

BuiltTerm BuildList(std::span<const TermRef> elems, TermRef tail_ref,
                    TermFactory* f, Trail* trail) {
  VarRenamer renamer;
  std::vector<const Arg*> resolved;
  resolved.reserve(elems.size());
  for (const TermRef& e : elems) {
    resolved.push_back(ResolveTerm(e.term, e.env, f, &renamer));
  }
  const Arg* tail = tail_ref.term == nullptr
                        ? f->Nil()
                        : ResolveTerm(tail_ref.term, tail_ref.env, f,
                                      &renamer);
  const Arg* list = f->MakeList(resolved, tail);
  auto env = std::make_unique<BindEnv>(renamer.count());
  // Keep variable sharing: bind the original (caller-scope) variables to
  // their canonical stand-ins in the new environment.
  LinkRenamedVars(renamer, env.get(), f, trail);
  return BuiltTerm{list, std::move(env)};
}

StatusOr<std::unique_ptr<BuiltinGenerator>> EqBuiltin(
    std::span<const TermRef> args, TermFactory* f) {
  TermRef a = args[0], b = args[1];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([a, b, f](Trail* trail) {
        auto ea = EvalArith(a.term, a.env, f);
        auto eb = EvalArith(b.term, b.env, f);
        // Arithmetic faults make the goal fail (CORAL has no run-time
        // type errors that abort evaluation; see paper §9).
        if (!ea.ok() || !eb.ok()) return false;
        return Unify(ea->term, ea->env, eb->term, eb->env, trail);
      }));
}

StatusOr<std::unique_ptr<BuiltinGenerator>> NeqBuiltin(
    std::span<const TermRef> args, TermFactory* f) {
  TermRef a = args[0], b = args[1];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([a, b, f](Trail* trail) {
        auto ea = EvalArith(a.term, a.env, f);
        auto eb = EvalArith(b.term, b.env, f);
        if (!ea.ok() || !eb.ok()) return false;
        Trail::Mark m = trail->mark();
        bool unifies = Unify(ea->term, ea->env, eb->term, eb->env, trail);
        trail->UndoTo(m);
        return !unifies;
      }));
}

StatusOr<std::unique_ptr<BuiltinGenerator>> CompareBuiltin(
    const std::string& op, std::span<const TermRef> args, TermFactory* f) {
  TermRef a = args[0], b = args[1];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([a, b, op, f](Trail*) {
        auto ea = EvalArith(a.term, a.env, f);
        auto eb = EvalArith(b.term, b.env, f);
        if (!ea.ok() || !eb.ok()) return false;
        if (!RefGround(*ea) || !RefGround(*eb)) return false;
        VarRenamer ren;
        const Arg* ta = ResolveTerm(ea->term, ea->env, f, &ren);
        const Arg* tb = ResolveTerm(eb->term, eb->env, f, &ren);
        int c = CompareArgs(ta, tb);
        if (op == "<") return c < 0;
        if (op == ">") return c > 0;
        if (op == "=<") return c <= 0;
        return c >= 0;  // ">="
      }));
}

/// append/3 (needed by the paper's Fig. 3 program). Modes:
///   (+list, any, any): concatenate, unify with the third argument.
///   (any, any, +list): enumerate all splits.
class AppendGenerator : public BuiltinGenerator {
 public:
  AppendGenerator(std::span<const TermRef> args, TermFactory* f)
      : a_(args[0]), b_(args[1]), c_(args[2]), f_(f) {}

  bool Next(Trail* trail) override {
    if (!init_) {
      init_ = true;
      bool proper;
      TermRef tail;
      std::vector<TermRef> elems = WalkList(a_, &proper, &tail);
      if (proper) {
        mode_ = Mode::kForward;
        forward_elems_ = std::move(elems);
      } else {
        std::vector<TermRef> celems = WalkList(c_, &proper, &tail);
        if (!proper) return false;  // insufficiently instantiated
        mode_ = Mode::kSplit;
        split_elems_ = std::move(celems);
      }
    }
    if (mode_ == Mode::kForward) {
      if (done_) return false;
      done_ = true;
      BuiltTerm joined = BuildList(forward_elems_, b_, f_, trail);
      owned_envs_.push_back(std::move(joined.env));
      return Unify(joined.term, owned_envs_.back().get(), c_.term, c_.env,
                   trail);
    }
    // Split mode: for i in 0..n, A = first i elements, B = rest.
    while (split_i_ <= split_elems_.size()) {
      size_t i = split_i_++;
      Trail::Mark m = trail->mark();
      BuiltTerm prefix = BuildList(
          std::span<const TermRef>(split_elems_.data(), i), {}, f_, trail);
      BuiltTerm suffix = BuildList(
          std::span<const TermRef>(split_elems_.data() + i,
                                   split_elems_.size() - i),
          {}, f_, trail);
      owned_envs_.push_back(std::move(prefix.env));
      BindEnv* penv = owned_envs_.back().get();
      owned_envs_.push_back(std::move(suffix.env));
      BindEnv* senv = owned_envs_.back().get();
      if (Unify(prefix.term, penv, a_.term, a_.env, trail) &&
          Unify(suffix.term, senv, b_.term, b_.env, trail)) {
        return true;
      }
      trail->UndoTo(m);
    }
    return false;
  }

 private:
  enum class Mode { kForward, kSplit };
  TermRef a_, b_, c_;
  TermFactory* f_;
  bool init_ = false;
  bool done_ = false;
  Mode mode_ = Mode::kForward;
  std::vector<TermRef> forward_elems_;
  std::vector<TermRef> split_elems_;
  size_t split_i_ = 0;
  std::vector<std::unique_ptr<BindEnv>> owned_envs_;
};

/// member/2: enumerates elements of a proper list. Element refs share the
/// list's environment, so variable sharing is preserved.
class MemberGenerator : public BuiltinGenerator {
 public:
  MemberGenerator(std::span<const TermRef> args) : x_(args[0]), l_(args[1]) {}
  bool Next(Trail* trail) override {
    if (!init_) {
      init_ = true;
      bool proper;
      TermRef tail;
      elems_ = WalkList(l_, &proper, &tail);
      if (!proper && elems_.empty()) return false;
    }
    while (i_ < elems_.size()) {
      Trail::Mark m = trail->mark();
      const TermRef& e = elems_[i_++];
      if (Unify(x_.term, x_.env, e.term, e.env, trail)) return true;
      trail->UndoTo(m);
    }
    return false;
  }

 private:
  TermRef x_, l_;
  bool init_ = false;
  std::vector<TermRef> elems_;
  size_t i_ = 0;
};

StatusOr<std::unique_ptr<BuiltinGenerator>> LengthBuiltin(
    std::span<const TermRef> args, TermFactory* f) {
  TermRef l = args[0], n = args[1];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([l, n, f](Trail* trail) {
        bool proper;
        TermRef tail;
        std::vector<TermRef> elems = WalkList(l, &proper, &tail);
        if (!proper) return false;
        return Unify(f->MakeInt(static_cast<int64_t>(elems.size())), nullptr,
                     n.term, n.env, trail);
      }));
}

class BetweenGenerator : public BuiltinGenerator {
 public:
  BetweenGenerator(std::span<const TermRef> args, TermFactory* f)
      : lo_(args[0]), hi_(args[1]), x_(args[2]), f_(f) {}
  bool Next(Trail* trail) override {
    if (!init_) {
      init_ = true;
      TermRef lo = Deref(lo_.term, lo_.env);
      TermRef hi = Deref(hi_.term, hi_.env);
      if (lo.term->kind() != ArgKind::kInt ||
          hi.term->kind() != ArgKind::kInt) {
        return false;
      }
      cur_ = ArgCast<IntArg>(lo.term)->value();
      end_ = ArgCast<IntArg>(hi.term)->value();
    }
    while (cur_ <= end_) {
      Trail::Mark m = trail->mark();
      int64_t v = cur_++;
      if (Unify(f_->MakeInt(v), nullptr, x_.term, x_.env, trail)) return true;
      trail->UndoTo(m);
    }
    return false;
  }

 private:
  TermRef lo_, hi_, x_;
  TermFactory* f_;
  bool init_ = false;
  int64_t cur_ = 0, end_ = -1;
};

/// functor/3: functor(f(a,b), F, N) binds F=f, N=2; atoms have arity 0;
/// constants are their own functor. Decomposition mode only (the
/// construction mode needs N bound and builds f(_,...,_)).
StatusOr<std::unique_ptr<BuiltinGenerator>> FunctorBuiltin(
    std::span<const TermRef> args, TermFactory* f) {
  TermRef t = args[0], fn = args[1], n = args[2];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([t, fn, n, f](Trail* trail) {
        TermRef r = Deref(t.term, t.env);
        const Arg* name = nullptr;
        int64_t arity = 0;
        switch (r.term->kind()) {
          case ArgKind::kAtomOrFunctor: {
            const auto* fa = ArgCast<FunctorArg>(r.term);
            name = f->MakeAtom(fa->name());
            arity = fa->arity();
            break;
          }
          case ArgKind::kVariable:
            return false;  // construction mode unsupported
          default:
            name = r.term;  // constants: functor is the constant itself
            arity = 0;
        }
        return Unify(name, nullptr, fn.term, fn.env, trail) &&
               Unify(f->MakeInt(arity), nullptr, n.term, n.env, trail);
      }));
}

/// arg/3: arg(N, f(a,b), X) binds X to the Nth argument (1-based).
StatusOr<std::unique_ptr<BuiltinGenerator>> ArgBuiltin(
    std::span<const TermRef> args, TermFactory* f) {
  (void)f;
  TermRef n = args[0], t = args[1], x = args[2];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([n, t, x](Trail* trail) {
        TermRef rn = Deref(n.term, n.env);
        TermRef rt = Deref(t.term, t.env);
        if (rn.term->kind() != ArgKind::kInt ||
            rt.term->kind() != ArgKind::kAtomOrFunctor) {
          return false;
        }
        int64_t i = ArgCast<IntArg>(rn.term)->value();
        const auto* fa = ArgCast<FunctorArg>(rt.term);
        if (i < 1 || i > fa->arity()) return false;
        return Unify(fa->arg(static_cast<uint32_t>(i - 1)), rt.env, x.term,
                     x.env, trail);
      }));
}

/// sort/2: sorts a proper list by the total term order, removing
/// duplicates (set-style, as relations are sets).
StatusOr<std::unique_ptr<BuiltinGenerator>> SortBuiltin(
    std::span<const TermRef> args, TermFactory* f) {
  TermRef l = args[0], s = args[1];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([l, s, f](Trail* trail) {
        bool proper;
        TermRef tail;
        std::vector<TermRef> elems = WalkList(l, &proper, &tail);
        if (!proper) return false;
        VarRenamer ren;
        std::vector<const Arg*> resolved;
        resolved.reserve(elems.size());
        for (const TermRef& e : elems) {
          resolved.push_back(ResolveTerm(e.term, e.env, f, &ren));
        }
        std::sort(resolved.begin(), resolved.end(),
                  [](const Arg* a, const Arg* b) {
                    return CompareArgs(a, b) < 0;
                  });
        resolved.erase(std::unique(resolved.begin(), resolved.end(),
                                   [](const Arg* a, const Arg* b) {
                                     return CompareArgs(a, b) == 0;
                                   }),
                       resolved.end());
        const Arg* sorted = f->MakeList(resolved);
        return Unify(sorted, nullptr, s.term, s.env, trail);
      }));
}

StatusOr<std::unique_ptr<BuiltinGenerator>> WriteBuiltin(
    std::span<const TermRef> args, TermFactory* f, bool newline) {
  TermRef t = args[0];
  return std::unique_ptr<BuiltinGenerator>(
      new OnceGenerator([t, f, newline](Trail*) {
        VarRenamer ren;
        const Arg* resolved = ResolveTerm(t.term, t.env, f, &ren);
        std::cout << *resolved;
        if (newline) std::cout << "\n";
        return true;
      }));
}

}  // namespace

void BuiltinRegistry::RegisterStandard() {
  auto add = [this](const std::string& name, uint32_t arity, BuiltinFn fn,
                    std::vector<std::vector<uint32_t>> in_sets,
                    std::string usage, bool pure = true) {
    Status st = Register(name, arity,
                         {std::move(fn),
                          {std::move(in_sets), std::move(usage), pure}});
    CORAL_CHECK(st.ok()) << st.ToString();
  };
  // Operators carry no modes: safety and the join reorderer treat them by
  // their syntax (`=` unifies, evaluating an arithmetic side; the rest are
  // tests).
  auto add_op = [this](const std::string& op, BuiltinFn fn) {
    Status st = Register(op, 2, {std::move(fn), {}});
    CORAL_CHECK(st.ok()) << st.ToString();
  };
  add_op("=", EqBuiltin);
  add_op("\\=", NeqBuiltin);
  for (const char* op : {"<", ">", "=<", ">="}) {
    std::string o = op;
    add_op(o, [o](std::span<const TermRef> args, TermFactory* f) {
      return CompareBuiltin(o, args, f);
    });
  }
  add("append", 3,
      [](std::span<const TermRef> args, TermFactory* f)
          -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
        return std::unique_ptr<BuiltinGenerator>(new AppendGenerator(args, f));
      },
      {{0, 1}, {2}}, "append(+,+,-) or append(-,-,+)");
  add("member", 2,
      [](std::span<const TermRef> args, TermFactory*)
          -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
        return std::unique_ptr<BuiltinGenerator>(new MemberGenerator(args));
      },
      {{1}}, "member(-,+)");
  add("length", 2, LengthBuiltin, {{0}}, "length(+,-)");
  add("between", 3,
      [](std::span<const TermRef> args, TermFactory* f)
          -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
        return std::unique_ptr<BuiltinGenerator>(new BetweenGenerator(args, f));
      },
      {{0, 1}}, "between(+,+,-)");
  add("functor", 3, FunctorBuiltin, {{0}, {1, 2}},
      "functor(+,-,-) or functor(-,+,+)");
  add("arg", 3, ArgBuiltin, {{0, 1}}, "arg(+,+,-)");
  add("sort", 2, SortBuiltin, {{0}}, "sort(+,-)");
  add("write", 1,
      [](std::span<const TermRef> args, TermFactory* f) {
        return WriteBuiltin(args, f, false);
      },
      {{}}, "write(?)", /*pure=*/false);
  add("writeln", 1,
      [](std::span<const TermRef> args, TermFactory* f) {
        return WriteBuiltin(args, f, true);
      },
      {{}}, "writeln(?)", /*pure=*/false);
}

}  // namespace coral
