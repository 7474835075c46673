#include "src/data/term_factory.h"

#include <algorithm>
#include <cstring>

#include "src/data/term_hash.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace coral {

namespace {

constexpr uint64_t kVarHashSeed = 0x76617269ull;  // all variables hash alike

uint64_t HashChildren(uint64_t seed, std::span<const Arg* const> args) {
  uint64_t h = seed;
  for (const Arg* a : args) h = HashCombine(h, a->Hash());
  return h;
}

/// Hash-cons bucket key for ground terms: children identified by pointer,
/// so we can hash their uids directly.
uint64_t ConsKey(uint64_t seed, std::span<const Arg* const> args) {
  uint64_t h = seed;
  for (const Arg* a : args) h = HashCombine(h, a->uid());
  return h;
}

}  // namespace

TermFactory::TermFactory() {
  cons_sym_ = symbols_.Intern(".");
  nil_ = MakeAtom("[]");
}

const Arg** TermFactory::CopyArgs(std::span<const Arg* const> args) {
  return arena_.CopyArray(args.data(), args.size());
}

size_t TermFactory::hashcons_size() const {
  // Previously read the table with no lock at all — racy while workers
  // construct terms; now synchronized like every other accessor.
  MaybeMutexLock lock(&mu_, concurrent_);
  return functor_cons_.size();
}

size_t TermFactory::bytes_allocated() const {
  MaybeMutexLock lock(&mu_, concurrent_);
  return arena_.bytes_allocated();
}

const IntArg* TermFactory::MakeInt(int64_t v) {
  MaybeMutexLock lock(&mu_, concurrent_);
  auto it = int_cons_.find(v);
  if (it != int_cons_.end()) return it->second;
  const IntArg* node = arena_.New<IntArg>(
      v, NextUid(), HashMix64(static_cast<uint64_t>(v)));
  int_cons_.emplace(v, node);
  return node;
}

const DoubleArg* TermFactory::MakeDouble(double v) {
  MaybeMutexLock lock(&mu_, concurrent_);
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  auto it = double_cons_.find(bits);
  if (it != double_cons_.end()) return it->second;
  const DoubleArg* node =
      arena_.New<DoubleArg>(v, NextUid(), HashMix64(bits ^ 0xd0b1ull));
  double_cons_.emplace(bits, node);
  return node;
}

const StringArg* TermFactory::MakeString(std::string_view v) {
  MaybeMutexLock lock(&mu_, concurrent_);
  auto it = string_cons_.find(v);
  if (it != string_cons_.end()) return it->second;
  string_store_.emplace_back(v);
  const std::string* stored = &string_store_.back();
  const StringArg* node =
      arena_.New<StringArg>(stored, NextUid(), HashString(v) ^ 0x5715ull);
  string_cons_.emplace(std::string_view(*stored), node);
  return node;
}

const BigIntArg* TermFactory::MakeBigInt(const BigInt& v) {
  MaybeMutexLock lock(&mu_, concurrent_);
  std::string key = v.ToString();
  auto it = bigint_cons_.find(key);
  if (it != bigint_cons_.end()) return it->second;
  bigint_store_.push_back(v);
  const BigInt* stored = &bigint_store_.back();
  const BigIntArg* node =
      arena_.New<BigIntArg>(stored, NextUid(), v.Hash() ^ 0xb16b16ull);
  bigint_cons_.emplace(std::move(key), node);
  return node;
}

const FunctorArg* TermFactory::MakeAtom(std::string_view name) {
  MaybeMutexLock lock(&mu_, concurrent_);
  return MakeAtomLocked(name);
}

const FunctorArg* TermFactory::MakeAtomLocked(std::string_view name) {
  Symbol sym = symbols_.Intern(name);
  auto it = atom_cons_.find(sym);
  if (it != atom_cons_.end()) return it->second;
  uint64_t hash = FunctorHashSeed(sym);
  const FunctorArg* node = arena_.New<FunctorArg>(
      sym, std::span<const Arg* const>{}, /*ground=*/true, NextUid(), hash,
      nullptr);
  atom_cons_.emplace(sym, node);
  return node;
}

const FunctorArg* TermFactory::MakeFunctor(std::string_view name,
                                           std::span<const Arg* const> args) {
  MaybeMutexLock lock(&mu_, concurrent_);
  return MakeFunctorLocked(symbols_.Intern(name), args);
}

const FunctorArg* TermFactory::MakeFunctor(Symbol sym,
                                           std::span<const Arg* const> args) {
  MaybeMutexLock lock(&mu_, concurrent_);
  return MakeFunctorLocked(sym, args);
}

const FunctorArg* TermFactory::MakeFunctorLocked(
    Symbol sym, std::span<const Arg* const> args) {
  if (args.empty()) return MakeAtomLocked(sym->name);
  bool ground = true;
  for (const Arg* a : args) ground = ground && a->IsGround();
  if (ground) {
    uint64_t key = ConsKey(HashMix64(sym->id), args);
    if (const FunctorArg* hit = functor_cons_.Find(sym, args, key)) {
      return hit;
    }
    const FunctorArg* node = arena_.New<FunctorArg>(
        sym, args, true, NextUid(), HashChildren(FunctorHashSeed(sym), args),
        CopyArgs(args));
    functor_cons_.Insert(node, key);
    return node;
  }
  return arena_.New<FunctorArg>(sym, args, false, NextUid(),
                                HashChildren(FunctorHashSeed(sym), args),
                                CopyArgs(args));
}

const FunctorArg* TermFactory::Nil() { return nil_; }

const FunctorArg* TermFactory::MakeCons(const Arg* head, const Arg* tail) {
  MaybeMutexLock lock(&mu_, concurrent_);
  return MakeConsLocked(head, tail);
}

const FunctorArg* TermFactory::MakeConsLocked(const Arg* head,
                                              const Arg* tail) {
  const Arg* args[2] = {head, tail};
  return MakeFunctorLocked(cons_sym_, args);
}

const Arg* TermFactory::MakeList(std::span<const Arg* const> elems,
                                 const Arg* tail) {
  MaybeMutexLock lock(&mu_, concurrent_);
  const Arg* list = tail == nullptr ? nil_ : tail;
  for (size_t i = elems.size(); i-- > 0;) {
    list = MakeConsLocked(elems[i], list);
  }
  return list;
}

const SetArg* TermFactory::MakeSet(std::vector<const Arg*> elems) {
  MaybeMutexLock lock(&mu_, concurrent_);
  std::sort(elems.begin(), elems.end(),
            [](const Arg* a, const Arg* b) { return CompareArgs(a, b) < 0; });
  elems.erase(std::unique(elems.begin(), elems.end(),
                          [](const Arg* a, const Arg* b) {
                            return CompareArgs(a, b) == 0;
                          }),
              elems.end());
  bool ground = true;
  for (const Arg* e : elems) ground = ground && e->IsGround();
  uint64_t hash = HashChildren(kSetHashSeed, elems);
  if (ground) {
    uint64_t key = ConsKey(0x5e7c0115ull, elems);
    if (const SetArg* hit = set_cons_.Find(elems, key)) return hit;
    const SetArg* node =
        arena_.New<SetArg>(elems, true, NextUid(), hash, CopyArgs(elems));
    set_cons_.Insert(node, key);
    return node;
  }
  return arena_.New<SetArg>(elems, false, NextUid(), hash, CopyArgs(elems));
}

const Variable* TermFactory::MakeVariable(uint32_t slot,
                                          std::string_view name) {
  MaybeMutexLock lock(&mu_, concurrent_);
  auto it = var_cons_.find(VarKey{slot, name});
  if (it != var_cons_.end()) return it->second;
  const std::string* stored = &varname_store_.emplace_back(name);
  const Variable* node = arena_.New<Variable>(slot, stored, NextUid(),
                                              HashMix64(kVarHashSeed));
  var_cons_.emplace(VarKey{slot, *stored}, node);
  return node;
}

const Variable* TermFactory::CanonicalVar(uint32_t slot) {
  MaybeMutexLock lock(&mu_, concurrent_);
  while (canonical_vars_.size() <= slot) {
    uint32_t s = static_cast<uint32_t>(canonical_vars_.size());
    varname_store_.push_back("_" + std::to_string(s));
    canonical_vars_.push_back(arena_.New<Variable>(
        s, &varname_store_.back(), NextUid(), HashMix64(kVarHashSeed)));
  }
  return canonical_vars_[slot];
}

const Tuple* TermFactory::MakeTuple(std::span<const Arg* const> args) {
  MaybeMutexLock lock(&mu_, concurrent_);
  // The node hash is only needed when a new node is allocated; fixpoint
  // evaluation re-derives mostly-existing tuples, so hash on the cons
  // miss, not before the lookup.
  uint64_t key = ConsKey(0x70b1ull, args);
  if (const Tuple* hit = tuple_cons_.Find(args, key)) return hit;
  bool ground = true;
  for (const Arg* a : args) ground = ground && a->IsGround();
  // Canonical tuples number variable slots 0..k-1, so the var count is
  // the max slot + 1.
  uint32_t var_count = 0;
  struct Walker {
    static void Visit(const Arg* a, uint32_t* max_slot) {
      if (a->IsGround()) return;
      switch (a->kind()) {
        case ArgKind::kVariable: {
          uint32_t s = ArgCast<Variable>(a)->slot();
          *max_slot = std::max(*max_slot, s + 1);
          break;
        }
        case ArgKind::kAtomOrFunctor: {
          const auto* f = ArgCast<FunctorArg>(a);
          for (const Arg* c : f->args()) Visit(c, max_slot);
          break;
        }
        case ArgKind::kSet: {
          const auto* s = ArgCast<SetArg>(a);
          for (const Arg* c : s->elems()) Visit(c, max_slot);
          break;
        }
        default:
          break;
      }
    }
  };
  for (const Arg* a : args) Walker::Visit(a, &var_count);
  const Tuple* node = arena_.New<Tuple>(args, CopyArgs(args), ground,
                                        var_count, NextUid(),
                                        HashChildren(0x7091eull, args));
  tuple_cons_.Insert(node, key);
  return node;
}

bool StructuralEqualArgs(const Arg* a, const Arg* b) {
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ArgKind::kInt:
      return ArgCast<IntArg>(a)->value() == ArgCast<IntArg>(b)->value();
    case ArgKind::kDouble:
      return ArgCast<DoubleArg>(a)->value() == ArgCast<DoubleArg>(b)->value();
    case ArgKind::kString:
      return ArgCast<StringArg>(a)->value() == ArgCast<StringArg>(b)->value();
    case ArgKind::kBigInt:
      return ArgCast<BigIntArg>(a)->value() == ArgCast<BigIntArg>(b)->value();
    case ArgKind::kAtomOrFunctor: {
      const auto* fa = ArgCast<FunctorArg>(a);
      const auto* fb = ArgCast<FunctorArg>(b);
      if (fa->functor() != fb->functor() || fa->arity() != fb->arity()) {
        return false;
      }
      for (uint32_t i = 0; i < fa->arity(); ++i) {
        if (!StructuralEqualArgs(fa->arg(i), fb->arg(i))) return false;
      }
      return true;
    }
    case ArgKind::kSet: {
      const auto* sa = ArgCast<SetArg>(a);
      const auto* sb = ArgCast<SetArg>(b);
      if (sa->size() != sb->size()) return false;
      for (uint32_t i = 0; i < sa->size(); ++i) {
        if (!StructuralEqualArgs(sa->elem(i), sb->elem(i))) return false;
      }
      return true;
    }
    case ArgKind::kVariable:
      return ArgCast<Variable>(a)->slot() == ArgCast<Variable>(b)->slot();
    case ArgKind::kUser:
      return a->Equals(*b);
  }
  return false;
}

}  // namespace coral
