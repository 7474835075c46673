#include "src/core/aggregate.h"

#include "src/core/builtins.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace coral {

AggHeadSpec AnalyzeAggHead(const Literal& head) {
  AggHeadSpec spec;
  for (const Arg* a : head.args) {
    AggFn fn = AggFn::kNone;
    const Arg* projected = a;
    if (a->kind() == ArgKind::kAtomOrFunctor) {
      const auto* f = ArgCast<FunctorArg>(a);
      if (f->name() == kGroupMarker && f->arity() == 1) {
        fn = AggFn::kSetOf;
        projected = f->arg(0);
      } else if (f->arity() == 1 &&
                 AggFnFromName(f->name()) != AggFn::kNone) {
        const Arg* inner = f->arg(0);
        if (inner->kind() == ArgKind::kAtomOrFunctor) {
          const auto* g = ArgCast<FunctorArg>(inner);
          if (g->name() == kGroupMarker && g->arity() == 1) {
            fn = AggFnFromName(f->name());
            projected = g->arg(0);
          }
        }
      }
    }
    spec.fns.push_back(fn);
    spec.pre_head.push_back(projected);
  }
  return spec;
}

bool GroupAccumulator::Emit(const Tuple* t) {
  if (status_.ok()) status_ = Feed(t);
  return false;
}

Status GroupAccumulator::Feed(const Tuple* t) {
  // Find or create the group; tuples of one group agree at every
  // group-by position, so its first tuple names it.
  uint64_t h = 0x96093ull;
  for (size_t i = 0; i < spec_->fns.size(); ++i) {
    if (spec_->fns[i] == AggFn::kNone) h = HashCombine(h, t->arg(i)->Hash());
  }
  auto same_group = [&](const Tuple* g) {
    for (size_t i = 0; i < spec_->fns.size(); ++i) {
      const Arg* a = g->arg(i);
      const Arg* b = t->arg(i);
      if (spec_->fns[i] == AggFn::kNone && a != b && !a->Equals(*b)) {
        return false;
      }
    }
    return true;
  };
  Group* group = nullptr;
  for (auto [it, end] = index_.equal_range(h); it != end && !group; ++it) {
    if (same_group(groups_[it->second].first)) group = &groups_[it->second];
  }
  if (group == nullptr) {
    index_.emplace(h, groups_.size());
    group = &groups_.emplace_back(
        Group{t, std::vector<AggState>(spec_->fns.size())});
  }

  for (size_t i = 0; i < spec_->fns.size(); ++i) {
    const AggFn fn = spec_->fns[i];
    if (fn == AggFn::kNone) continue;
    AggState& st = group->states[i];
    const Arg* v = t->arg(i);
    switch (fn) {
      case AggFn::kMin:
        if (st.best == nullptr || CompareArgs(v, st.best) < 0) st.best = v;
        break;
      case AggFn::kMax:
        if (st.best == nullptr || CompareArgs(v, st.best) > 0) st.best = v;
        break;
      case AggFn::kAny:
        if (st.best == nullptr) st.best = v;
        break;
      case AggFn::kCount:
        ++st.count;
        break;
      case AggFn::kSum:
      case AggFn::kAvg: {
        ++st.count;
        if (st.sum == nullptr) {
          st.sum = v;
        } else {
          const Arg* args[] = {st.sum, v};
          CORAL_ASSIGN_OR_RETURN(
              TermRef r,
              EvalArith(factory_->MakeFunctor("+", args), nullptr, factory_));
          if (r.term->kind() == ArgKind::kVariable) {
            return Status::InvalidArgument("sum over non-numeric values");
          }
          st.sum = r.term;
        }
        break;
      }
      case AggFn::kSetOf:
        st.collected.push_back(v);
        break;
      case AggFn::kNone:
        break;
    }
  }
  return Status::OK();
}

StatusOr<std::vector<const Tuple*>> GroupAccumulator::Finish() {
  CORAL_RETURN_IF_ERROR(status_);
  std::vector<const Tuple*> out;
  for (Group& g : groups_) {
    std::vector<const Arg*> args;
    bool skip_group = false;
    for (size_t i = 0; i < spec_->fns.size(); ++i) {
      AggState& st = g.states[i];
      switch (spec_->fns[i]) {
        case AggFn::kNone:
          args.push_back(g.first->arg(i));
          break;
        case AggFn::kMin:
        case AggFn::kMax:
        case AggFn::kAny:
          if (st.best == nullptr) {
            skip_group = true;
            break;
          }
          args.push_back(st.best);
          break;
        case AggFn::kCount:
          args.push_back(factory_->MakeInt(st.count));
          break;
        case AggFn::kSum:
          if (st.sum == nullptr) {
            skip_group = true;
            break;
          }
          args.push_back(st.sum);
          break;
        case AggFn::kAvg: {
          if (st.sum == nullptr || st.count == 0) {
            skip_group = true;
            break;
          }
          const Arg* divargs[] = {
              st.sum, factory_->MakeDouble(static_cast<double>(st.count))};
          CORAL_ASSIGN_OR_RETURN(
              TermRef r, EvalArith(factory_->MakeFunctor("/", divargs),
                                   nullptr, factory_));
          args.push_back(r.term);
          break;
        }
        case AggFn::kSetOf:
          args.push_back(factory_->MakeSet(st.collected));
          break;
      }
      if (skip_group) break;
    }
    if (!skip_group) out.push_back(factory_->MakeTuple(args));
  }
  groups_.clear();
  index_.clear();
  return out;
}

}  // namespace coral
