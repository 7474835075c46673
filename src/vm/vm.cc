// Copyright (c) 1993-style CORAL reproduction authors.

#include "src/vm/vm.h"

#include <memory>
#include <vector>

#include "src/core/builtins.h"
#include "src/core/eval_context.h"
#include "src/rel/partition.h"
#include "src/util/logging.h"

namespace coral::vm {

namespace {

class Executor {
 public:
  Executor(const RunInput& in, TupleSink* sink, RunStats* st)
      : in_(in),
        prog_(*in.prog),
        sink_(sink),
        matched_(in.matched),
        st_(st),
        regs_(prog_.nregs, nullptr),
        cand_(prog_.levels.size()),
        head_buf_(prog_.head.size(), nullptr) {}

  Status Run() {
    RunLevel(0);
    return std::move(status_);
  }

 private:
  const Arg* OperandValue(const Operand& o) const {
    return o.is_const ? prog_.consts[o.index] : regs_[o.index];
  }

  /// Mirrors the interpreter's comparison builtins exactly: arithmetic
  /// faults fail the goal silently; `=`/`\=` on ground canonical terms
  /// are pointer (in)equality; the others use the total term order.
  bool EvalTest(const Instr& c) {
    auto ea = EvalArith(OperandValue(c.a), nullptr, in_.factory);
    if (!ea.ok()) return false;
    auto eb = EvalArith(OperandValue(c.b), nullptr, in_.factory);
    if (!eb.ok()) return false;
    const Arg* ta = ea->term;
    const Arg* tb = eb->term;
    switch (c.cmp) {
      case CmpOp::kEq: return ta == tb;
      case CmpOp::kNe: return ta != tb;
      case CmpOp::kLt: return CompareArgs(ta, tb) < 0;
      case CmpOp::kGt: return CompareArgs(ta, tb) > 0;
      case CmpOp::kLe: return CompareArgs(ta, tb) <= 0;
      case CmpOp::kGe: return CompareArgs(ta, tb) >= 0;
    }
    return false;
  }

  /// One candidate at level `li`. Returns false only when status_ stops
  /// the application; a failed check just skips the candidate.
  bool Step(const Level& lv, size_t li, const Tuple* t, bool part_here) {
    // Deadline poll, amortized over 1,024 candidates like RuleCursor's.
    if ((++st_->tuples & 1023u) == 0) {
      status_ = CheckEvalDeadline();
      if (!status_.ok()) return false;
    }
    CORAL_DCHECK(t->IsGround());
    if (part_here &&
        PartitionKey(t, in_.part_col) % in_.part_count != in_.part_index) {
      return true;
    }
    const uint32_t end = lv.first_check + lv.num_checks;
    for (uint32_t i = lv.first_check; i < end; ++i) {
      const Instr& c = prog_.code[i];
      if (c.op == Op::kUnifyArg) {
        ++st_->ops.unify_arg;
        const Arg* v = t->arg(c.col);
        switch (c.mode) {
          case UnifyMode::kMatchConst:
            if (v != prog_.consts[c.a.index]) return true;
            break;
          case UnifyMode::kLoadReg:
            regs_[c.a.index] = v;
            break;
          case UnifyMode::kCheckReg:
            if (v != regs_[c.a.index]) return true;
            break;
        }
      } else {
        ++st_->ops.test_builtin;
        if (!EvalTest(c)) return true;
      }
    }
    if (matched_ != nullptr) matched_[li] = t;
    return RunLevel(li + 1);
  }

  bool RunLevel(size_t li) {
    if (li == prog_.levels.size()) {
      ++st_->solutions;
      ++st_->ops.project;
      for (size_t i = 0; i < prog_.head.size(); ++i) {
        head_buf_[i] = OperandValue(prog_.head[i]);
      }
      const Tuple* t = in_.factory->MakeTuple(head_buf_);
      ++st_->ops.insert;
      st_->changed = sink_->Emit(t) || st_->changed;
      return true;
    }
    const Level& lv = prog_.levels[li];
    const LevelInput& src = in_.levels[li];
    const bool part_here =
        in_.part_lit == static_cast<int>(lv.lit) && in_.part_count > 1;
    if (src.rel != nullptr && src.from < src.to &&
        !ReadRelation(lv, li, src, part_here)) {
      return false;
    }
    if (src.extra != nullptr) {
      // A list-only level is a delta scan whatever its opcode.
      if (src.rel == nullptr) ++st_->ops.scan_delta;
      for (const Tuple* t : *src.extra) {
        if (!Step(lv, li, t, part_here)) return false;
      }
    }
    return true;
  }

  /// The relation part of one level: probe or scan the window, passing
  /// over the skip-set.
  bool ReadRelation(const Level& lv, size_t li, const LevelInput& src,
                    bool part_here) {
    auto skipped = [&src](const Tuple* t) {
      return src.skip != nullptr && src.skip->count(t) > 0;
    };
    if (lv.scan == Op::kProbeIndex) {
      key_buf_.clear();
      for (const Operand& o : lv.key_srcs) key_buf_.push_back(OperandValue(o));
      std::vector<const Tuple*>& cand = cand_[li];
      cand.clear();
      if (src.rel->ProbeArgs(lv.key_cols, key_buf_, src.from, src.to,
                             &cand)) {
        ++st_->ops.probe_index;
        for (const Tuple* t : cand) {
          if (!skipped(t) && !Step(lv, li, t, part_here)) return false;
        }
        return true;
      }
      // No index serves the probe (the relation declined): scan the
      // window and let the per-column checks filter (Select's superset
      // contract).
      ++st_->ops.probe_scan_fallbacks;
      ++st_->ops.scan_full;
    } else if (lv.scan == Op::kScanDelta) {
      ++st_->ops.scan_delta;
    } else {
      ++st_->ops.scan_full;
    }
    std::unique_ptr<TupleIterator> it = src.rel->ScanRange(src.from, src.to);
    while (const Tuple* t = it->Next()) {
      if (!skipped(t) && !Step(lv, li, t, part_here)) return false;
    }
    if (!it->status().ok()) status_ = it->status();
    return status_.ok();
  }

  const RunInput& in_;
  const RuleProgram& prog_;
  TupleSink* sink_;
  const Tuple** matched_;
  RunStats* st_;
  std::vector<const Arg*> regs_;
  std::vector<std::vector<const Tuple*>> cand_;
  std::vector<const Arg*> head_buf_;
  std::vector<const Arg*> key_buf_;
  Status status_;
};

}  // namespace

Status Execute(const RunInput& in, TupleSink* sink, RunStats* out) {
  return Executor(in, sink, out).Run();
}

}  // namespace coral::vm
