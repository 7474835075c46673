// Copyright (c) 1993-style CORAL reproduction authors.
// Per-opcode counters for the join bytecode VM (docs/VM.md). One instance
// lives in the Database; workers accumulate into plain locals during a
// rule application and flush once per application, so the atomics are off
// the per-tuple hot path.

#ifndef CORAL_OBS_VM_STATS_H_
#define CORAL_OBS_VM_STATS_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace coral::obs {

struct VmCounters {
  /// Rule applications executed by the VM.
  std::atomic<uint64_t> applications{0};
  /// Applications with a bound program that ran on the interpreter
  /// because an input relation may hold a non-ground tuple.
  std::atomic<uint64_t> runtime_fallbacks{0};
  /// PROBE_INDEX executions that degraded to a full window scan because
  /// the planned argument index is absent on the bound relation.
  std::atomic<uint64_t> probe_scan_fallbacks{0};

  // Static verifier outcomes (src/vm/verifier.h), counted at form
  // compile time — why a rule version runs interpreted.
  /// Programs that passed the whole-plan audit.
  std::atomic<uint64_t> programs_verified{0};
  /// Programs the verifier/audit rejected (forced interpreter fallback).
  std::atomic<uint64_t> verifier_rejected{0};
  /// Warning findings (CRL302 probe-without-index, CRL303 always-fail).
  std::atomic<uint64_t> verifier_warnings{0};
  /// Rule versions the compiler skipped for shape reasons (negation,
  /// builtins the VM lacks, ...).
  std::atomic<uint64_t> compile_skips{0};
  /// Compiled programs that failed to bind at activation time (head or
  /// body relation shape unsupported) and ran interpreted.
  std::atomic<uint64_t> bind_fallbacks{0};

  // Per-opcode execution counts.
  std::atomic<uint64_t> scan_full{0};
  std::atomic<uint64_t> scan_delta{0};
  std::atomic<uint64_t> probe_index{0};
  std::atomic<uint64_t> unify_arg{0};
  std::atomic<uint64_t> test_builtin{0};
  std::atomic<uint64_t> project{0};
  std::atomic<uint64_t> insert{0};

  void Reset() {
    for (std::atomic<uint64_t>* c :
         {&applications, &runtime_fallbacks, &probe_scan_fallbacks,
          &programs_verified, &verifier_rejected, &verifier_warnings,
          &compile_skips, &bind_fallbacks, &scan_full, &scan_delta,
          &probe_index, &unify_arg, &test_builtin, &project, &insert}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

inline std::string RenderVmCounters(const VmCounters& c) {
  auto v = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::ostringstream os;
  os << "=== CORAL VM counters ===\n"
     << "applications:         " << v(c.applications) << "\n"
     << "runtime fallbacks:    " << v(c.runtime_fallbacks) << "\n"
     << "probe->scan degrades: " << v(c.probe_scan_fallbacks) << "\n"
     << "programs verified:    " << v(c.programs_verified) << "\n"
     << "verifier rejected:    " << v(c.verifier_rejected) << "\n"
     << "verifier warnings:    " << v(c.verifier_warnings) << "\n"
     << "compile skips:        " << v(c.compile_skips) << "\n"
     << "bind fallbacks:       " << v(c.bind_fallbacks) << "\n"
     << "SCAN_FULL:            " << v(c.scan_full) << "\n"
     << "SCAN_DELTA:           " << v(c.scan_delta) << "\n"
     << "PROBE_INDEX:          " << v(c.probe_index) << "\n"
     << "UNIFY_ARG:            " << v(c.unify_arg) << "\n"
     << "TEST_BUILTIN:         " << v(c.test_builtin) << "\n"
     << "PROJECT:              " << v(c.project) << "\n"
     << "INSERT:               " << v(c.insert) << "\n";
  return os.str();
}

}  // namespace coral::obs

#endif  // CORAL_OBS_VM_STATS_H_
