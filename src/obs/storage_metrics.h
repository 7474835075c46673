// Copyright (c) 1993-style CORAL reproduction authors.
// Observability for the EXODUS-substitute storage layer: I/O hardening
// counters (EINTR retries, short-transfer continuations, transient-error
// retries), fault-injection bookkeeping, and a structured log of crash
// recovery events. Unlike evaluation statistics (stats.h), which hang off
// a Database, these are process-wide: the storage layer runs below any
// Database and its failure paths must be observable even when opening the
// database itself fails. Counters are relaxed atomics; the event log is
// mutex-guarded and bounded.

#ifndef CORAL_OBS_STORAGE_METRICS_H_
#define CORAL_OBS_STORAGE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/sync.h"

namespace coral::obs {

/// One notable event from WAL recovery or degraded-mode handling, in the
/// order it happened. `count` is event-specific (pages restored, bytes
/// truncated, ...).
struct RecoveryEvent {
  std::string what;    // "recover.start", "recover.torn_tail", ...
  std::string detail;  // human-readable context (path, txn, ...)
  uint64_t count = 0;
};

class StorageMetrics {
 public:
  static StorageMetrics& Instance();

  StorageMetrics(const StorageMetrics&) = delete;
  StorageMetrics& operator=(const StorageMetrics&) = delete;

  // ---- I/O hardening ----
  std::atomic<uint64_t> eintr_retries{0};        // write/read resumed after EINTR
  std::atomic<uint64_t> short_transfers{0};      // partial write/read continued
  std::atomic<uint64_t> transient_retries{0};    // bounded retry of EAGAIN-class errors
  std::atomic<uint64_t> dir_fsyncs{0};           // parent-directory fsyncs after create

  // ---- fault injection ----
  std::atomic<uint64_t> faults_injected{0};      // decisions that fired
  std::atomic<uint64_t> crashes_simulated{0};    // persistence freezes triggered

  // ---- write-ahead log ----
  std::atomic<uint64_t> wal_records_appended{0};
  std::atomic<uint64_t> wal_bytes_appended{0};
  std::atomic<uint64_t> wal_append_truncations{0};  // failed append rolled back

  // ---- recovery ----
  std::atomic<uint64_t> recoveries_run{0};
  std::atomic<uint64_t> recovered_pages_restored{0};
  std::atomic<uint64_t> recovered_txns_undone{0};
  std::atomic<uint64_t> torn_tails_truncated{0};
  std::atomic<uint64_t> corrupt_records_dropped{0};
  std::atomic<uint64_t> old_format_logs_read{0};
  std::atomic<uint64_t> read_only_degradations{0};

  /// Appends to the bounded recovery event log (oldest events win).
  void RecordEvent(std::string what, std::string detail, uint64_t count = 0);
  std::vector<RecoveryEvent> events() const;

  /// True iff an event with this `what` has been recorded since the last
  /// Reset (test convenience).
  bool SawEvent(const std::string& what) const;

  /// Zeroes every counter and clears the event log (tests only; the
  /// storage layer never resets its own metrics).
  void Reset();

  static constexpr size_t kMaxEvents = 1024;

 private:
  StorageMetrics() = default;

  mutable Mutex mu_{kRankStorageMetrics};  // guards events_ only
  std::vector<RecoveryEvent> events_ CORAL_GUARDED_BY(mu_);
};

}  // namespace coral::obs

#endif  // CORAL_OBS_STORAGE_METRICS_H_
