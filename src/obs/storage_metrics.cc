#include "src/obs/storage_metrics.h"

namespace coral::obs {

StorageMetrics& StorageMetrics::Instance() {
  static StorageMetrics* metrics = new StorageMetrics();
  return *metrics;
}

void StorageMetrics::RecordEvent(std::string what, std::string detail,
                                 uint64_t count) {
  MutexLock lock(&mu_);
  if (events_.size() >= kMaxEvents) return;
  events_.push_back(
      RecoveryEvent{std::move(what), std::move(detail), count});
}

std::vector<RecoveryEvent> StorageMetrics::events() const {
  MutexLock lock(&mu_);
  return events_;
}

bool StorageMetrics::SawEvent(const std::string& what) const {
  MutexLock lock(&mu_);
  for (const RecoveryEvent& e : events_) {
    if (e.what == what) return true;
  }
  return false;
}

void StorageMetrics::Reset() {
  eintr_retries = 0;
  short_transfers = 0;
  transient_retries = 0;
  dir_fsyncs = 0;
  faults_injected = 0;
  crashes_simulated = 0;
  wal_records_appended = 0;
  wal_bytes_appended = 0;
  wal_append_truncations = 0;
  recoveries_run = 0;
  recovered_pages_restored = 0;
  recovered_txns_undone = 0;
  torn_tails_truncated = 0;
  corrupt_records_dropped = 0;
  old_format_logs_read = 0;
  read_only_degradations = 0;
  MutexLock lock(&mu_);
  events_.clear();
}

}  // namespace coral::obs
