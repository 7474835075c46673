#include "src/obs/storage_metrics.h"

#include "src/util/json_escape.h"

namespace coral::obs {

std::string RecoveryEvent::ToJson() const {
  std::string out = "{\"ev\":\"";
  AppendJsonEscaped(what, &out);
  out.push_back('"');
  if (!detail.empty()) {
    out += ",\"detail\":\"";
    AppendJsonEscaped(detail, &out);
    out.push_back('"');
  }
  if (count != 0) {
    out += ",\"count\":" + std::to_string(count);
  }
  out.push_back('}');
  return out;
}

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

void StorageMetrics::Render(std::ostream& out) const {
  out << "=== CORAL storage metrics ===\n";
  auto row = [&out](const char* name, const std::atomic<uint64_t>& v) {
    uint64_t n = v.load(std::memory_order_relaxed);
    if (n != 0) out << "  " << name << ": " << n << "\n";
  };
  row("eintr_retries", eintr_retries);
  row("short_transfers", short_transfers);
  row("transient_retries", transient_retries);
  row("dir_fsyncs", dir_fsyncs);
  row("faults_injected", faults_injected);
  row("crashes_simulated", crashes_simulated);
  row("wal_records_appended", wal_records_appended);
  row("wal_bytes_appended", wal_bytes_appended);
  row("wal_append_truncations", wal_append_truncations);
  row("recoveries_run", recoveries_run);
  row("recovered_pages_restored", recovered_pages_restored);
  row("recovered_txns_undone", recovered_txns_undone);
  row("torn_tails_truncated", torn_tails_truncated);
  row("corrupt_records_dropped", corrupt_records_dropped);
  row("old_format_logs_read", old_format_logs_read);
  row("read_only_degradations", read_only_degradations);
  std::vector<RecoveryEvent> evs = events();
  for (const RecoveryEvent& e : evs) {
    out << "  " << e.ToJson() << "\n";
  }
}

}  // namespace coral::obs
