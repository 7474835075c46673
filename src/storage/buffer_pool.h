// Copyright (c) 1993-style CORAL reproduction authors.
// The client-side buffer pool (paper §2/§3.2: "CORAL is the client
// process, and maintains buffers for persistent relations. If a requested
// tuple is not in the client buffer pool, a request is forwarded to the
// EXODUS server and the page with the requested tuple is retrieved").
// Pin/unpin discipline with LRU replacement of unpinned frames. One latch
// guards the pin table, the LRU list and the counters, so concurrent
// readers may fetch and unpin pages; page contents are not latched.

#ifndef CORAL_STORAGE_BUFFER_POOL_H_
#define CORAL_STORAGE_BUFFER_POOL_H_

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/storage/disk_manager.h"
#include "src/util/sync.h"

namespace coral {

class BufferPool;

/// A pinned page frame. Unpins on destruction (RAII).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, char* data, bool* dirty);
  ~PageGuard();
  PageGuard(PageGuard&& o) noexcept;
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return data_ != nullptr; }
  PageId id() const { return id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }
  /// Marks the page dirty. MUST be called BEFORE modifying the frame: the
  /// first call per page hands the pre-modification image to the WAL hook.
  void MarkDirty();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  bool* dirty_ = nullptr;
};

class BufferPool {
 public:
  using ModifyHook = std::function<void(PageId, const char* before_image)>;

  BufferPool(DiskManager* disk, size_t frames);
  ~BufferPool();

  /// Pins the page, reading it from the server on a miss.
  StatusOr<PageGuard> Fetch(PageId id) CORAL_EXCLUDES(mu_);

  /// Allocates a new page and pins it (zeroed; caller formats it).
  StatusOr<PageGuard> New() CORAL_EXCLUDES(mu_);

  Status FlushAll() CORAL_EXCLUDES(mu_);

  /// Installs the WAL before-image hook, invoked on the first MarkDirty
  /// of each clean cached page.
  void SetModifyHook(ModifyHook hook) { modify_hook_ = std::move(hook); }

  /// Drops a cached page (after its disk content was externally restored,
  /// e.g. by transaction abort). The frame must be unpinned.
  void Invalidate(PageId id) CORAL_EXCLUDES(mu_);

  size_t frame_count() const { return frame_count_; }
  DiskManager* disk() const { return disk_; }
  uint64_t hits() const CORAL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return hits_;
  }
  uint64_t misses() const CORAL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return misses_;
  }
  uint64_t evictions() const CORAL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return evictions_;
  }

 private:
  friend class PageGuard;
  void OnFirstModify(PageId id, const char* before) {
    if (modify_hook_) modify_hook_(id, before);
  }
  struct Frame {
    PageId page = kInvalidPageId;
    int pins = 0;
    bool dirty = false;
    std::unique_ptr<char[]> data;
  };

  void Unpin(PageId id) CORAL_EXCLUDES(mu_);
  /// Frame to (re)use; evicts the LRU unpinned frame if necessary.
  StatusOr<Frame*> GetVictim() CORAL_REQUIRES(mu_);
  void Touch(size_t frame_idx) CORAL_REQUIRES(mu_);

  DiskManager* disk_;
  ModifyHook modify_hook_;
  const size_t frame_count_;
  mutable Mutex mu_{kRankBufferPool};
  std::vector<Frame> frames_ CORAL_GUARDED_BY(mu_);
  std::unordered_map<PageId, size_t> table_ CORAL_GUARDED_BY(mu_);
  std::list<size_t> lru_ CORAL_GUARDED_BY(mu_);  // most-recent at front
  uint64_t hits_ CORAL_GUARDED_BY(mu_) = 0;
  uint64_t misses_ CORAL_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ CORAL_GUARDED_BY(mu_) = 0;
};

}  // namespace coral

#endif  // CORAL_STORAGE_BUFFER_POOL_H_
