#include "src/storage/buffer_pool.h"

#include <algorithm>

#include "src/util/logging.h"

namespace coral {

PageGuard::PageGuard(BufferPool* pool, PageId id, char* data, bool* dirty)
    : pool_(pool), id_(id), data_(data), dirty_(dirty) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& o) noexcept
    : pool_(o.pool_), id_(o.id_), data_(o.data_), dirty_(o.dirty_) {
  o.pool_ = nullptr;
  o.data_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    id_ = o.id_;
    data_ = o.data_;
    dirty_ = o.dirty_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  CORAL_DCHECK(data_ != nullptr);
  if (!*dirty_) {
    pool_->OnFirstModify(id_, data_);
    *dirty_ = true;
  }
}

void PageGuard::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    pool_->Unpin(id_);
  }
  pool_ = nullptr;
  data_ = nullptr;
}

BufferPool::BufferPool(DiskManager* disk, size_t frames)
    : disk_(disk), frame_count_(frames) {
  CORAL_CHECK_GT(frames, 0u);
  MutexLock lock(&mu_);
  frames_.resize(frames);
  for (size_t i = 0; i < frames; ++i) {
    frames_[i].data = std::make_unique<char[]>(kPageSize);
    lru_.push_back(i);
  }
}

BufferPool::~BufferPool() {
  if (!disk_->is_open()) return;  // already closed cleanly
  Status st = FlushAll();
  if (!st.ok()) {
    // Destructor cannot propagate; data loss here only affects unsynced
    // caches of an already-failing process.
    std::fprintf(stderr, "coral: buffer pool flush failed: %s\n",
                 st.ToString().c_str());
  }
}

void BufferPool::Touch(size_t frame_idx) {
  lru_.remove(frame_idx);
  lru_.push_front(frame_idx);
}

StatusOr<BufferPool::Frame*> BufferPool::GetVictim() {
  // LRU unpinned frame, scanning from the back (least recent).
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    Frame& f = frames_[*it];
    if (f.pins > 0) continue;
    if (f.page != kInvalidPageId) {
      if (f.dirty) {
        CORAL_RETURN_IF_ERROR(disk_->WritePage(f.page, f.data.get()));
        f.dirty = false;
      }
      table_.erase(f.page);
      ++evictions_;
      f.page = kInvalidPageId;
    }
    return &f;
  }
  return Status::FailedPrecondition(
      "buffer pool exhausted: all frames pinned");
}

StatusOr<PageGuard> BufferPool::Fetch(PageId id) {
  MutexLock lock(&mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    ++hits_;
    Frame& f = frames_[it->second];
    ++f.pins;
    Touch(it->second);
    return PageGuard(this, id, f.data.get(), &f.dirty);
  }
  ++misses_;
  CORAL_ASSIGN_OR_RETURN(Frame * f, GetVictim());
  CORAL_RETURN_IF_ERROR(disk_->ReadPage(id, f->data.get()));
  f->page = id;
  f->pins = 1;
  f->dirty = false;
  size_t idx = static_cast<size_t>(f - frames_.data());
  table_[id] = idx;
  Touch(idx);
  return PageGuard(this, id, f->data.get(), &f->dirty);
}

StatusOr<PageGuard> BufferPool::New() {
  MutexLock lock(&mu_);
  CORAL_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  CORAL_ASSIGN_OR_RETURN(Frame * f, GetVictim());
  std::memset(f->data.get(), 0, kPageSize);
  f->page = id;
  f->pins = 1;
  // The new page's before-image is all zeroes (its on-disk state).
  OnFirstModify(id, f->data.get());
  f->dirty = true;
  size_t idx = static_cast<size_t>(f - frames_.data());
  table_[id] = idx;
  Touch(idx);
  return PageGuard(this, id, f->data.get(), &f->dirty);
}

void BufferPool::Invalidate(PageId id) {
  MutexLock lock(&mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  CORAL_CHECK_EQ(f.pins, 0) << "invalidating a pinned page";
  f.page = kInvalidPageId;
  f.dirty = false;
  table_.erase(it);
}

void BufferPool::Unpin(PageId id) {
  MutexLock lock(&mu_);
  auto it = table_.find(id);
  CORAL_CHECK(it != table_.end()) << "unpin of unknown page " << id;
  Frame& f = frames_[it->second];
  CORAL_CHECK_GT(f.pins, 0);
  --f.pins;
}

Status BufferPool::FlushAll() {
  MutexLock lock(&mu_);
  for (Frame& f : frames_) {
    if (f.page != kInvalidPageId && f.dirty) {
      CORAL_RETURN_IF_ERROR(disk_->WritePage(f.page, f.data.get()));
      f.dirty = false;
    }
  }
  return disk_->Sync();
}

}  // namespace coral
