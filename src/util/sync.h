// Copyright (c) 1993-style CORAL reproduction authors.
// The engine's only locking primitives: Mutex / SharedMutex / CondVar and
// their RAII guards, carrying Clang Thread Safety Analysis capability
// attributes so the lock discipline is machine-checked at compile time
// (-Wthread-safety; CI builds with the warnings as errors). Under
// non-Clang compilers every attribute expands to nothing and the wrappers
// cost exactly what the std primitives cost.
//
// Raw std::mutex / std::lock_guard / std::condition_variable are banned
// outside this file (tools/lock_lint.sh enforces it in CI): a lock the
// analysis cannot see is a lock whose discipline nobody checks.
//
// On top of the annotations, debug builds run a lock-ORDER checker:
// every Mutex carries a rank (see LockRank below; docs/CONCURRENCY.md has
// the full table) and a thread may only acquire a ranked mutex whose rank
// is strictly greater than the highest-ranked mutex it already holds.
// Acquisition-order inversions — the A→B / B→A pattern that deadlocks
// under the wrong interleaving — are detected deterministically on ANY
// schedule that merely acquires in the wrong order, and reported with the
// two offending ranks. The checker is compiled out under NDEBUG
// (RelWithDebInfo / Release); define CORAL_FORCE_LOCK_ORDER_CHECKS to
// keep it in a release TU (tests/sync_test.cc does).

#ifndef CORAL_UTIL_SYNC_H_
#define CORAL_UTIL_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <utility>

// ---- Clang Thread Safety Analysis attribute macros -----------------------
// The standard mapping from the Clang TSA documentation, CORAL_-prefixed.
// See docs/CONCURRENCY.md for the conventions (which macro goes where).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CORAL_TS_ATTRIBUTE__(x) __attribute__((x))
#endif
#endif
#ifndef CORAL_TS_ATTRIBUTE__
#define CORAL_TS_ATTRIBUTE__(x)  // no-op under GCC/MSVC/old Clang
#endif

/// Declares a class to be a lockable capability ("mutex" names it in
/// diagnostics).
#define CORAL_CAPABILITY(x) CORAL_TS_ATTRIBUTE__(capability(x))
/// Declares an RAII class whose lifetime equals a critical section.
#define CORAL_SCOPED_CAPABILITY CORAL_TS_ATTRIBUTE__(scoped_lockable)
/// Data member readable/writable only while holding the given mutex.
#define CORAL_GUARDED_BY(x) CORAL_TS_ATTRIBUTE__(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the given mutex.
#define CORAL_PT_GUARDED_BY(x) CORAL_TS_ATTRIBUTE__(pt_guarded_by(x))
/// Caller must hold the mutex(es) exclusively before calling.
#define CORAL_REQUIRES(...) \
  CORAL_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
/// Caller must hold the mutex(es) at least shared before calling.
#define CORAL_REQUIRES_SHARED(...) \
  CORAL_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
/// Function acquires the mutex(es) exclusively and does not release them.
#define CORAL_ACQUIRE(...) \
  CORAL_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define CORAL_ACQUIRE_SHARED(...) \
  CORAL_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
/// Function releases mutex(es) the caller holds.
#define CORAL_RELEASE(...) \
  CORAL_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define CORAL_RELEASE_SHARED(...) \
  CORAL_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
/// Releases a capability held in either mode (scoped-guard destructors).
#define CORAL_RELEASE_GENERIC(...) \
  CORAL_TS_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))
/// Function attempts the lock; the boolean argument is the success value.
#define CORAL_TRY_ACQUIRE(...) \
  CORAL_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the mutex(es) (deadlock-on-self documentation).
#define CORAL_EXCLUDES(...) CORAL_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
/// Tells the analysis the capability is held here without acquiring it
/// (runtime-verified entry points).
#define CORAL_ASSERT_CAPABILITY(x) CORAL_TS_ATTRIBUTE__(assert_capability(x))
/// Function returns a reference to the given mutex.
#define CORAL_RETURN_CAPABILITY(x) CORAL_TS_ATTRIBUTE__(lock_returned(x))
/// Turns the analysis off for one function.
#define CORAL_NO_THREAD_SAFETY_ANALYSIS \
  CORAL_TS_ATTRIBUTE__(no_thread_safety_analysis)

/// A deliberate, documented escape from the analysis. `reason` must be a
/// non-empty string literal saying why the unguarded access is safe (the
/// invariant that replaces the lock); tools/lock_lint.sh rejects empty or
/// missing reasons and requires every escaping file to be enumerated in
/// docs/CONCURRENCY.md. Use sparingly: an escape is a proof obligation
/// the compiler has handed back to the reviewer.
#define CORAL_TS_UNSAFE(reason) CORAL_NO_THREAD_SAFETY_ANALYSIS

// ---- lock-order checking --------------------------------------------------

#if !defined(NDEBUG) || defined(CORAL_FORCE_LOCK_ORDER_CHECKS)
#define CORAL_LOCK_ORDER_CHECKS 1
#else
#define CORAL_LOCK_ORDER_CHECKS 0
#endif

namespace coral {

/// Global acquisition order of the engine's long-lived mutexes: a thread
/// may only acquire a mutex whose rank is STRICTLY greater than every
/// ranked mutex it already holds. Gaps leave room for future layers.
/// kRankUnranked (0) opts a mutex out of order checking — reserve it for
/// leaf mutexes provably never held across another acquisition.
/// docs/CONCURRENCY.md documents what each ranked mutex guards.
enum LockRank : uint32_t {
  kRankUnranked = 0,
  // Server layers sit BELOW every engine lock: a server lock may be held
  // while calling into the engine, never the other way around.
  kRankServerSession = 1,    // server Conn::mu_ (per-connection queue)
  kRankServerState = 2,      // Server::mu_ (connection map, lifecycle)
  kRankAdmission = 3,        // AdmissionController::mu_ (work queue)
  kRankCommitLock = 4,       // Database::commit_mu_ (writer commits /
                             // snapshot publication; readers share it
                             // briefly at snapshot acquisition)
  kRankModuleManager = 6,    // ModuleManager::mu_ (form cache, modules)
  kRankModuleIndex = 7,      // ModuleManager::index_mu_ (export/local
                             // claims; Database::Resolve reads them,
                             // also under mu_)
  kRankBaseMap = 8,          // Database::base_mu_ (base-relation map)
  kRankThreadPool = 10,      // ThreadPool::mu_ (batch dispatch state)
  kRankStatsRegistry = 20,   // obs::StatsRegistry::mu_ (profile map)
  kRankModuleProfile = 30,   // obs::ModuleProfile::mu_ (rule/iter logs)
  kRankTermFactory = 40,     // TermFactory::mu_ (arena + hash-cons)
  kRankSymbolTable = 45,     // SymbolTable::mu_ (interning; acquired
                             // under the TermFactory lock by MakeAtom)
  kRankBufferPool = 48,      // BufferPool::mu_ (pin table, LRU,
                             // counters; a miss reads through 50 and 60)
  kRankFaultInjector = 50,   // FaultInjector::mu_ (failpoint registry)
  kRankStorageMetrics = 60,  // obs::StorageMetrics::mu_ (event ring)
};

namespace lock_order {

/// Records an acquisition attempt of mutex `mu` with rank `rank` on this
/// thread; reports an inversion if a held ranked mutex has rank >= rank.
/// Called BEFORE blocking on the lock, so a would-deadlock order is
/// reported even when the schedule happens not to deadlock. rank 0 is
/// tracked (for release bookkeeping) but exempt from order checking.
void OnAcquire(const void* mu, uint32_t rank);
/// Removes `mu` from this thread's held-lock stack.
void OnRelease(const void* mu);

/// Process-wide count of inversions detected since start / ResetViolations.
uint64_t Violations();
void ResetViolations();
/// Ranks of the most recent inversion: {held_rank, acquiring_rank}.
/// {0, 0} when none has been recorded.
std::pair<uint32_t, uint32_t> LastViolation();
/// Number of locks the calling thread currently holds (test introspection).
size_t HeldCountForTest();

}  // namespace lock_order

// ---- primitives -----------------------------------------------------------

class CondVar;

/// An annotated std::mutex. Construct with a LockRank so debug builds
/// verify acquisition order; rank 0 skips order checking.
class CORAL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(uint32_t rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CORAL_ACQUIRE() {
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnAcquire(this, rank_);
#endif
    mu_.lock();
  }

  void Unlock() CORAL_RELEASE() {
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnRelease(this);
#endif
    mu_.unlock();
  }

  bool TryLock() CORAL_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnAcquire(this, rank_);
#endif
    return true;
  }

  /// For code whose correctness argument is "the caller locked for us"
  /// but whose call graph the analysis cannot follow.
  void AssertHeld() const CORAL_ASSERT_CAPABILITY(this) {}

  uint32_t rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const uint32_t rank_ = kRankUnranked;
};

/// An annotated std::shared_mutex: one writer or many readers. The
/// snapshot/epoch reader-writer work for the query server builds on this.
class CORAL_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(uint32_t rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() CORAL_ACQUIRE() {
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnAcquire(this, rank_);
#endif
    mu_.lock();
  }
  void Unlock() CORAL_RELEASE() {
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnRelease(this);
#endif
    mu_.unlock();
  }
  void LockShared() CORAL_ACQUIRE_SHARED() {
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnAcquire(this, rank_);
#endif
    mu_.lock_shared();
  }
  void UnlockShared() CORAL_RELEASE_SHARED() {
#if CORAL_LOCK_ORDER_CHECKS
    lock_order::OnRelease(this);
#endif
    mu_.unlock_shared();
  }

  void AssertHeld() const CORAL_ASSERT_CAPABILITY(this) {}

  uint32_t rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const uint32_t rank_ = kRankUnranked;
};

/// Condition variable bound to Mutex. Wait atomically releases the mutex
/// and re-acquires it before returning, so from the analysis's point of
/// view (and the lock-order checker's) the caller holds the mutex across
/// the whole call. Always wait in a loop re-testing the guarded predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) CORAL_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's guard
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ---- RAII guards ----------------------------------------------------------

/// Exclusive critical section over a Mutex (std::lock_guard shape).
class CORAL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) CORAL_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() CORAL_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Exclusive (writer) critical section over a SharedMutex.
class CORAL_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) CORAL_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() CORAL_RELEASE() { mu_->Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Shared (reader) critical section over a SharedMutex.
class CORAL_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) CORAL_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() CORAL_RELEASE_GENERIC() { mu_->UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Conditionally-engaged MutexLock for single-thread fast paths (the
/// TermFactory mutex elision: with one thread every construction skips
/// the lock entirely). To the ANALYSIS this guard always acquires `mu` —
/// when disengaged, the caller owns the proof that no second thread can
/// touch the guarded state for the guard's lifetime. That proof is the
/// single documented fiction in the locking model; see
/// docs/CONCURRENCY.md ("conditional locking").
class CORAL_SCOPED_CAPABILITY MaybeMutexLock {
 public:
  MaybeMutexLock(Mutex* mu, bool engage) CORAL_ACQUIRE(mu)
      : mu_(engage ? mu : nullptr) {
    if (mu_ != nullptr) mu_->Lock();
  }
  ~MaybeMutexLock() CORAL_RELEASE() {
    if (mu_ != nullptr) mu_->Unlock();
  }
  MaybeMutexLock(const MaybeMutexLock&) = delete;
  MaybeMutexLock& operator=(const MaybeMutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace coral

#endif  // CORAL_UTIL_SYNC_H_
