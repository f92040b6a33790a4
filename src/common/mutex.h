// The library's annotated mutex: every lock in src/ goes through this
// wrapper (a lint rule in tools/lint_invariants.py forbids raw std::mutex
// anywhere else), which buys two checked invariants on top of std::mutex:
//
//  1. Static lock discipline. `Mutex` is a clang thread-safety CAPABILITY
//     (common/annotations.h): fields declared IPS_GUARDED_BY(mu) and
//     helpers declared IPS_REQUIRES(mu) are proved locked at compile time
//     under clang -Wthread-safety (CI's static-analysis job builds with it
//     as -Werror). GCC compiles the annotations away.
//
//  2. Dynamic lock ordering. Every Mutex carries a LockRank; in debug
//     builds a thread-local stack of held ranks aborts the process the
//     moment any thread acquires a mutex whose rank is not strictly above
//     everything it already holds — including same-rank re-entry. A
//     would-be ABBA deadlock (which TSAN only catches if the stress test
//     happens to interleave both orders) becomes a deterministic
//     single-thread failure at the first wrong acquisition. Under NDEBUG
//     the checker compiles out entirely: Lock() is an inline
//     std::mutex::lock with zero added cost (bench_service_throughput
//     release numbers gate this).
//
// The rank order encodes the service layer's documented acquisition
// chains (see each rank's comment); the deepest real chain is
// AttachListener's kListenerRegistry → kStoreShard → kIndexShard — the
// store-shard → index-shard order the SketchStore::Listener mirror
// protocol (index/banded_index.h) relies on.

#ifndef IPSKETCH_COMMON_MUTEX_H_
#define IPSKETCH_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/annotations.h"

namespace ipsketch {

/// Acquisition order of every mutex in the library: a thread may acquire a
/// mutex only if its rank is *strictly greater* than the rank of every
/// mutex it already holds. Equal ranks are never nested — that is how the
/// checker turns cross-shard (and cross-store) ABBA orders and accidental
/// re-entry into deterministic aborts.
enum class LockRank : int {
  /// SketchStore::listener_mu_ — serializes listener attach/detach and the
  /// compactify guard. Held *across* the per-shard replay in
  /// AttachListener, so it must rank below every shard lock.
  kListenerRegistry = 10,
  /// SketchStore per-shard locks. Mutation paths notify the attached
  /// listener while holding one, so everything a listener acquires must
  /// rank above this.
  kStoreShard = 20,
  /// BandedIndex per-shard locks — acquired inside listener callbacks
  /// under the store shard lock (the store-shard → index-shard order of
  /// the mirror protocol).
  kIndexShard = 30,
  /// Locks private to a Listener implementation beyond its mirror shards.
  /// None exist today; reserved so a future listener-owned lock has a
  /// rank above the index shards it is taken under.
  kListener = 40,
  /// FrontDoor's admission-queue lock (service/front_door.h). Held only
  /// for queue pushes/pops and the batch-slot bookkeeping; batch execution
  /// and completion callbacks run strictly after it is released. Ranked
  /// below kPoolQueue so dispatch may hand work to the pool while holding
  /// it, and above the shard ranks because Submit can be called from
  /// listener callbacks that hold a store or index shard lock.
  kFrontDoorQueue = 45,
  /// ThreadPool's task-queue lock. Nothing is ever acquired under it.
  kPoolQueue = 50,
  /// Terminal rank: first-error slots, ParallelFor completion sync, the
  /// metrics registry. Anything may be held when acquiring a leaf; nothing
  /// may be acquired while holding one (two leaves never nest).
  kLeaf = 100,
};

/// True iff the lock-rank checker is compiled in (debug builds). Tests use
/// this to skip rank death-tests under NDEBUG.
#ifdef NDEBUG
inline constexpr bool kLockRankCheckEnabled = false;
#else
inline constexpr bool kLockRankCheckEnabled = true;
#endif

class Mutex;

namespace lock_rank_internal {
#ifndef NDEBUG
/// Aborts with a "lock rank violation" diagnostic unless `mu`'s rank is
/// strictly above every rank the calling thread holds.
void CheckAcquire(const Mutex* mu);
/// Pushes / pops `mu` on the calling thread's held stack.
void PushHeld(const Mutex* mu);
void PopHeld(const Mutex* mu);
#endif
/// Number of locks the calling thread currently holds (0 under NDEBUG —
/// the stack does not exist there). Test-only introspection.
size_t HeldDepthForTesting();
}  // namespace lock_rank_internal

/// An annotated, ranked std::mutex. In release builds this is a zero-cost
/// wrapper; in debug builds every acquisition is rank-checked.
class IPS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kLeaf) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() IPS_ACQUIRE() {
#ifndef NDEBUG
    // Checked before blocking: a rank inversion aborts deterministically
    // even when the other thread of the would-be deadlock never runs.
    lock_rank_internal::CheckAcquire(this);
#endif
    mu_.lock();
#ifndef NDEBUG
    lock_rank_internal::PushHeld(this);
#endif
  }

  void Unlock() IPS_RELEASE() {
#ifndef NDEBUG
    lock_rank_internal::PopHeld(this);
#endif
    mu_.unlock();
  }

  bool TryLock() IPS_TRY_ACQUIRE(true) {
#ifndef NDEBUG
    // A try-acquisition in the wrong order is the same latent deadlock.
    lock_rank_internal::CheckAcquire(this);
#endif
    const bool acquired = mu_.try_lock();
#ifndef NDEBUG
    if (acquired) lock_rank_internal::PushHeld(this);
#endif
    return acquired;
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_;
};

/// RAII lock for a Mutex — the library's replacement for std::lock_guard.
class IPS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) IPS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() IPS_RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Wait atomically releases the
/// mutex and reacquires it before returning, exactly like
/// std::condition_variable — callers keep their IPS_REQUIRES contract
/// across the call (the capability is held on entry and on return). While
/// a thread waits, the mutex stays on its rank stack; that is accurate at
/// every point the thread can actually execute code. Prefer an explicit
/// `while (!cond) cv.Wait(mu);` loop over a predicate lambda so the
/// thread-safety analysis sees the guarded reads under the held lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible, as ever).
  void Wait(Mutex& mu) IPS_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // the caller's scope still owns the (reacquired) lock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ipsketch

#endif  // IPSKETCH_COMMON_MUTEX_H_
