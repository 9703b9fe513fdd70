// Annotated lock primitives: thin wrappers over the std synchronization
// types carrying Clang Thread Safety Analysis attributes
// (util/thread_annotations.h), in the style of LevelDB's port::Mutex /
// port::CondVar and abseil's Mutex.
//
// All of src/ uses these instead of raw std::mutex & friends (enforced by
// the `raw-mutex` rule of tools/analyzer) so that the clang
// -Wthread-safety build can see every acquisition:
//
//   Mutex mu_;
//   int depth_ GUARDED_BY(mu_);
//
//   void Add() {
//     MutexLock lock(mu_);
//     depth_++;            // OK: analysis sees the lock
//   }
//
// CondVar pairs with Mutex the way std::condition_variable pairs with
// std::mutex; Wait() is annotated REQUIRES(mu) — the analysis treats the
// lock as held across the wait, which matches the caller's view (the
// temporary release inside wait() is invisible to the invariants the
// caller re-checks through the predicate).
//
// Two further checkers hook in here (both zero-cost when off):
//
//   * Lock-order validation (util/lock_order.h): a Mutex/SharedMutex
//     constructed with a LockRank participates in the declared global
//     acquisition order; every ranked acquisition is checked against the
//     thread's held-lock stack in debug/TSan/DIFFINDEX_CHECK builds.
//   * The concurrency model checker (src/check/, DIFFINDEX_CHECK=ON):
//     a thread registered with the active cooperative Scheduler never
//     blocks the OS thread — a contended Lock or a CondVar wait parks
//     cooperatively and hands the scheduling token over, so the checker
//     fully controls the interleaving.

#ifndef DIFFINDEX_UTIL_MUTEX_H_
#define DIFFINDEX_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/lock_order.h"
#include "util/thread_annotations.h"

#ifdef DIFFINDEX_CHECK
#include "check/scheduler.h"
#endif

namespace diffindex {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  // A ranked mutex participates in lock-order validation; `name` shows
  // up in violation reports (use the member's declared name).
  explicit Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      CoopLock(s);
      lock_order::OnAcquire(rank_, this, /*shared=*/false, name_);
      return;
    }
#endif
    mu_.lock();
    lock_order::OnAcquire(rank_, this, /*shared=*/false, name_);
  }

  void Unlock() RELEASE() {
    lock_order::OnRelease(rank_, this);
    mu_.unlock();
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      s->OnMutexRelease(this);
    }
#endif
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (mu_.try_lock()) {
      lock_order::OnAcquire(rank_, this, /*shared=*/false, name_);
      return true;
    }
    return false;
  }

 private:
  friend class CondVar;

#ifdef DIFFINDEX_CHECK
  // Cooperative acquire: never blocks the OS thread while holding the
  // scheduling token (the lock holder may itself be parked, so a real
  // block would hang the whole run). Falls back to a real block if the
  // scheduler releases mid-run.
  void CoopLock(check::Scheduler* s) {
    for (;;) {
      if (mu_.try_lock()) return;
      if (!s->BlockOnMutex(this)) {
        mu_.lock();
        return;
      }
    }
  }
#endif

  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "mutex";
};

// RAII exclusive lock over a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Reader/writer lock (wraps std::shared_mutex). Writers use Lock/Unlock
// (or WriterMutexLock), readers LockShared/UnlockShared (or
// ReaderMutexLock).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      for (;;) {
        if (mu_.try_lock()) break;
        if (!s->BlockOnMutex(this)) {
          mu_.lock();
          break;
        }
      }
      lock_order::OnAcquire(rank_, this, /*shared=*/false, name_);
      return;
    }
#endif
    mu_.lock();
    lock_order::OnAcquire(rank_, this, /*shared=*/false, name_);
  }

  void Unlock() RELEASE() {
    lock_order::OnRelease(rank_, this);
    mu_.unlock();
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      s->OnMutexRelease(this);
    }
#endif
  }

  void LockShared() ACQUIRE_SHARED() {
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      for (;;) {
        if (mu_.try_lock_shared()) break;
        if (!s->BlockOnMutex(this)) {
          mu_.lock_shared();
          break;
        }
      }
      lock_order::OnAcquire(rank_, this, /*shared=*/true, name_);
      return;
    }
#endif
    mu_.lock_shared();
    lock_order::OnAcquire(rank_, this, /*shared=*/true, name_);
  }

  void UnlockShared() RELEASE_SHARED() {
    lock_order::OnRelease(rank_, this);
    mu_.unlock_shared();
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      s->OnMutexRelease(this);
    }
#endif
  }

 private:
  std::shared_mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "shared_mutex";
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE() {
    if (owned_) mu_.UnlockShared();
  }

  // Early release (absl::ReleasableMutexLock-style), for paths that must
  // drop the gate before slow follow-up work. Call at most once.
  void Release() RELEASE() {
    owned_ = false;
    mu_.UnlockShared();
  }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
  bool owned_ = true;
};

// Condition variable for Mutex. The caller holds `mu` (usually via
// MutexLock); Wait atomically releases it for the duration of the block
// and reacquires before returning, exactly like
// std::condition_variable::wait on a unique_lock.
//
// Under the model checker the wait is cooperative: the waiter releases
// `mu` (it still holds the scheduling token, so no wakeup can slip in
// between), parks with the Scheduler, and is made runnable again by
// Signal/SignalAll — which wake *all* cooperative waiters, a legal
// over-approximation under spurious-wakeup semantics.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      mu.Unlock();
      s->BlockOnCv(this, /*timed=*/false);
      mu.Lock();
      // A release-mode fall-through is a spurious wakeup; callers loop.
      return;
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scoped lock
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
#ifdef DIFFINDEX_CHECK
    while (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      if (pred()) return;
      mu.Unlock();
      const bool controlled = s->BlockOnCv(this, /*timed=*/false);
      mu.Lock();
      if (!controlled) break;  // released mid-wait: real wait below
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  // Returns pred()'s value at wake-up (false = timed out with the
  // predicate still unsatisfied).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) REQUIRES(mu) {
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      // Controlled runs have no real clock. A timed waiter parks until
      // either a signal arrives or the run quiesces — quiescence "fires
      // the timeout" (it is the only event left). Either way one wake
      // ends the wait, as if the timeout elapsed.
      if (pred()) return true;
      mu.Unlock();
      const bool controlled = s->BlockOnCv(this, /*timed=*/true);
      mu.Lock();
      if (controlled) return pred();
      // Released mid-wait: fall through to the real timed wait.
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

  void Signal() {
    cv_.notify_one();
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      s->OnCvNotify(this);
    }
#endif
  }

  void SignalAll() {
    cv_.notify_all();
#ifdef DIFFINDEX_CHECK
    if (check::Scheduler* s = check::Scheduler::CurrentIfControlled()) {
      s->OnCvNotify(this);
    }
#endif
  }

 private:
  std::condition_variable cv_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_MUTEX_H_
