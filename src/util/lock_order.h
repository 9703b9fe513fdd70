// Runtime lock-order validator: the dynamic mirror of the textual
// ACQUIRED_BEFORE annotations (util/thread_annotations.h) and the static
// `lock-order` / `lock-order-global` rules of tools/analyzer.
//
// Every Mutex/SharedMutex can be constructed with a LockRank. Ranked
// locks participate in the global acquisition order; unranked locks
// (kUnranked, the default) are invisible to the checker. On each
// acquisition of a ranked lock the validator asserts that every ranked
// lock already held by the thread has a strictly smaller rank, with one
// explicitly waived exception (see below). Violations abort with a
// report of the held-lock stack — or call a test-installed handler.
//
// The validator is active in debug builds (!NDEBUG), under
// DIFFINDEX_CHECK, and under ThreadSanitizer; in release builds every
// call compiles to nothing.
//
// The declared global order (see cluster/region_server.h and the
// ACQUIRED_BEFORE annotations at each lock's declaration):
//
//   flush_gate (Region)            rank 10
//   write_mu   (Region)            rank 20
//   wal_sync_mu_ (RegionServer)    rank 30
//   wal_mu_      (RegionServer)    rank 40
//   regions_mu_  (RegionServer)    rank 50
//   auq mu_      (AsyncUpdateQueue) rank 60
//   catalog_mu_ / cache mutexes    rank 90 (leaves)
//
// Waived edge: two flush gates (rank kFlushGate) may be held together in
// SHARED mode on different instances — the sync-full observer path reads
// a base row on region A while the triggering put still holds region B's
// gate shared. Shared acquisitions of a shared-only capability cannot
// deadlock against each other, so the validator permits same-rank
// shared+shared on distinct instances, and the analyzer's lock-order and
// lock-order-global rules make the same shared+shared exception.

#ifndef DIFFINDEX_UTIL_LOCK_ORDER_H_
#define DIFFINDEX_UTIL_LOCK_ORDER_H_

#include <cstdint>

namespace diffindex {

#if !defined(NDEBUG) || defined(DIFFINDEX_CHECK) || \
    defined(__SANITIZE_THREAD__)
#define DIFFINDEX_LOCK_ORDER_CHECKS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DIFFINDEX_LOCK_ORDER_CHECKS 1
#endif
#endif

// Ranks are sparse so future locks can slot between existing ones.
// kUnranked locks are ignored entirely by the validator.
enum class LockRank : int {
  kUnranked = 0,
  kFlushGate = 10,   // Region::flush_gate_
  kWriteMu = 20,     // Region::write_mu_
  kWalSyncMu = 30,   // RegionServer::wal_sync_mu_
  kWalMu = 40,       // RegionServer::wal_mu_
  kRegionsMu = 50,   // RegionServer::regions_mu_
  kAuqMu = 60,       // AsyncUpdateQueue::mu_
  kLeaf = 90,        // catalog_mu_, cache internals: never nest further
};

namespace lock_order {

// Handler invoked on an ordering violation. The default prints the held
// stack to stderr and aborts; lock_order_test installs a recorder so the
// violation can be asserted on instead of killing the process. Returns
// the previous handler.
using ViolationHandler = void (*)(const char* report);
ViolationHandler SetViolationHandler(ViolationHandler handler);

#ifdef DIFFINDEX_LOCK_ORDER_CHECKS

// Called by Mutex/SharedMutex (util/mutex.h) around each ranked
// acquisition/release. `addr` identifies the instance (same-rank
// distinct-instance shared acquisitions are the waived case), `shared`
// is true for reader-side acquisitions of a SharedMutex.
void OnAcquire(LockRank rank, const void* addr, bool shared,
               const char* name);
void OnRelease(LockRank rank, const void* addr);

#else

inline void OnAcquire(LockRank, const void*, bool, const char*) {}
inline void OnRelease(LockRank, const void*) {}

#endif  // DIFFINDEX_LOCK_ORDER_CHECKS

}  // namespace lock_order
}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_LOCK_ORDER_H_
