// Runtime lock-order validator tests (util/lock_order.h): the dynamic
// mirror of the ACQUIRED_BEFORE annotations and the analyzer's static
// `lock-order` rules. Installs a recording violation handler so ordering
// bugs can be asserted on instead of aborting the process.

#include "util/lock_order.h"

#include <gtest/gtest.h>

#include <string>

#include "util/mutex.h"

namespace diffindex {
namespace {

#ifdef DIFFINDEX_LOCK_ORDER_CHECKS

std::string* g_last_report = nullptr;

void RecordViolation(const char* report) { *g_last_report = report; }

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_last_report = &report_;
    previous_ = lock_order::SetViolationHandler(&RecordViolation);
  }
  void TearDown() override {
    lock_order::SetViolationHandler(previous_);
    g_last_report = nullptr;
  }

  std::string report_;
  lock_order::ViolationHandler previous_ = nullptr;
};

TEST_F(LockOrderTest, IncreasingRanksAreClean) {
  Mutex low(LockRank::kWalSyncMu, "lo_low");
  Mutex high(LockRank::kAuqMu, "lo_high");
  {
    MutexLock outer(low);
    MutexLock inner(high);
    EXPECT_TRUE(report_.empty()) << report_;
  }
  EXPECT_TRUE(report_.empty()) << report_;
}

TEST_F(LockOrderTest, DecreasingRanksViolate) {
  Mutex low(LockRank::kWalSyncMu, "lo_low");
  Mutex high(LockRank::kAuqMu, "lo_high");
  {
    MutexLock outer(high);
    MutexLock inner(low);
    EXPECT_NE(report_.find("lock-order violation"), std::string::npos)
        << report_;
    EXPECT_NE(report_.find("lo_low"), std::string::npos) << report_;
    EXPECT_NE(report_.find("lo_high"), std::string::npos) << report_;
  }
}

TEST_F(LockOrderTest, SameRankExclusiveViolates) {
  Mutex a(LockRank::kLeaf, "lo_a");
  Mutex b(LockRank::kLeaf, "lo_b");
  {
    MutexLock outer(a);
    MutexLock inner(b);
    EXPECT_NE(report_.find("lock-order violation"), std::string::npos)
        << report_;
  }
}

TEST_F(LockOrderTest, FlushGateSharedSharedIsWaived) {
  // The one waived edge: shared+shared acquisitions of two *different*
  // flush-gate instances (the cross-region sync-full observer read).
  SharedMutex gate_a(LockRank::kFlushGate, "lo_gate_a");
  SharedMutex gate_b(LockRank::kFlushGate, "lo_gate_b");
  {
    ReaderMutexLock outer(gate_a);
    ReaderMutexLock inner(gate_b);
    EXPECT_TRUE(report_.empty()) << report_;
  }
  EXPECT_TRUE(report_.empty()) << report_;
}

TEST_F(LockOrderTest, FlushGateWriterPairStillViolates) {
  // The waiver is shared-mode only: an exclusive flush-gate acquisition
  // while holding another gate is a real deadlock risk.
  SharedMutex gate_a(LockRank::kFlushGate, "lo_gate_a");
  SharedMutex gate_b(LockRank::kFlushGate, "lo_gate_b");
  {
    ReaderMutexLock outer(gate_a);
    WriterMutexLock inner(gate_b);
    EXPECT_NE(report_.find("lock-order violation"), std::string::npos)
        << report_;
  }
}

TEST_F(LockOrderTest, UnrankedLocksAreInvisible) {
  Mutex ranked(LockRank::kAuqMu, "lo_ranked");
  Mutex unranked;
  {
    // unranked -> ranked -> unranked: no report, unranked never recorded.
    MutexLock a(unranked);
    MutexLock b(ranked);
    Mutex another_unranked;
    MutexLock c(another_unranked);
    EXPECT_TRUE(report_.empty()) << report_;
  }
}

TEST_F(LockOrderTest, NonLifoReleaseKeepsStackConsistent) {
  // ReaderMutexLock::Release drops the gate before inner locks unwind;
  // the validator's held stack must compact, not truncate.
  SharedMutex gate(LockRank::kFlushGate, "lo_gate");
  Mutex leaf(LockRank::kLeaf, "lo_leaf");
  {
    ReaderMutexLock outer(gate);
    MutexLock inner(leaf);
    outer.Release();
    // gate is gone from the held stack; acquiring a mid-rank lock is now
    // judged only against leaf (held, rank 90) -> violation expected.
    Mutex mid(LockRank::kWalMu, "lo_mid");
    MutexLock third(mid);
    EXPECT_NE(report_.find("lo_leaf"), std::string::npos) << report_;
  }
}

#else  // !DIFFINDEX_LOCK_ORDER_CHECKS

TEST(LockOrderTest, DisabledInThisBuild) {
  GTEST_SKIP() << "lock-order validation compiled out (release build "
                  "without DIFFINDEX_CHECK or TSan)";
}

#endif  // DIFFINDEX_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace diffindex
