// Region: a contiguous row-key range of one table, hosted by one region
// server and stored as one LSM tree (Section 2.2). Region data lives
// under <root>/tables/<table>/r<id>/, a shared directory standing in for
// HDFS: after a server failure the new owner opens the same directory.
//
// Concurrency (see also lsm/lsm_tree.h):
//   * `flush_gate`: puts hold it shared for their whole pipeline
//     (timestamp, WAL, memtable, AUQ enqueue); a flush holds it exclusive
//     while the AUQ drains and the memtable swaps. This is what makes the
//     paper's "pause & drain" (Figure 5) airtight: while the gate is held
//     exclusively no put can be between its memtable insert and its AUQ
//     enqueue, so PR(Flushed) = ∅.
//   * `write_mu`: serializes WAL append + memtable apply so the region's
//     edit order matches the log order (HBase sequences writes per region).

#ifndef DIFFINDEX_CLUSTER_REGION_H_
#define DIFFINDEX_CLUSTER_REGION_H_

#include <atomic>
#include <memory>
#include <string>

#include "lsm/lsm_tree.h"
#include "net/message.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffindex {

struct RegionId {
  std::string table;
  uint64_t id = 0;

  bool operator==(const RegionId& other) const {
    return id == other.id && table == other.table;
  }
};

class Region {
 public:
  static Status Open(const LsmOptions& options, const std::string& data_root,
                     const RegionInfoWire& info,
                     std::unique_ptr<Region>* region);

  const RegionInfoWire& info() const { return info_; }

  bool ContainsRow(const Slice& row) const {
    if (Slice(info_.start_row).compare(row) > 0) return false;
    return info_.end_row.empty() || row.compare(Slice(info_.end_row)) < 0;
  }

  LsmTree* tree() { return tree_.get(); }
  // Region-co-located local index store (Section 3.1), lazily created.
  // It carries no WAL entries: it is wiped and rebuilt from the base tree
  // whenever the region is (re)opened, so crash recovery never needs a
  // separate index log. Readers see the tree only after it is fully
  // constructed (release/acquire on the published pointer).
  LsmTree* local_index_tree() const {
    return local_index_view_.load(std::memory_order_acquire);
  }
  // REQUIRES: holding write_mu (serialized with other local-index writes).
  Status EnsureLocalIndexTree(const LsmOptions& options);

  // RETURN_CAPABILITY lets clang track locks acquired through these
  // accessors as `region->flush_gate_` / `region->write_mu_`.
  SharedMutex& flush_gate() RETURN_CAPABILITY(flush_gate_) {
    return flush_gate_;
  }
  Mutex& write_mu() RETURN_CAPABILITY(write_mu_) { return write_mu_; }

  // Fencing for region moves: set (under the exclusive gate) before the
  // final flush; writers re-check after acquiring the shared gate and
  // bounce with WrongRegion so no edit lands after the moving flush.
  void set_closed() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // Admission signal: wall-clock micros at which the currently running
  // flush started waiting for (then holding) the exclusive gate; 0 when
  // no flush is active. Written by the flusher, read lock-free by the
  // put path's admission check.
  void set_flush_started_micros(uint64_t micros) {
    flush_started_micros_.store(micros, std::memory_order_release);
  }
  uint64_t flush_started_micros() const {
    return flush_started_micros_.load(std::memory_order_acquire);
  }

  static std::string DataDir(const std::string& data_root,
                             const std::string& table, uint64_t region_id);
  static std::string LocalIndexDir(const std::string& data_root,
                                   const std::string& table,
                                   uint64_t region_id);

 private:
  Region(const RegionInfoWire& info, std::unique_ptr<LsmTree> tree,
         std::string local_index_dir)
      : info_(info),
        tree_(std::move(tree)),
        local_index_dir_(std::move(local_index_dir)) {}

  RegionInfoWire info_;
  std::unique_ptr<LsmTree> tree_;
  std::string local_index_dir_;
  std::unique_ptr<LsmTree> local_index_tree_;
  std::atomic<LsmTree*> local_index_view_{nullptr};
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> flush_started_micros_{0};
  // The global acquisition order starts here: gate before write_mu,
  // write_mu before the server's WAL locks (region_server.h has the full
  // chain). The annotations feed the analyzer's lock-order rule; the
  // LockRank args arm the runtime validator. A sync-full observer may
  // hold two regions' gates SHARED at once (base put on one region, index
  // base read routed to another) — same-rank shared acquisitions of
  // distinct instances are the one waived edge (util/lock_order.h).
  SharedMutex flush_gate_ ACQUIRED_BEFORE(write_mu_){LockRank::kFlushGate,
                                                     "flush_gate_"};
  Mutex write_mu_ ACQUIRED_BEFORE(wal_sync_mu_){LockRank::kWriteMu,
                                                "write_mu_"};
};

}  // namespace diffindex

#endif  // DIFFINDEX_CLUSTER_REGION_H_
