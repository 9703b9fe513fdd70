// Closed-loop workload driver (the YCSB stand-in of Section 8.1): N
// client threads each continuously submit requests — "a completed request
// will be followed up by another one immediately" — optionally paced to a
// target transaction rate (Figure 11 sweeps TPS directly). Every run issues
// one operation type; latencies are recorded per operation into the run's
// histogram and into the cluster registry as `workload.<op>_micros`.
// Open-loop sustained load at a fixed offered rate is perfbench's job.

#ifndef DIFFINDEX_WORKLOAD_RUNNER_H_
#define DIFFINDEX_WORKLOAD_RUNNER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "util/histogram.h"
#include "workload/generators.h"
#include "workload/item_table.h"

namespace diffindex {

class DiffIndexClient;

enum class WorkloadOp {
  kUpdateTitle,     // write a new item_title version (1 indexed column)
  kUpdateFullRow,   // rewrite the whole ~1 KB row (flush-pressure load)
  kReadIndexExact,  // getByIndex(item_title == current title): 1 row
  kRangeIndexPrice, // range query over the item_price index
};

struct RunnerOptions {
  WorkloadOp op = WorkloadOp::kUpdateTitle;
  int threads = 4;
  // Stop after this many total operations (whichever of ops/duration is
  // hit first; 0 disables that bound).
  uint64_t total_operations = 10000;
  uint64_t max_duration_ms = 0;
  KeyDistribution distribution = KeyDistribution::kUniform;
  // 0 = closed loop at full speed; otherwise pace to ~this many
  // transactions per second across all threads.
  double target_tps = 0;
  // Price-range width for kRangeIndexPrice
  // (selectivity = width / price_domain).
  uint64_t price_range_width = 1000;
  uint64_t seed = 1;
};

struct RunnerResult {
  uint64_t operations = 0;
  uint64_t errors = 0;
  double elapsed_seconds = 0;
  double tps = 0;
  std::unique_ptr<Histogram> latency = std::make_unique<Histogram>();
};

class WorkloadRunner {
 public:
  WorkloadRunner(Cluster* cluster, const ItemTable* items,
                 const RunnerOptions& options)
      : cluster_(cluster), items_(items), options_(options) {}

  // Multi-threaded load of the item table (version 0 rows).
  Status LoadItems(int load_threads = 8);

  // Runs the configured operation; fills *result.
  Status Run(RunnerResult* result) { return RunWith(options_, result); }

  // Runs with override options but the same item-version state (e.g. an
  // update pass followed by a read pass against the updated titles).
  Status RunWith(const RunnerOptions& options, RunnerResult* result);

  // Current title version of an item (used by readers to form exact-match
  // predicates that actually hit).
  uint64_t ItemVersion(uint64_t id) const {
    return versions_[id].load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop(const RunnerOptions& options, int worker_id,
                  RunnerResult* result);
  // Executes one operation against the cluster; advances the item-version
  // and recency state for write ops.
  Status ExecuteOneOp(uint64_t id, const RunnerOptions& options,
                      DiffIndexClient* client, Random* rng);

  Cluster* const cluster_;
  const ItemTable* const items_;
  const RunnerOptions options_;

  std::vector<std::atomic<uint64_t>> versions_;
  // Write cursor for the kLatest chooser: advanced once per completed
  // write op; the chooser skews draws toward keys just "behind" it.
  std::atomic<uint64_t> recency_{0};
  std::atomic<uint64_t> issued_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace diffindex

#endif  // DIFFINDEX_WORKLOAD_RUNNER_H_
