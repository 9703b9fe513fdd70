// AUQ overflow-policy suite (AuqOptions::overflow_policy): kBlock blocks
// then drains without changing final index state, kShedToDeadLetter
// records every dropped task without losing acked base writes, and
// kDegradeToAsync accepts past the bound but still converges. The
// cluster-level checks reuse the scheme-equivalence differential pattern
// (same seeded trace, compare raw index-table state against a model). A
// crash-mid-shed chaos scenario (ChaosTest suite, `chaos` label) arms the
// "auq.shed" failpoint — task dropped between base-put ack and the
// dead-letter record — and proves WAL-replay recovery re-creates it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/auq.h"
#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace diffindex {
namespace {

IndexTask MakeTask(int i) {
  IndexTask task;
  task.base_table = "t";
  task.row = "row" + std::to_string(i);
  task.cells = {Cell{"c", "v" + std::to_string(i), false}};
  task.ts = TimestampOracle::NowMicros();
  task.index.name = "by_c";
  task.index.column = "c";
  return task;
}

template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; i++) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// A processor that parks every delivery until released, so the queue can
// be filled to max_depth deterministically.
struct GatedProcessor {
  std::atomic<bool> release{false};
  std::atomic<int> processed{0};
  std::atomic<int> started{0};
  AsyncUpdateQueue::Processor fn() {
    return [this](const IndexTask&) {
      started.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      processed.fetch_add(1);
      return Status::OK();
    };
  }
  // The same gate for a drain_batch_size > 1 queue: one parked call per
  // popped batch.
  AsyncUpdateQueue::BatchProcessor batch_fn() {
    return [this](const std::vector<IndexTask>& tasks,
                  std::vector<Status>* statuses) {
      started.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      processed.fetch_add(static_cast<int>(tasks.size()));
      statuses->assign(tasks.size(), Status::OK());
    };
  }
};

constexpr int kDrainBatchSizes[] = {1, 4};

TEST(AuqPolicyTest, KBlockBlocksAtDepthThenDrainsEverything) {
  for (const int drain : kDrainBatchSizes) {
    SCOPED_TRACE("drain_batch_size=" + std::to_string(drain));
    GatedProcessor gate;
    AuqOptions options;
    options.worker_threads = 1;
    options.drain_batch_size = drain;
    options.max_depth = 2;
    options.overflow_policy = AuqOverflowPolicy::kBlock;
    AsyncUpdateQueue auq(options, gate.fn(),
                         drain > 1 ? gate.batch_fn() : nullptr);

    // Task 0 goes in-flight; 1 and 2 fill the bounded queue.
    ASSERT_TRUE(auq.Enqueue(MakeTask(0)));
    ASSERT_TRUE(WaitFor([&] { return gate.started.load() == 1; }));
    ASSERT_TRUE(auq.Enqueue(MakeTask(1)));
    ASSERT_TRUE(auq.Enqueue(MakeTask(2)));
    EXPECT_EQ(auq.queued_depth(), 2u);

    std::atomic<bool> enqueued{false};
    std::thread producer([&] {
      ASSERT_TRUE(auq.Enqueue(MakeTask(3)));
      enqueued = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // Still blocked: the queue never exceeds max_depth under kBlock, and
    // the workers hold at most one popped batch each on top of it.
    EXPECT_FALSE(enqueued.load());
    EXPECT_LE(auq.queued_depth(), options.max_depth);
    EXPECT_LE(auq.depth(),
              options.max_depth + static_cast<size_t>(options.worker_threads) *
                                      static_cast<size_t>(drain));

    gate.release = true;
    producer.join();
    EXPECT_TRUE(enqueued.load());
    auq.WaitDrained();
    // Nothing was dropped: backpressure, not loss.
    EXPECT_EQ(gate.processed.load(), 4);
    EXPECT_EQ(auq.dead_letters(), 0u);
    auq.Shutdown();
  }
}

TEST(AuqPolicyTest, ShedToDeadLetterRecordsOverflowWithoutBlocking) {
  obs::MetricsRegistry metrics;
  GatedProcessor gate;
  AuqOptions options;
  options.worker_threads = 1;
  options.max_depth = 1;
  options.overflow_policy = AuqOverflowPolicy::kShedToDeadLetter;
  options.metrics = &metrics;
  AsyncUpdateQueue auq(options, gate.fn());

  ASSERT_TRUE(auq.Enqueue(MakeTask(0)));  // in-flight
  ASSERT_TRUE(WaitFor([&] { return gate.started.load() == 1; }));
  ASSERT_TRUE(auq.Enqueue(MakeTask(1)));  // fills the queue
  // Overflow: acked immediately (no blocking), moved to the dead-letter
  // list with full accounting.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(auq.Enqueue(MakeTask(2)));
  ASSERT_TRUE(auq.Enqueue(MakeTask(3)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_EQ(auq.dead_letters(), 2u);
  EXPECT_EQ(metrics.GetCounter("auq.shed")->value(), 2u);
  EXPECT_EQ(metrics.GetGauge("auq.dead_letters")->value(), 2);

  gate.release = true;
  auq.WaitDrained();
  EXPECT_EQ(gate.processed.load(), 2);  // shed tasks were NOT delivered

  // The shed tasks are recoverable by an operator sweep.
  std::vector<IndexTask> dead = auq.DrainDeadLetters();
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(dead[0].row, "row2");
  EXPECT_EQ(dead[1].row, "row3");
  auq.Shutdown();
}

TEST(AuqPolicyTest, DegradeToAsyncAcceptsPastDepthAndConverges) {
  obs::MetricsRegistry metrics;
  GatedProcessor gate;
  AuqOptions options;
  options.worker_threads = 1;
  options.max_depth = 1;
  options.overflow_policy = AuqOverflowPolicy::kDegradeToAsync;
  options.metrics = &metrics;
  AsyncUpdateQueue auq(options, gate.fn());

  ASSERT_TRUE(auq.Enqueue(MakeTask(0)));
  ASSERT_TRUE(WaitFor([&] { return gate.started.load() == 1; }));
  // Five more: all accepted without blocking, four beyond the bound.
  for (int i = 1; i <= 5; i++) {
    ASSERT_TRUE(auq.Enqueue(MakeTask(i)));
  }
  EXPECT_GE(auq.queued_depth(), 5u);  // the bound degraded
  EXPECT_EQ(metrics.GetCounter("auq.degraded")->value(), 4u);

  gate.release = true;
  auq.WaitDrained();
  // Eventual delivery is intact: every task (bounded or not) delivered.
  EXPECT_EQ(gate.processed.load(), 6);
  EXPECT_EQ(auq.dead_letters(), 0u);
  auq.Shutdown();
}

// ---- Cluster-level differential: same seeded trace, compare the raw
// index table. Mirrors scheme_equivalence_test.cc.

using IndexState = std::map<std::string, std::set<std::string>>;

constexpr int kNumValues = 6;
constexpr int kKeySpace = 20;

std::string ValueName(int v) { return "v" + std::to_string(v); }

void WaitAuqQuiescent(Cluster* cluster) {
  for (int i = 0; i < 5000; i++) {
    bool all_empty = true;
    for (NodeId id : cluster->server_ids()) {
      IndexManager* manager = cluster->index_manager(id);
      if (manager != nullptr && manager->QueueDepth() > 0) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Runs a seeded put/delete trace against an async-simple index under the
// given AUQ bound/policy and returns (final index state, model truth).
void RunPolicyWorkload(AuqOverflowPolicy policy, size_t max_depth,
                       uint64_t seed, int ops, IndexState* state,
                       IndexState* truth) {
  ClusterOptions options;
  options.num_servers = 3;
  options.regions_per_table = 4;
  options.auq.max_depth = max_depth;
  options.auq.overflow_policy = policy;
  // Slow the APS so a bounded queue actually overflows under load.
  options.auq.process_delay_ms = 1;
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(options, &cluster).ok());
  auto client = cluster->NewDiffIndexClient();

  ASSERT_TRUE(cluster->master()->CreateTable("items").ok());
  IndexDescriptor index;
  index.name = "by_title";
  index.column = "title";
  index.scheme = IndexScheme::kAsyncSimple;
  ASSERT_TRUE(cluster->master()->CreateIndex("items", index).ok());
  ASSERT_TRUE(client->raw_client()->RefreshLayout().ok());

  Random rng(static_cast<uint32_t>(seed));
  std::map<std::string, std::string> model;
  for (int i = 0; i < ops; i++) {
    const std::string row = "r" + std::to_string(rng.Uniform(kKeySpace));
    if (model.count(row) && rng.Uniform(10) < 2) {
      ASSERT_TRUE(client->DeleteColumns("items", row, {"title"}).ok());
      model.erase(row);
    } else {
      const std::string value = ValueName(rng.Uniform(kNumValues));
      ASSERT_TRUE(client->PutColumn("items", row, "title", value).ok());
      model[row] = value;
    }
  }
  WaitAuqQuiescent(cluster.get());

  state->clear();
  for (int v = 0; v < kNumValues; v++) {
    const std::string value = ValueName(v);
    IndexDescriptor found;
    ASSERT_TRUE(client->raw_client()
                    ->catalog()
                    .FindIndex("items", "by_title", &found)
                    .ok());
    std::vector<ScannedRow> rows;
    ASSERT_TRUE(client->raw_client()
                    ->ScanRows(found.index_table,
                               IndexScanStartForValue(value),
                               IndexScanEndForValue(value), kMaxTimestamp,
                               0, &rows)
                    .ok());
    for (const auto& row : rows) {
      std::string value_encoded, base_row;
      if (DecodeIndexRow(row.row, &value_encoded, &base_row)) {
        (*state)[value].insert(base_row);
      }
    }
  }
  truth->clear();
  for (const auto& [row, value] : model) (*truth)[value].insert(row);
}

TEST(AuqPolicyTest, KBlockFinalIndexStateIsByteIdenticalToUnbounded) {
  const uint64_t seed = 0xB10C4ULL;
  IndexState unbounded_state, unbounded_truth;
  RunPolicyWorkload(AuqOverflowPolicy::kBlock, /*max_depth=*/0, seed, 100,
                    &unbounded_state, &unbounded_truth);
  IndexState bounded_state, bounded_truth;
  RunPolicyWorkload(AuqOverflowPolicy::kBlock, /*max_depth=*/2, seed, 100,
                    &bounded_state, &bounded_truth);
  // kBlock changes latency, never state: raw index rows are identical to
  // the unbounded run — and both match the model.
  EXPECT_EQ(bounded_state, unbounded_state);
  EXPECT_EQ(bounded_state, bounded_truth);
  EXPECT_EQ(unbounded_state, unbounded_truth);
}

TEST(AuqPolicyTest, DegradeToAsyncConvergesToModelState) {
  IndexState state, truth;
  RunPolicyWorkload(AuqOverflowPolicy::kDegradeToAsync, /*max_depth=*/1,
                    0xDE64ADEULL, 100, &state, &truth);
  EXPECT_EQ(state, truth);
}

TEST(AuqPolicyTest, ShedKeepsAckedBaseWritesReadable) {
  ClusterOptions options;
  options.num_servers = 2;
  options.regions_per_table = 4;
  options.auq.max_depth = 1;
  options.auq.overflow_policy = AuqOverflowPolicy::kShedToDeadLetter;
  options.auq.process_delay_ms = 5;  // back the queue up immediately
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(options, &cluster).ok());
  auto client = cluster->NewDiffIndexClient();
  ASSERT_TRUE(cluster->master()->CreateTable("items").ok());
  IndexDescriptor index;
  index.name = "by_title";
  index.column = "title";
  index.scheme = IndexScheme::kAsyncSimple;
  ASSERT_TRUE(cluster->master()->CreateIndex("items", index).ok());
  ASSERT_TRUE(client->raw_client()->RefreshLayout().ok());

  // Every put is acked even while the 1-deep queue sheds index tasks.
  for (int i = 0; i < 40; i++) {
    const std::string row = "r" + std::to_string(i);
    ASSERT_TRUE(client->PutColumn("items", row, "title", "t").ok());
  }
  EXPECT_GT(cluster->metrics()->GetCounter("auq.shed")->value(), 0u);

  // The acked base writes are all there; only index maintenance was shed,
  // and each shed task has a dead-letter record for repair.
  for (int i = 0; i < 40; i++) {
    GetRowResponse row;
    ASSERT_TRUE(client->raw_client()
                    ->GetRow("items", "r" + std::to_string(i),
                             kMaxTimestamp, &row)
                    .ok());
    EXPECT_TRUE(row.found) << "r" << i;
  }
  size_t recorded = 0;
  for (NodeId id : cluster->server_ids()) {
    recorded += cluster->index_manager(id)->auq()->dead_letters();
  }
  EXPECT_EQ(recorded, cluster->metrics()->GetCounter("auq.shed")->value());
}

// ---- Crash mid-shed (chaos label): the "auq.shed" failpoint models a
// crash between the base put's ack and the dead-letter record — the task
// is simply gone, with no trace for an operator to repair from. The only
// safety net is the WAL: killing the servers afterwards forces failover
// replay, which re-derives every index task from the surviving log and
// must converge to the model state.

TEST(ChaosTest, CrashMidShedConvergesAfterRecovery) {
  fault::FailpointRegistry::Global()->DisarmAll();
  ClusterOptions options;
  // A single server takes the whole workload, so every shed (recorded or
  // crash-lost) happens on the node we then kill.
  options.num_servers = 1;
  options.regions_per_table = 4;
  options.auq.max_depth = 1;
  options.auq.overflow_policy = AuqOverflowPolicy::kShedToDeadLetter;
  options.auq.process_delay_ms = 2;
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(options, &cluster).ok());
  auto client = cluster->NewDiffIndexClient();
  ASSERT_TRUE(cluster->master()->CreateTable("items").ok());
  IndexDescriptor index;
  index.name = "by_title";
  index.column = "title";
  index.scheme = IndexScheme::kAsyncSimple;
  ASSERT_TRUE(cluster->master()->CreateIndex("items", index).ok());
  ASSERT_TRUE(client->raw_client()->RefreshLayout().ok());

  // Half of all sheds "crash" before the dead-letter record lands.
  fault::FailpointRegistry::Global()->Arm(
      "auq.shed", fault::FailpointPolicy::WithProbability(0.5, 0xC7A5));

  Random rng(0x5EDC0DE);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 80; i++) {
    const std::string row = "r" + std::to_string(rng.Uniform(kKeySpace));
    const std::string value = ValueName(rng.Uniform(kNumValues));
    ASSERT_TRUE(client->PutColumn("items", row, "title", value).ok());
    model[row] = value;
  }
  const uint64_t shed = cluster->metrics()->GetCounter("auq.shed")->value();
  EXPECT_GT(shed, 0u) << "scenario never overflowed; tighten the knobs";

  // Faults over. Fail the victim over to a fresh server: recovery splits
  // and replays the WAL, re-deriving an index task for every logged put —
  // including the ones the crash-mid-shed dropped without a record (sheds
  // bypassed the drain barrier, so no flush checkpoint can have advanced
  // past their edits).
  fault::FailpointRegistry::Global()->DisarmAll();
  ASSERT_TRUE(cluster->AddServer(2).ok());
  ASSERT_TRUE(cluster->KillServer(1).ok());
  ASSERT_TRUE(client->raw_client()->RefreshLayout().ok());
  WaitAuqQuiescent(cluster.get());

  // The recovered server still runs the shed policy, so the replay burst
  // itself may have shed again — with a record this time (the failpoint
  // is off). Run the operator repair sweep: drain the dead-letter lists
  // and re-enqueue until nothing is left. Re-sheds during the sweep just
  // come back around the loop.
  for (int round = 0; round < 100; round++) {
    std::vector<std::pair<NodeId, IndexTask>> dead;
    for (NodeId id : cluster->server_ids()) {
      IndexManager* manager = cluster->index_manager(id);
      if (manager == nullptr) continue;
      for (IndexTask& task : manager->auq()->DrainDeadLetters()) {
        dead.emplace_back(id, std::move(task));
      }
    }
    if (dead.empty()) break;
    for (auto& [id, task] : dead) {
      cluster->index_manager(id)->auq()->Enqueue(std::move(task));
    }
    WaitAuqQuiescent(cluster.get());
  }

  // Raw-scan the index table and compare against the model: every task
  // lost mid-shed was re-created by replay.
  IndexState state, truth;
  for (int v = 0; v < kNumValues; v++) {
    const std::string value = ValueName(v);
    IndexDescriptor found;
    ASSERT_TRUE(client->raw_client()
                    ->catalog()
                    .FindIndex("items", "by_title", &found)
                    .ok());
    std::vector<ScannedRow> rows;
    ASSERT_TRUE(client->raw_client()
                    ->ScanRows(found.index_table,
                               IndexScanStartForValue(value),
                               IndexScanEndForValue(value), kMaxTimestamp,
                               0, &rows)
                    .ok());
    for (const auto& row : rows) {
      std::string value_encoded, base_row;
      if (DecodeIndexRow(row.row, &value_encoded, &base_row)) {
        state[value].insert(base_row);
      }
    }
  }
  for (const auto& [row, value] : model) truth[value].insert(row);
  for (int v = 0; v < kNumValues; v++) {
    EXPECT_EQ(state[ValueName(v)], truth[ValueName(v)])
        << "value " << ValueName(v) << " diverged after crash-mid-shed";
  }
}

}  // namespace
}  // namespace diffindex
