// The read-only index audit (IndexBackfill::Verify) and its use as the
// oracle in a randomized crash-injection stress test: after arbitrary
// interleavings of writes, flushes, and server crashes, every scheme's
// index must converge to exact base/index agreement.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/cluster.h"
#include "core/backfill.h"
#include "core/dense_column.h"

namespace diffindex {
namespace {

// The index shapes the shared derivation (DeriveIndexValue) handles: one
// column, a composite over extra_columns, and a field inside a dense
// column. Backfill, Verify and Cleanse must treat all three alike.
enum class Shape { kSingle, kComposite, kDense };
constexpr Shape kShapes[] = {Shape::kSingle, Shape::kComposite,
                             Shape::kDense};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kSingle:
      return "single";
    case Shape::kComposite:
      return "composite";
    case Shape::kDense:
      return "dense";
  }
  return "?";
}

DenseColumnSchema DenseSchema() {
  return DenseColumnSchema(
      {{"k", DenseFieldType::kString}, {"n", DenseFieldType::kUint64}});
}

// The cells of a row whose index value is `value` under `shape`.
std::vector<Cell> ShapeCells(Shape shape, const std::string& value) {
  switch (shape) {
    case Shape::kSingle:
      return {Cell{"c", value, false}};
    case Shape::kComposite:
      return {Cell{"c", value, false}, Cell{"d", "x", false}};
    case Shape::kDense: {
      std::string cell;
      EXPECT_TRUE(
          DenseSchema()
              .Encode({DenseValue::String(value), DenseValue::Uint64(7)}, &cell)
              .ok());
      return {Cell{"c", cell, false}};
    }
  }
  return {};
}

// The cells of a row that lacks an index component under `shape` (for
// a composite, the extra column), so it has no index entry.
std::vector<Cell> PartialCells(Shape shape) {
  if (shape == Shape::kComposite) return {Cell{"c", "v", false}};
  return {Cell{"other", "z", false}};
}

IndexDescriptor ShapeIndex(Shape shape) {
  IndexDescriptor index;
  index.name = "by_c";
  index.column = "c";
  if (shape == Shape::kComposite) index.extra_columns = {"d"};
  if (shape == Shape::kDense) {
    index.dense_field = "k";
    index.dense_schema = DenseSchema();
  }
  return index;
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 3;
    options.regions_per_table = 6;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewDiffIndexClient();
  }

  void CreateIndexed(IndexScheme scheme) {
    ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
    IndexDescriptor index;
    index.name = "by_c";
    index.column = "c";
    index.scheme = scheme;
    ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());
  }

  void WaitDrained() {
    for (int i = 0; i < 5000; i++) {
      bool idle = true;
      for (NodeId id : cluster_->server_ids()) {
        if (cluster_->index_manager(id)->QueueDepth() > 0) idle = false;
      }
      if (idle) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "AUQ did not drain";
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
};

TEST_F(VerifyTest, CleanIndexVerifies) {
  CreateIndexed(IndexScheme::kSyncFull);
  for (int i = 0; i < 30; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 9) % 256, i);
    ASSERT_TRUE(client_->PutColumn("t", row, "c", "v" + std::to_string(i % 4))
                    .ok());
  }
  IndexBackfill tool(cluster_->NewClient());
  VerifyReport report;
  ASSERT_TRUE(tool.Verify("t", "by_c", &report).ok());
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.entries_scanned, 30u);
  EXPECT_EQ(report.rows_scanned, 30u);
}

TEST_F(VerifyTest, DetectsStaleEntries) {
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(ShapeName(shape));
    const std::string table = std::string("t_") + ShapeName(shape);
    ASSERT_TRUE(cluster_->master()->CreateTable(table).ok());
    IndexDescriptor index = ShapeIndex(shape);
    index.scheme = IndexScheme::kSyncInsert;
    ASSERT_TRUE(cluster_->master()->CreateIndex(table, index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());

    ASSERT_TRUE(client_->Put(table, "aa-1", ShapeCells(shape, "old")).ok());
    ASSERT_TRUE(client_->Put(table, "aa-1", ShapeCells(shape, "new")).ok());
    ASSERT_TRUE(client_->Put(table, "bb-2", PartialCells(shape)).ok());
    // A live entry that sorts after the stale one, so a page checks hits
    // on either side of it.
    ASSERT_TRUE(client_->Put(table, "cc-3", ShapeCells(shape, "zz")).ok());
    IndexBackfill tool(cluster_->NewClient());
    VerifyReport report;
    ASSERT_TRUE(tool.Verify(table, "by_c", &report).ok());
    EXPECT_FALSE(report.consistent());
    EXPECT_EQ(report.entries_scanned, 3u);
    EXPECT_EQ(report.stale_entries, 1u);   // the lingering "old" entry
    EXPECT_EQ(report.rows_scanned, 3u);
    EXPECT_EQ(report.missing_entries, 0u);
    // Cleanse fixes it; verify then passes.
    CleanseReport cleansed;
    ASSERT_TRUE(tool.Cleanse(table, "by_c", &cleansed).ok());
    EXPECT_EQ(cleansed.entries_scanned, 3u);
    EXPECT_EQ(cleansed.stale_removed, 1u);
    ASSERT_TRUE(tool.Verify(table, "by_c", &report).ok());
    EXPECT_TRUE(report.consistent());
    EXPECT_EQ(report.entries_scanned, 2u);
  }
}

TEST_F(VerifyTest, DetectsMissingEntries) {
  auto raw = cluster_->NewClient();
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(ShapeName(shape));
    const std::string table = std::string("t_") + ShapeName(shape);
    // Data loaded BEFORE the index exists and never backfilled.
    ASSERT_TRUE(cluster_->master()->CreateTable(table).ok());
    ASSERT_TRUE(raw->RefreshLayout().ok());
    ASSERT_TRUE(raw->Put(table, "aa-1", ShapeCells(shape, "unindexed")).ok());
    ASSERT_TRUE(raw->Put(table, "bb-2", PartialCells(shape)).ok());
    ASSERT_TRUE(cluster_->master()->CreateIndex(table, ShapeIndex(shape)).ok());
    ASSERT_TRUE(raw->RefreshLayout().ok());

    IndexBackfill tool(cluster_->NewClient());
    VerifyReport report;
    ASSERT_TRUE(tool.Verify(table, "by_c", &report).ok());
    EXPECT_EQ(report.rows_scanned, 2u);
    EXPECT_EQ(report.missing_entries, 1u);
    // Backfill repairs; verify passes.
    BackfillReport backfilled;
    ASSERT_TRUE(tool.Run(table, "by_c", &backfilled).ok());
    EXPECT_EQ(backfilled.entries_written, 1u);
    EXPECT_EQ(backfilled.rows_skipped, 1u);
    ASSERT_TRUE(tool.Verify(table, "by_c", &report).ok());
    EXPECT_TRUE(report.consistent());
    EXPECT_EQ(report.entries_scanned, 1u);
  }
}

TEST_F(VerifyTest, LocalIndexNotSupported) {
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  IndexDescriptor index;
  index.name = "by_c";
  index.column = "c";
  index.is_local = true;
  ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
  IndexBackfill tool(cluster_->NewClient());
  VerifyReport report;
  EXPECT_TRUE(tool.Verify("t", "by_c", &report).IsNotSupported());
}

// Randomized crash-injection stress: concurrent writers + a mid-stream
// server crash; after quiescence (plus a read-repair sweep for
// sync-insert) the audit must report exact agreement.
class CrashStressTest : public VerifyTest,
                        public ::testing::WithParamInterface<IndexScheme> {};

TEST_P(CrashStressTest, ConvergesToConsistencyAfterCrash) {
  const IndexScheme scheme = GetParam();
  CreateIndexed(scheme);

  constexpr int kWriters = 4, kOpsPerWriter = 120;
  std::vector<std::thread> writers;
  std::atomic<int> done{0};
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([this, w, &done] {
      auto client = cluster_->NewDiffIndexClient();
      Random rng(900 + w);
      for (int i = 0; i < kOpsPerWriter; i++) {
        char row[20];
        snprintf(row, sizeof(row), "%02x-w%d-%llu",
                 static_cast<unsigned>(rng.Uniform(256)), w,
                 static_cast<unsigned long long>(rng.Uniform(40)));
        // Crashes can interrupt a put mid-flight; errors are acceptable
        // for the interrupted operations, convergence is checked over
        // what was acknowledged.
        (void)client->PutColumn("t", row, "c",
                                "v" + std::to_string(rng.Uniform(6)));
      }
      done++;
    });
  }
  // Crash a server while the writers are mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cluster_->KillServer(2).ok());
  for (auto& t : writers) t.join();
  ASSERT_EQ(done.load(), kWriters);
  WaitDrained();

  IndexBackfill tool(cluster_->NewClient());
  if (scheme == IndexScheme::kSyncInsert) {
    // Deferred deletions are repaired lazily; sweep them first.
    CleanseReport cleansed;
    ASSERT_TRUE(tool.Cleanse("t", "by_c", &cleansed).ok());
  }
  VerifyReport report;
  ASSERT_TRUE(tool.Verify("t", "by_c", &report).ok());
  EXPECT_EQ(report.stale_entries, 0u);
  EXPECT_EQ(report.missing_entries, 0u);
  EXPECT_GT(report.rows_scanned, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CrashStressTest,
                         ::testing::Values(IndexScheme::kSyncFull,
                                           IndexScheme::kSyncInsert,
                                           IndexScheme::kAsyncSimple),
                         [](const auto& info) {
                           switch (info.param) {
                             case IndexScheme::kSyncFull:
                               return "sync_full";
                             case IndexScheme::kSyncInsert:
                               return "sync_insert";
                             default:
                               return "async_simple";
                           }
                         });

}  // namespace
}  // namespace diffindex
