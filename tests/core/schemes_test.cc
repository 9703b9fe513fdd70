// End-to-end tests of the four Diff-Index maintenance schemes against the
// simulated cluster: Algorithms 1-4, the δ edge cases, read-repair, the
// drain-before-flush invariant, AUQ failure recovery, and the session
// consistency matrix of Section 3.3.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "core/backfill.h"
#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "query/engine.h"
#include "util/random.h"

namespace diffindex {
namespace {

class SchemesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 3;
    options.regions_per_table = 6;
    options.auq.staleness_sample_every = 1;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewDiffIndexClient();
  }

  void CreateIndexedTable(const std::string& table, IndexScheme scheme,
                          const std::string& column = "title",
                          std::vector<std::string> extra = {}) {
    ASSERT_TRUE(cluster_->master()->CreateTable(table).ok());
    IndexDescriptor index;
    index.name = "by_" + column;
    index.column = column;
    index.scheme = scheme;
    index.extra_columns = std::move(extra);
    ASSERT_TRUE(cluster_->master()->CreateIndex(table, index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());
  }

  // Waits until every server's AUQ is empty (async schemes quiesce).
  void WaitForQuiescence() {
    for (int i = 0; i < 2000; i++) {
      bool all_empty = true;
      for (NodeId id : cluster_->server_ids()) {
        if (cluster_->index_manager(id)->QueueDepth() > 0) {
          all_empty = false;
          break;
        }
      }
      if (all_empty) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "AUQ did not drain";
  }

  std::set<std::string> HitRows(const std::vector<IndexHit>& hits) {
    std::set<std::string> rows;
    for (const auto& hit : hits) rows.insert(hit.base_row);
    return rows;
  }

  // Raw view of the index table (no repair): which base rows appear for
  // a value, stale entries included.
  std::set<std::string> RawIndexRows(const std::string& table,
                                     const std::string& index_name,
                                     const std::string& value) {
    IndexDescriptor index;
    EXPECT_TRUE(client_->raw_client()
                    ->catalog()
                    .FindIndex(table, index_name, &index)
                    .ok());
    std::vector<ScannedRow> rows;
    EXPECT_TRUE(client_->raw_client()
                    ->ScanRows(index.index_table,
                               IndexScanStartForValue(value),
                               IndexScanEndForValue(value), kMaxTimestamp, 0,
                               &rows)
                    .ok());
    std::set<std::string> result;
    for (const auto& row : rows) {
      std::string value_encoded, base_row;
      if (DecodeIndexRow(row.row, &value_encoded, &base_row)) {
        result.insert(base_row);
      }
    }
    return result;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
};

// ---- sync-full (Algorithm 1) ----

TEST_F(SchemesTest, SyncFullIndexVisibleImmediately) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "widget").ok());
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "widget", &hits).ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
}

TEST_F(SchemesTest, SyncFullUpdateRemovesOldEntrySynchronously) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "old").ok());
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "new").ok());

  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "new", &hits).ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
  // SU4 deleted the old entry inside the put path — no repair involved.
  EXPECT_TRUE(RawIndexRows("items", "by_title", "old").empty());
}

TEST_F(SchemesTest, SyncFullSameValueUpdateKeepsEntryDeltaCase) {
  // The δ edge case of Section 4.3: when v_new == v_old, SU4's delete at
  // t_new - δ must not wipe the entry just written at t_new.
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "same").ok());
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "same").ok());
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "same", &hits).ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
}

TEST_F(SchemesTest, SyncFullDeleteRemovesEntry) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "w").ok());
  ASSERT_TRUE(client_->DeleteColumns("items", "aa-1", {"title"}).ok());
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "w", &hits).ok());
  EXPECT_TRUE(hits.empty());
}

TEST_F(SchemesTest, SyncFullMultipleRowsSameValue) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  for (int i = 0; i < 20; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 12) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "popular").ok());
  }
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      client_->GetByIndex("items", "by_title", "popular", &hits).ok());
  EXPECT_EQ(hits.size(), 20u);
}

TEST_F(SchemesTest, QueryByIndexFetchesBaseRows) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  ASSERT_TRUE(client_->Put("items", "aa-1",
                           {Cell{"title", "widget", false},
                            Cell{"price", "99", false}})
                  .ok());
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(client_->QueryByIndex("items", "by_title", "widget", &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].row, "aa-1");
  EXPECT_EQ(rows[0].cells.size(), 2u);
}

// ---- sync-insert (Algorithm 2) ----

TEST_F(SchemesTest, SyncInsertLeavesStaleEntriesUntilRead) {
  CreateIndexedTable("items", IndexScheme::kSyncInsert);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "old").ok());
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "new").ok());

  // The stale entry is physically present (no SU3/SU4 ran).
  EXPECT_EQ(RawIndexRows("items", "by_title", "old"),
            std::set<std::string>{"aa-1"});

  // A read through GetByIndex double-checks and returns nothing...
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "old", &hits).ok());
  EXPECT_TRUE(hits.empty());
  // ...and lazily repaired the index.
  EXPECT_TRUE(RawIndexRows("items", "by_title", "old").empty());

  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "new", &hits).ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
}

TEST_F(SchemesTest, SyncInsertRepairsDeletedRow) {
  CreateIndexedTable("items", IndexScheme::kSyncInsert);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "w").ok());
  ASSERT_TRUE(client_->DeleteColumns("items", "aa-1", {"title"}).ok());
  // Entry still physically there (insert-only scheme)...
  EXPECT_EQ(RawIndexRows("items", "by_title", "w"),
            std::set<std::string>{"aa-1"});
  // ...but filtered and repaired on read.
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "w", &hits).ok());
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(RawIndexRows("items", "by_title", "w").empty());
}

TEST_F(SchemesTest, SyncInsertFreshEntryIsNotRepairedAway) {
  CreateIndexedTable("items", IndexScheme::kSyncInsert);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "keep").ok());
  for (int i = 0; i < 3; i++) {
    std::vector<IndexHit> hits;
    ASSERT_TRUE(client_->GetByIndex("items", "by_title", "keep", &hits).ok());
    EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
  }
}

// ---- async-simple (Algorithms 3-4) ----

TEST_F(SchemesTest, AsyncSimpleEventuallyConsistent) {
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  for (int i = 0; i < 30; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 9) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "async-v").ok());
  }
  WaitForQuiescence();
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      client_->GetByIndex("items", "by_title", "async-v", &hits).ok());
  EXPECT_EQ(hits.size(), 30u);
}

TEST_F(SchemesTest, AsyncSimpleUpdateEventuallyRemovesOldEntry) {
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "before").ok());
  WaitForQuiescence();
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "after").ok());
  WaitForQuiescence();
  EXPECT_TRUE(RawIndexRows("items", "by_title", "before").empty());
  EXPECT_EQ(RawIndexRows("items", "by_title", "after"),
            std::set<std::string>{"aa-1"});
}

TEST_F(SchemesTest, AsyncStalenessProbeRecordsLag) {
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  for (int i = 0; i < 20; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 9) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "t").ok());
  }
  WaitForQuiescence();
  Histogram staleness;
  cluster_->AggregateStaleness(&staleness);
  EXPECT_GT(staleness.Count(), 0u);
}

// ---- Drain-before-flush invariant (Section 5.3, Figure 5) ----

TEST_F(SchemesTest, FlushDrainsAuqFirst) {
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  for (int i = 0; i < 50; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 5) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "drained").ok());
  }
  // Flush every region WITHOUT waiting: PreFlush must pause + drain, so
  // right after the flush the queues are empty — PR(Flushed) = ∅.
  ASSERT_TRUE(client_->raw_client()->FlushTable("items").ok());
  for (NodeId id : cluster_->server_ids()) {
    EXPECT_EQ(cluster_->index_manager(id)->QueueDepth(), 0u)
        << "server " << id;
  }
  // And the index is complete.
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      client_->GetByIndex("items", "by_title", "drained", &hits).ok());
  EXPECT_EQ(hits.size(), 50u);
}

// ---- AUQ failure recovery (Section 5.3) ----

TEST_F(SchemesTest, AsyncIndexRecoversAfterServerCrash) {
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  for (int i = 0; i < 80; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 3) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "survive").ok());
  }
  // Crash a server immediately: its AUQ (with possibly pending tasks) and
  // memtables are gone. Recovery replays the WAL and re-enqueues every
  // replayed put, so the index converges.
  ASSERT_TRUE(cluster_->KillServer(2).ok());
  WaitForQuiescence();

  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      client_->GetByIndex("items", "by_title", "survive", &hits).ok());
  EXPECT_EQ(hits.size(), 80u);
  // Every hit resolves to a real base row.
  for (const auto& hit : hits) {
    std::string value;
    EXPECT_TRUE(client_->Get("items", hit.base_row, "title", &value).ok());
    EXPECT_EQ(value, "survive");
  }
}

TEST_F(SchemesTest, SyncFullIndexSurvivesServerCrash) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  for (int i = 0; i < 60; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 7) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "sf").ok());
  }
  ASSERT_TRUE(cluster_->KillServer(1).ok());
  WaitForQuiescence();
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "sf", &hits).ok());
  EXPECT_EQ(hits.size(), 60u);
}

TEST_F(SchemesTest, DuplicateIndexDeliveryIsIdempotent) {
  // Crash recovery re-enqueues every replayed put "regardless of whether
  // it has been delivered before" — the index must not double-count.
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "dup").ok());
  WaitForQuiescence();  // delivered once already
  ASSERT_TRUE(cluster_->KillServer(1).ok());
  WaitForQuiescence();  // recovery may deliver again
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "dup", &hits).ok());
  EXPECT_EQ(hits.size(), 1u);
}

// ---- Session consistency (Sections 3.3 and 5.2) ----

TEST_F(SchemesTest, SessionMatrixOfSection33) {
  // The social-review scenario: User 1 posts a review for product A and
  // must see it in his own index lookup; User 2 is not guaranteed to.
  CreateIndexedTable("reviews", IndexScheme::kAsyncSession, "product");

  auto user1 = cluster_->NewDiffIndexClient();
  auto user2 = cluster_->NewDiffIndexClient();
  const SessionId s1 = user1->GetSession();
  const SessionId s2 = user2->GetSession();

  // User 1 posts a review for product A (async index: not yet visible).
  ASSERT_TRUE(user1->SessionPut(s1, "reviews", "aa-review-1",
                                {Cell{"product", "productA", false}})
                  .ok());

  // Read-your-write: User 1 sees his review immediately.
  std::vector<IndexHit> hits;
  ASSERT_TRUE(user1->SessionGetByIndex(s1, "reviews", "by_product",
                                       "productA", &hits)
                  .ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-review-1"});

  // User 2 may or may not see it (eventual); after the AUQ drains he must.
  WaitForQuiescence();
  ASSERT_TRUE(user2->SessionGetByIndex(s2, "reviews", "by_product",
                                       "productA", &hits)
                  .ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-review-1"});

  user1->EndSession(s1);
  user2->EndSession(s2);
}

TEST_F(SchemesTest, SessionSeesOwnUpdateNotStaleValue) {
  CreateIndexedTable("items", IndexScheme::kAsyncSession);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v1").ok());
  WaitForQuiescence();  // v1 entry delivered

  const SessionId s = client_->GetSession();
  ASSERT_TRUE(client_->SessionPut(s, "items", "aa-1",
                                  {Cell{"title", "v2", false}})
                  .ok());
  // Without draining: the server index still maps aa-1 to v1, but the
  // session must already see v2 and must NOT see v1.
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      client_->SessionGetByIndex(s, "items", "by_title", "v2", &hits).ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
  ASSERT_TRUE(
      client_->SessionGetByIndex(s, "items", "by_title", "v1", &hits).ok());
  EXPECT_TRUE(hits.empty());
  client_->EndSession(s);
}

TEST_F(SchemesTest, SessionMirrorsCompositeIndexWrittenInFull) {
  CreateIndexedTable("items", IndexScheme::kAsyncSession, "category",
                     {"subcategory"});
  ASSERT_TRUE(client_->Put("items", "aa-1",
                           {Cell{"category", "tools", false},
                            Cell{"subcategory", "saws", false}})
                  .ok());
  WaitForQuiescence();  // (tools, saws) entry delivered

  // Hold every AUQ delivery back, so only the session's private entries
  // can make the update visible to it.
  struct HoldAuq {
    HoldAuq() {
      fault::FailpointRegistry::Global()->Arm(
          "auq.process", fault::FailpointPolicy::ErrorEveryNth(1));
    }
    ~HoldAuq() { fault::FailpointRegistry::Global()->Disarm("auq.process"); }
  };
  const SessionId s = client_->GetSession();
  {
    HoldAuq hold;
    ASSERT_TRUE(client_->SessionPut(s, "items", "aa-1",
                                    {Cell{"category", "tools", false},
                                     Cell{"subcategory", "drills", false}})
                    .ok());
    std::vector<IndexHit> hits;
    ASSERT_TRUE(client_
                    ->SessionGetByIndex(
                        s, "items", "by_category",
                        EncodeCompositeIndexValue({"tools", "drills"}), &hits)
                    .ok());
    EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
    ASSERT_TRUE(client_
                    ->SessionGetByIndex(
                        s, "items", "by_category",
                        EncodeCompositeIndexValue({"tools", "saws"}), &hits)
                    .ok());
    EXPECT_TRUE(hits.empty());
  }
  WaitForQuiescence();
  client_->EndSession(s);
}

TEST_F(SchemesTest, EndedSessionExpires) {
  CreateIndexedTable("items", IndexScheme::kAsyncSession);
  const SessionId s = client_->GetSession();
  client_->EndSession(s);
  Status status = client_->SessionPut(s, "items", "aa-1",
                                      {Cell{"title", "x", false}});
  // The base put happens before session bookkeeping; bookkeeping reports
  // the expired session.
  EXPECT_TRUE(status.IsSessionExpired());
}

// ---- Composite index ----

TEST_F(SchemesTest, CompositeIndexMatchesBothColumns) {
  CreateIndexedTable("items", IndexScheme::kSyncFull, "category",
                     {"subcategory"});
  ASSERT_TRUE(client_->Put("items", "aa-1",
                           {Cell{"category", "tools", false},
                            Cell{"subcategory", "saws", false}})
                  .ok());
  ASSERT_TRUE(client_->Put("items", "bb-2",
                           {Cell{"category", "tools", false},
                            Cell{"subcategory", "drills", false}})
                  .ok());

  std::vector<IndexHit> hits;
  const std::string value = EncodeCompositeIndexValue({"tools", "saws"});
  ASSERT_TRUE(
      client_->GetByIndex("items", "by_category", value, &hits).ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});

  // Range over the leading component: both rows.
  const std::string lo = EncodeCompositeIndexValue({"tools"});
  const std::string hi = EncodeCompositeIndexValue({"toolt"});
  ASSERT_TRUE(client_->RangeByIndex("items", "by_category", lo, hi, 0, &hits)
                  .ok());
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(SchemesTest, CompositeIndexUpdateOfOneComponent) {
  CreateIndexedTable("items", IndexScheme::kSyncFull, "category",
                     {"subcategory"});
  ASSERT_TRUE(client_->Put("items", "aa-1",
                           {Cell{"category", "tools", false},
                            Cell{"subcategory", "saws", false}})
                  .ok());
  // Update only the subcategory; the observer resolves the other
  // component from the base table.
  ASSERT_TRUE(
      client_->PutColumn("items", "aa-1", "subcategory", "hammers").ok());

  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_
                  ->GetByIndex("items", "by_category",
                               EncodeCompositeIndexValue({"tools", "hammers"}),
                               &hits)
                  .ok());
  EXPECT_EQ(HitRows(hits), std::set<std::string>{"aa-1"});
  ASSERT_TRUE(client_
                  ->GetByIndex("items", "by_category",
                               EncodeCompositeIndexValue({"tools", "saws"}),
                               &hits)
                  .ok());
  EXPECT_TRUE(hits.empty());
}

// ---- Range queries ----

TEST_F(SchemesTest, RangeByIndexOverNumericValues) {
  CreateIndexedTable("items", IndexScheme::kSyncFull, "price");
  for (uint64_t price = 0; price < 50; price++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-p%llu", static_cast<unsigned>(price * 5),
             static_cast<unsigned long long>(price));
    ASSERT_TRUE(client_->PutColumn("items", row, "price",
                                   EncodeUint64IndexValue(price))
                    .ok());
  }
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_
                  ->RangeByIndex("items", "by_price",
                                 EncodeUint64IndexValue(10),
                                 EncodeUint64IndexValue(20), 0, &hits)
                  .ok());
  EXPECT_EQ(hits.size(), 10u);
  for (const auto& hit : hits) {
    uint64_t price;
    ASSERT_TRUE(DecodeUint64IndexValue(hit.value_encoded, &price));
    EXPECT_GE(price, 10u);
    EXPECT_LT(price, 20u);
  }
}

TEST_F(SchemesTest, RangeByIndexLimit) {
  CreateIndexedTable("items", IndexScheme::kSyncFull, "price");
  for (uint64_t price = 0; price < 30; price++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-p", static_cast<unsigned>(price * 8));
    ASSERT_TRUE(client_->PutColumn("items", row, "price",
                                   EncodeUint64IndexValue(price))
                    .ok());
  }
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_
                  ->RangeByIndex("items", "by_price",
                                 EncodeUint64IndexValue(0),
                                 EncodeUint64IndexValue(30), 5, &hits)
                  .ok());
  EXPECT_EQ(hits.size(), 5u);
}

// ---- Backfill & cleanse ----

TEST_F(SchemesTest, BackfillIndexesPreexistingData) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  auto raw = client_->raw_client();
  for (int i = 0; i < 40; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 6) % 256, i);
    ASSERT_TRUE(raw->PutColumn("items", row, "title", "pre-existing").ok());
  }
  // CREATE INDEX after the data exists.
  IndexDescriptor index;
  index.name = "by_title";
  index.column = "title";
  index.scheme = IndexScheme::kSyncFull;
  ASSERT_TRUE(cluster_->master()->CreateIndex("items", index).ok());
  ASSERT_TRUE(raw->RefreshLayout().ok());

  IndexBackfill backfill(cluster_->NewClient(), cluster_->stats());
  BackfillReport report;
  ASSERT_TRUE(backfill.Run("items", "by_title", &report).ok());
  EXPECT_EQ(report.rows_scanned, 40u);
  EXPECT_EQ(report.entries_written, 40u);

  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      client_->GetByIndex("items", "by_title", "pre-existing", &hits).ok());
  EXPECT_EQ(hits.size(), 40u);
}

TEST_F(SchemesTest, CleansePurgesStaleEntries) {
  CreateIndexedTable("items", IndexScheme::kSyncInsert);
  for (int i = 0; i < 20; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 11) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "v1").ok());
    ASSERT_TRUE(client_->PutColumn("items", row, "title", "v2").ok());
  }
  // 20 stale v1 entries linger (sync-insert never deletes inline).
  IndexBackfill backfill(cluster_->NewClient(), cluster_->stats());
  CleanseReport report;
  ASSERT_TRUE(backfill.Cleanse("items", "by_title", &report).ok());
  EXPECT_EQ(report.stale_removed, 20u);
  EXPECT_TRUE(RawIndexRows("items", "by_title", "v1").empty());
  EXPECT_EQ(RawIndexRows("items", "by_title", "v2").size(), 20u);
}

// ---- Table 2: I/O cost accounting ----

TEST_F(SchemesTest, Table2CostsSyncFull) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  cluster_->stats()->Reset();
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v1").ok());
  // Update so the delete path (the "+1") is exercised.
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v2").ok());
  OpStats::Snapshot s = cluster_->stats()->snapshot();
  EXPECT_EQ(s.base_put, 2u);
  EXPECT_EQ(s.base_read, 2u);   // 1 per update (SU3)
  EXPECT_EQ(s.index_put, 3u);   // 2x SU2 + 1x SU4 (no old value on insert)
  EXPECT_EQ(s.index_read, 0u);
  EXPECT_EQ(s.async_index_put, 0u);
}

TEST_F(SchemesTest, Table2CostsSyncInsert) {
  CreateIndexedTable("items", IndexScheme::kSyncInsert);
  cluster_->stats()->Reset();
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v1").ok());
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v2").ok());
  OpStats::Snapshot s = cluster_->stats()->snapshot();
  EXPECT_EQ(s.base_put, 2u);
  EXPECT_EQ(s.base_read, 0u);  // the whole point of sync-insert
  EXPECT_EQ(s.index_put, 2u);  // SU2 only
  // Index read pays K base reads (K = 2 entries: one stale).
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->GetByIndex("items", "by_title", "v1", &hits).ok());
  s = cluster_->stats()->snapshot();
  EXPECT_EQ(s.index_read, 1u);
  EXPECT_GE(s.base_read, 1u);   // double-check of the stale entry
  EXPECT_GE(s.index_put, 3u);   // repair delete
}

// A scan is an index read too: one per page, plus one base read per
// fetched row.
TEST_F(SchemesTest, Table2CostsScanByIndex) {
  CreateIndexedTable("items", IndexScheme::kSyncFull);
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v1").ok());
  ASSERT_TRUE(client_->PutColumn("items", "bb-2", "title", "v2").ok());
  cluster_->stats()->Reset();
  ReadEngine engine(client_.get());
  ScanSpec spec;
  spec.table = "items";
  spec.index_name = "by_title";
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine.ScanByIndex(spec, ScanOptions(), &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  OpStats::Snapshot s = cluster_->stats()->snapshot();
  EXPECT_EQ(s.index_read, 1u);  // one page
  EXPECT_EQ(s.base_read, 2u);   // the row fetches
  EXPECT_EQ(s.index_put, 0u);
}

TEST_F(SchemesTest, Table2CostsAsyncSimple) {
  CreateIndexedTable("items", IndexScheme::kAsyncSimple);
  cluster_->stats()->Reset();
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v1").ok());
  ASSERT_TRUE(client_->PutColumn("items", "aa-1", "title", "v2").ok());
  WaitForQuiescence();
  OpStats::Snapshot s = cluster_->stats()->snapshot();
  EXPECT_EQ(s.base_put, 2u);
  EXPECT_EQ(s.base_read, 0u);       // nothing in the foreground path
  EXPECT_EQ(s.index_put, 0u);
  EXPECT_GE(s.async_base_read, 2u);  // BA2, in background ("[ ]")
  EXPECT_GE(s.async_index_put, 3u);  // BA3 + BA4
}

// ---- Property test: eventual base/index agreement under random ops ----

class SchemePropertyTest : public SchemesTest,
                           public ::testing::WithParamInterface<IndexScheme> {
};

TEST_P(SchemePropertyTest, RandomWorkloadConvergesToBaseTruth) {
  const IndexScheme scheme = GetParam();
  CreateIndexedTable("items", scheme);

  Random rng(314159 + static_cast<int>(scheme));
  std::map<std::string, std::string> model;  // row -> current title
  for (int i = 0; i < 400; i++) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%02x-r%llu",
             static_cast<unsigned>(rng.Uniform(256)),
             static_cast<unsigned long long>(rng.Uniform(60)));
    const std::string row = buf;
    if (!model.count(row) || !rng.OneIn(5)) {
      const std::string title = "t" + std::to_string(rng.Uniform(10));
      ASSERT_TRUE(client_->PutColumn("items", row, "title", title).ok());
      model[row] = title;
    } else {
      ASSERT_TRUE(client_->DeleteColumns("items", row, {"title"}).ok());
      model.erase(row);
    }
    if (rng.OneIn(100)) {
      ASSERT_TRUE(client_->raw_client()->FlushTable("items").ok());
    }
  }
  WaitForQuiescence();

  // Ground truth: value -> rows.
  std::map<std::string, std::set<std::string>> truth;
  for (const auto& [row, title] : model) truth[title].insert(row);

  for (int v = 0; v < 10; v++) {
    const std::string title = "t" + std::to_string(v);
    std::vector<IndexHit> hits;
    ASSERT_TRUE(
        client_->GetByIndex("items", "by_title", title, &hits).ok());
    std::set<std::string> got = HitRows(hits);
    if (scheme == IndexScheme::kSyncInsert) {
      // Repair already filtered stale entries.
      EXPECT_EQ(got, truth[title]) << title;
    } else {
      EXPECT_EQ(got, truth[title]) << title << " under scheme "
                                   << IndexSchemeName(scheme);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemePropertyTest,
                         ::testing::Values(IndexScheme::kSyncFull,
                                           IndexScheme::kSyncInsert,
                                           IndexScheme::kAsyncSimple),
                         [](const auto& info) {
                           return std::string(IndexSchemeName(info.param))
                                      .find("full") != std::string::npos
                                      ? "sync_full"
                                  : info.param == IndexScheme::kSyncInsert
                                      ? "sync_insert"
                                      : "async_simple";
                         });

}  // namespace
}  // namespace diffindex
