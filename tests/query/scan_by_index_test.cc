// Read-engine scan tests (DESIGN.md §13): paged scatter-gather index
// range scans checked against a raw scan of the index keyspace, cursor
// resumability across scanner instances, covered projections (zero base
// reads), batched read-repair for sync-insert, Corruption on malformed
// index rows, and fault handling at the merge seam and on the wire.
//
// Indexed values here are plain hex-prefixed strings: they contain no
// 0x00/0x01 bytes, so the codec escape leaves them untouched and the
// index rows spread across all four index-table regions (split points
// "40"/"80"/"c0") — every full-range page genuinely fans out.

#include "query/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/index_codec.h"
#include "fault/failpoint.h"

namespace diffindex {
namespace {

constexpr char kTable[] = "items";
constexpr char kIndex[] = "by_val";
constexpr char kColumn[] = "val";

class ScanByIndexTest : public ::testing::Test {
 protected:
  void Setup(IndexScheme scheme,
             std::vector<std::string> extra_columns = {}) {
    ClusterOptions options;
    options.num_servers = 3;
    options.regions_per_table = 4;
    options.client = client_options_;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewDiffIndexClient();
    ASSERT_TRUE(cluster_->master()->CreateTable(kTable).ok());
    IndexDescriptor index;
    index.name = kIndex;
    index.column = kColumn;
    index.scheme = scheme;
    index.extra_columns = std::move(extra_columns);
    ASSERT_TRUE(cluster_->master()->CreateIndex(kTable, index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());
    ASSERT_TRUE(client_->raw_client()
                    ->catalog()
                    .FindIndex(kTable, kIndex, &index_)
                    .ok());
  }

  static std::string RowName(int i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%02x-row%03d", (i * 53) % 256, i);
    return buf;
  }

  // Unique per i; distributes over the index-table regions (see header
  // comment).
  static std::string ValName(int i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%02x-val%03d", (i * 37) % 256, i);
    return buf;
  }

  // Every cell of a row lands in ONE put: the covered path serves
  // non-leading components at the index entry's timestamp, which equals
  // each cell's own timestamp only when they were written together.
  void LoadRows(int n, bool with_extras = false) {
    for (int i = 0; i < n; i++) {
      std::vector<Cell> cells = {Cell{kColumn, ValName(i), false}};
      if (with_extras) {
        cells.push_back(Cell{"extra", "x" + std::to_string(i), false});
        cells.push_back(Cell{"other", "o" + std::to_string(i), false});
      }
      ASSERT_TRUE(client_->Put(kTable, RowName(i), std::move(cells)).ok())
          << RowName(i);
    }
  }

  // Independent reference: a raw scan of the index keyspace for values
  // in [lo, hi), decoded — no engine, no repair (the sync-full index here
  // holds exactly the current entries).
  std::vector<IndexHit> Reference(const std::string& lo,
                                  const std::string& hi) {
    std::vector<ScannedRow> raw;
    EXPECT_TRUE(client_->raw_client()
                    ->ScanRows(index_.index_table, IndexRangeStart(lo),
                               IndexRangeEnd(hi), kMaxTimestamp, 0, &raw)
                    .ok());
    std::vector<IndexHit> hits;
    for (const ScannedRow& row : raw) {
      IndexHit hit;
      EXPECT_TRUE(DecodeIndexRow(row.row, &hit.value_encoded, &hit.base_row))
          << row.row;
      // Key-only entries carry one anonymous cell whose ts is the entry ts.
      hit.ts = row.cells.empty() ? 0 : row.cells[0].ts;
      hits.push_back(std::move(hit));
    }
    return hits;
  }

  static void ExpectSameHits(const std::vector<IndexHit>& got,
                             const std::vector<IndexHit>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
      EXPECT_EQ(got[i].base_row, want[i].base_row) << "hit " << i;
      EXPECT_EQ(got[i].value_encoded, want[i].value_encoded) << "hit " << i;
      EXPECT_EQ(got[i].ts, want[i].ts) << "hit " << i;
    }
  }

  static ScanSpec Spec() {
    ScanSpec spec;
    spec.table = kTable;
    spec.index_name = kIndex;
    return spec;
  }

  uint64_t CounterValue(const char* name) {
    return cluster_->metrics()->GetCounter(name)->value();
  }

  // Template for the cluster's clients; set before Setup.
  ClientOptions client_options_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
  IndexDescriptor index_;
};

// The scatter-gather engine and a raw scan of the index keyspace are
// observationally identical: same hits, same order, same timestamps —
// full range and bounded sub-range (the bounds cut across index-table
// region boundaries).
TEST_F(ScanByIndexTest, ScatterGatherMatchesSequentialReference) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(80);

  ReadEngine engine(client_.get());
  const uint64_t legs_before = CounterValue("query.legs");

  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      engine.ScanByIndex(Spec(), ScanOptions(), &rows,
                         &hits)
          .ok());
  ExpectSameHits(hits, Reference("", ""));
  ASSERT_EQ(rows.size(), hits.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].row, hits[i].base_row);
    ASSERT_EQ(rows[i].cells.size(), 1u);
    EXPECT_EQ(rows[i].cells[0].column, kColumn);
    EXPECT_EQ(rows[i].cells[0].value, hits[i].value_encoded);
  }
  // The full range overlaps all four index regions, so the single page
  // fanned out at least four legs.
  EXPECT_GE(CounterValue("query.legs") - legs_before, 4u);

  // Bounded sub-range, straddling the "80" region split.
  ScanSpec bounded = Spec();
  bounded.value_lo_encoded = "40";
  bounded.value_hi_encoded = "c0";
  rows.clear();
  hits.clear();
  ASSERT_TRUE(
      engine.ScanByIndex(bounded, ScanOptions(), &rows, &hits).ok());
  const std::vector<IndexHit> want = Reference("40", "c0");
  ASSERT_FALSE(want.empty());
  ASSERT_LT(want.size(), 80u);  // the bounds actually cut
  ExpectSameHits(hits, want);
}

// Small pages: the cursor walks the range in page_entries steps and the
// concatenation of pages equals the raw reference. A cursor token
// persisted mid-scan resumes an entirely fresh scanner at exactly the
// next entry.
TEST_F(ScanByIndexTest, PagedCursorResumesAcrossScannerInstances) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(60);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 7;

  // Drive page by page.
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());
  std::vector<IndexHit> paged;
  int pages = 0;
  while (!scanner->exhausted()) {
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    EXPECT_LE(page.hits.size(), 7u);
    paged.insert(paged.end(), page.hits.begin(), page.hits.end());
    pages++;
  }
  ExpectSameHits(paged, want);
  EXPECT_GE(pages, 9);  // 60 entries / 7 per page

  // Stop after two pages, persist the token, resume in a new scanner.
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());
  std::vector<IndexHit> resumed;
  for (int i = 0; i < 2; i++) {
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    resumed.insert(resumed.end(), page.hits.begin(), page.hits.end());
  }
  const std::string token = scanner->cursor();
  scanner.reset();

  std::unique_ptr<IndexScanner> fresh;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &fresh).ok());
  fresh->SeekTo(token);
  while (!fresh->exhausted()) {
    ScanPage page;
    ASSERT_TRUE(fresh->NextPage(&page).ok());
    resumed.insert(resumed.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(resumed, want);
}

// The acceptance criterion for covered projections: when the projection
// is a subset of indexed + stored columns, the scan makes ZERO base-table
// reads (query.base_reads does not move) and still returns rows
// byte-identical to the base-fetch path.
TEST_F(ScanByIndexTest, CoveredProjectionMakesZeroBaseReads) {
  Setup(IndexScheme::kSyncFull, {"extra"});
  LoadRows(40, /*with_extras=*/true);

  ReadEngine engine(client_.get());
  ScanSpec spec = Spec();
  spec.projection = {kColumn, "extra"};

  // Reference: same projection through the base-fetch path.
  ScanOptions uncovered;
  uncovered.allow_covered = false;
  std::vector<ScannedRow> base_rows;
  ASSERT_TRUE(engine.ScanByIndex(spec, uncovered, &base_rows).ok());
  ASSERT_EQ(base_rows.size(), 40u);

  const uint64_t base_reads_before = CounterValue("query.base_reads");
  const uint64_t covered_before = CounterValue("query.covered");

  ScanOptions covered;  // allow_covered defaults true
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(engine.NewScan(spec, covered, &scanner).ok());
  std::vector<ScannedRow> covered_rows;
  while (!scanner->exhausted()) {
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    EXPECT_TRUE(page.covered);
    covered_rows.insert(covered_rows.end(), page.rows.begin(),
                        page.rows.end());
  }

  EXPECT_EQ(CounterValue("query.base_reads"), base_reads_before)
      << "covered scan touched the base table";
  EXPECT_GT(CounterValue("query.covered"), covered_before);

  // Byte-identical rows: column, value, AND timestamp (the cells were
  // written in one put, so the entry ts is each cell's ts).
  ASSERT_EQ(covered_rows.size(), base_rows.size());
  for (size_t i = 0; i < base_rows.size(); i++) {
    EXPECT_EQ(covered_rows[i].row, base_rows[i].row);
    ASSERT_EQ(covered_rows[i].cells.size(), base_rows[i].cells.size())
        << base_rows[i].row;
    for (size_t c = 0; c < base_rows[i].cells.size(); c++) {
      EXPECT_EQ(covered_rows[i].cells[c].column,
                base_rows[i].cells[c].column);
      EXPECT_EQ(covered_rows[i].cells[c].value,
                base_rows[i].cells[c].value);
      EXPECT_EQ(covered_rows[i].cells[c].ts, base_rows[i].cells[c].ts);
    }
  }

  // A projection touching a non-stored column is not covered.
  ScanSpec wide = Spec();
  wide.projection = {kColumn, "other"};
  ASSERT_TRUE(engine.NewScan(wide, covered, &scanner).ok());
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  EXPECT_FALSE(page.covered);
}

// Moving an index-table region mid-scan invalidates the client's cached
// layout; the region-addressed leg fails with WrongRegion and the engine
// refreshes + retries the page. The scan completes with the full result.
TEST_F(ScanByIndexTest, SurvivesIndexRegionMoveMidScan) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(60);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 8;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());

  std::vector<IndexHit> got;
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  got.insert(got.end(), page.hits.begin(), page.hits.end());

  // Move every index region to a different server; the client's layout
  // is now entirely stale.
  for (const RegionInfoWire& region :
       client_->raw_client()->TableRegions(index_.index_table)) {
    NodeId target = region.server_id;
    for (NodeId id : cluster_->server_ids()) {
      if (id != region.server_id) target = id;
    }
    ASSERT_TRUE(cluster_->master()
                    ->MoveRegion(index_.index_table, region.region_id,
                                 target)
                    .ok());
  }

  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    got.insert(got.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(got, want);
}

// A fully partitioned fabric exhausts the page retries and surfaces
// Unavailable — but the failed page never advanced the cursor, so once
// the network heals the SAME scanner resumes and the concatenation is
// complete and duplicate-free. Pages retry under the client's policy, so
// the failed page is exactly max_retries retries and one exhausted loop
// in the client's counters.
TEST_F(ScanByIndexTest, DropFaultSurfacesThenScanResumes) {
  client_options_.max_retries = 2;
  client_options_.retry_backoff_ms = 1;
  client_options_.retry_backoff_max_ms = 2;
  Setup(IndexScheme::kSyncFull);
  LoadRows(40);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 10;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());

  std::vector<IndexHit> got;
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  got.insert(got.end(), page.hits.begin(), page.hits.end());

  const uint64_t retries = CounterValue("client.retries");
  const uint64_t exhausted = CounterValue("client.retry_exhausted");
  Fabric::EdgeFault drop;
  drop.drop_probability = 1.0;
  cluster_->fabric()->SetDefaultFault(drop);
  Status s = scanner->NextPage(&page);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(CounterValue("client.retries") - retries, 2u);
  EXPECT_EQ(CounterValue("client.retry_exhausted") - exhausted, 1u);

  cluster_->fabric()->ClearFaults();
  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    got.insert(got.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(got, want);
}

// The query.merge failpoint fires between leg gather and merge; the
// error surfaces (it is not a layout/availability error) with the cursor
// still at the failed page's start, so the immediate retry succeeds.
TEST_F(ScanByIndexTest, MergeFailpointLeavesPageRetryable) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(30);
  const std::vector<IndexHit> want = Reference("", "");

  fault::ScopedFailpointCleanup cleanup;
  fault::FailpointRegistry::Global()->Arm(
      "query.merge", fault::FailpointPolicy::ErrorOnce(Status::IOError("torn")));

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 8;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());

  ScanPage page;
  Status s = scanner->NextPage(&page);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  std::vector<IndexHit> got;
  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    got.insert(got.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(got, want);
}

// Sync-insert leaves stale entries on update by design (Algorithm 2);
// the engine's batched repair must (a) filter them out of the returned
// hits and (b) lazily delete them from the index table, exactly like the
// sequential reference routine.
TEST_F(ScanByIndexTest, BatchedRepairFiltersAndDeletesStaleEntries) {
  Setup(IndexScheme::kSyncInsert);
  LoadRows(30);
  // Overwrite every 3rd row: the old entry goes stale in the index.
  std::map<std::string, std::string> truth;  // row -> current value
  for (int i = 0; i < 30; i++) {
    if (i % 3 == 0) {
      ASSERT_TRUE(
          client_->PutColumn(kTable, RowName(i), kColumn, ValName(100 + i))
              .ok());
      truth[RowName(i)] = ValName(100 + i);
    } else {
      truth[RowName(i)] = ValName(i);
    }
  }

  const uint64_t deleted_before = CounterValue("query.repair.deleted");
  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 7;  // repair runs per page
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(engine.ScanByIndex(Spec(), options, &rows,
                                 &hits)
                  .ok());

  // Verified hits = the model, in (value, row) order.
  std::vector<std::pair<std::string, std::string>> expected;
  for (const auto& [row, value] : truth) expected.emplace_back(value, row);
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); i++) {
    EXPECT_EQ(hits[i].value_encoded, expected[i].first) << "hit " << i;
    EXPECT_EQ(hits[i].base_row, expected[i].second) << "hit " << i;
  }
  EXPECT_EQ(CounterValue("query.repair.deleted") - deleted_before, 10u);

  // The stale entries are gone from the raw index keyspace.
  std::vector<ScannedRow> raw;
  ASSERT_TRUE(client_->raw_client()
                  ->ScanRows(index_.index_table, "", "", kMaxTimestamp, 0,
                             &raw)
                  .ok());
  std::set<std::pair<std::string, std::string>> remaining;
  for (const ScannedRow& entry : raw) {
    std::string value, row;
    ASSERT_TRUE(DecodeIndexRow(entry.row, &value, &row)) << entry.row;
    remaining.emplace(value, row);
  }
  const std::set<std::pair<std::string, std::string>> expected_set(
      expected.begin(), expected.end());
  EXPECT_EQ(remaining, expected_set);
}

// limit counts scanned index entries across pages, independent of page
// size.
TEST_F(ScanByIndexTest, LimitCountsScannedEntriesAcrossPages) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(30);
  const std::vector<IndexHit> all = Reference("", "");

  ReadEngine engine(client_.get());
  ScanSpec spec = Spec();
  spec.limit = 7;
  ScanOptions options;
  options.page_entries = 3;
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(engine.ScanByIndex(spec, options, &rows, &hits).ok());
  ASSERT_EQ(hits.size(), 7u);
  ExpectSameHits(hits,
                 std::vector<IndexHit>(all.begin(), all.begin() + 7));
}

// Session-consistent scan (Section 5.2): the page merge against the
// session's private entries makes the engine — and the client's
// SessionRangeByIndex, which runs on it — agree with the ground truth no
// matter how much of the AUQ backlog has drained.
TEST_F(ScanByIndexTest, SessionScanMergesPrivateEntries) {
  Setup(IndexScheme::kAsyncSession);
  const SessionId session = client_->GetSession();
  std::set<std::pair<std::string, std::string>> truth;
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(client_
                    ->SessionPut(session, kTable, RowName(i),
                                 {Cell{kColumn, ValName(i), false}})
                    .ok());
    truth.emplace(ValName(i), RowName(i));
  }

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 6;
  options.session = session;
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(engine.ScanByIndex(Spec(), options, &rows,
                                 &hits)
                  .ok());

  std::set<std::pair<std::string, std::string>> got;
  for (const IndexHit& hit : hits) {
    got.emplace(hit.value_encoded, hit.base_row);
  }
  EXPECT_EQ(got, truth);

  std::vector<IndexHit> reference;
  ASSERT_TRUE(client_
                  ->SessionRangeByIndex(session, kTable, kIndex, "", "",
                                        &reference)
                  .ok());
  std::set<std::pair<std::string, std::string>> ref;
  for (const IndexHit& hit : reference) {
    ref.emplace(hit.value_encoded, hit.base_row);
  }
  EXPECT_EQ(ref, truth);
  client_->EndSession(session);
}

// An index row that does not decode is Corruption on every read path —
// the exact-match read that covers its key and a scan over it — never a
// silently skipped entry.
TEST_F(ScanByIndexTest, MalformedIndexRowIsCorruption) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(10);
  // The escaped value with no value/rowkey terminator: inside the
  // exact-match range of kBogus, but DecodeIndexRow rejects it.
  const std::string kBogus = "50-bogus";
  ASSERT_TRUE(client_->raw_client()
                  ->Put(index_.index_table, kBogus, {Cell{"", "", false}})
                  .ok());

  std::vector<IndexHit> hits;
  Status s = client_->GetByIndex(kTable, kIndex, kBogus, &hits);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  ReadEngine engine(client_.get());
  std::vector<ScannedRow> rows;
  s = engine.ScanByIndex(Spec(), ScanOptions(), &rows);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Reads whose range excludes the bad key are unaffected.
  ASSERT_TRUE(client_->GetByIndex(kTable, kIndex, ValName(0), &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].base_row, RowName(0));
}

// Local indexes keep their broadcast read path; the region-addressed
// engine must refuse them up front, not scan garbage.
TEST_F(ScanByIndexTest, RejectsLocalIndexes) {
  ClusterOptions options;
  options.num_servers = 2;
  options.regions_per_table = 2;
  ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
  client_ = cluster_->NewDiffIndexClient();
  ASSERT_TRUE(cluster_->master()->CreateTable(kTable).ok());
  IndexDescriptor local;
  local.name = kIndex;
  local.column = kColumn;
  local.scheme = IndexScheme::kSyncFull;
  local.is_local = true;
  ASSERT_TRUE(cluster_->master()->CreateIndex(kTable, local).ok());
  ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());

  ReadEngine engine(client_.get());
  std::unique_ptr<IndexScanner> scanner;
  Status s = engine.NewScan(Spec(), ScanOptions(),
                            &scanner);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace diffindex
