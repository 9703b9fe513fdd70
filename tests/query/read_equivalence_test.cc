// Differential read-equivalence suite (DESIGN.md §13): every index read
// path — the engine's uncovered and covered scans and the client's
// RangeByIndex / GetByIndex — must agree with an independent reference
// built without the engine on the same final state: the workload's model
// of current values, the raw index keyspace (for entry timestamps) and
// one raw GetRow per expected row. Same verified hits (row, value, ts),
// same materialized rows (column/value/ts byte-identity), under every
// maintenance scheme, for the same seeded workload. And for sync-insert,
// the engine's batched read-repair run on one cluster must leave the raw
// index table in exactly the state the sequential reference repair
// (SequentialRepairHits) leaves on a twin cluster that replayed the same
// trace.
//
// The workload writes the indexed column and the stored extra column in
// one put per op: the covered path serves every projected cell at the
// index entry's timestamp, so byte-identity (including ts) only holds —
// and is only asserted — when the cells were written together.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/index_codec.h"
#include "query/engine.h"
#include "query/read_repair.h"
#include "util/random.h"

namespace diffindex {
namespace {

constexpr char kTable[] = "items";
constexpr char kIndex[] = "by_title";
constexpr char kColumn[] = "title";
constexpr char kExtra[] = "note";
constexpr int kNumValues = 8;
constexpr int kKeySpace = 24;
constexpr int kOpsPerRun = 120;

std::string ValueName(int v) { return "v" + std::to_string(v); }

std::string NoteFor(const std::string& row, const std::string& value) {
  return "n-" + row + "-" + value;
}

// The composite index value of a row whose title is `value`: (title,
// note), and the workload writes both in one put.
std::string EncodedValue(const std::string& row, const std::string& value) {
  return EncodeCompositeIndexValue({value, NoteFor(row, value)});
}

std::string RowName(Random* rng) {
  char buf[24];
  const uint32_t r = rng->Uniform(kKeySpace);
  snprintf(buf, sizeof(buf), "%02x-r%u", (r * 37) % 256, r);
  return buf;
}

struct TestCluster {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<DiffIndexClient> client;
  IndexDescriptor index;
  std::map<std::string, std::string> model;  // row -> current value
};

// Builds a cluster and replays the seed's op trace: indexed puts
// (title + note in ONE put), same-value overwrites, deletes, occasional
// flushes. The trace depends only on the seed.
void RunWorkload(IndexScheme scheme, uint64_t seed, TestCluster* tc) {
  ClusterOptions options;
  options.num_servers = 3;
  options.regions_per_table = 4;
  ASSERT_TRUE(Cluster::Create(options, &tc->cluster).ok());
  tc->client = tc->cluster->NewDiffIndexClient();
  ASSERT_TRUE(tc->cluster->master()->CreateTable(kTable).ok());
  IndexDescriptor index;
  index.name = kIndex;
  index.column = kColumn;
  index.scheme = scheme;
  index.extra_columns = {kExtra};
  ASSERT_TRUE(tc->cluster->master()->CreateIndex(kTable, index).ok());
  ASSERT_TRUE(tc->client->raw_client()->RefreshLayout().ok());
  ASSERT_TRUE(tc->client->raw_client()
                  ->catalog()
                  .FindIndex(kTable, kIndex, &tc->index)
                  .ok());

  Random rng(static_cast<uint32_t>(seed));
  std::map<std::string, std::string>& model = tc->model;
  for (int i = 0; i < kOpsPerRun; i++) {
    const std::string row = RowName(&rng);
    const uint32_t dice = rng.Uniform(10);
    if (model.count(row) && dice < 2) {
      ASSERT_TRUE(
          tc->client->DeleteColumns(kTable, row, {kColumn, kExtra}).ok());
      model.erase(row);
    } else {
      // Fresh value or same-value overwrite (dice < 4) — either way both
      // cells land in one put so entry ts == each cell's ts.
      const std::string value = model.count(row) && dice < 4
                                    ? model[row]
                                    : ValueName(rng.Uniform(kNumValues));
      ASSERT_TRUE(tc->client
                      ->Put(kTable, row,
                            {Cell{kColumn, value, false},
                             Cell{kExtra, NoteFor(row, value), false}})
                      .ok());
      model[row] = value;
    }
    if (rng.OneIn(40)) {
      ASSERT_TRUE(tc->client->raw_client()->FlushTable(kTable).ok());
    }
  }

  // Async schemes: wait for the AUQ to deliver everything so the read
  // paths compare against a settled index.
  for (int i = 0; i < 5000; i++) {
    bool all_empty = true;
    for (NodeId id : tc->cluster->server_ids()) {
      if (tc->cluster->index_manager(id)->QueueDepth() > 0) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ExpectSameHits(const std::vector<IndexHit>& got,
                    const std::vector<IndexHit>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].base_row, want[i].base_row) << label << " hit " << i;
    EXPECT_EQ(got[i].value_encoded, want[i].value_encoded)
        << label << " hit " << i;
    EXPECT_EQ(got[i].ts, want[i].ts) << label << " hit " << i;
  }
}

void ExpectSameRows(const std::vector<ScannedRow>& got,
                    const std::vector<ScannedRow>& want,
                    const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].row, want[i].row) << label << " row " << i;
    ASSERT_EQ(got[i].cells.size(), want[i].cells.size())
        << label << " row " << want[i].row;
    for (size_t c = 0; c < want[i].cells.size(); c++) {
      EXPECT_EQ(got[i].cells[c].column, want[i].cells[c].column)
          << label << " row " << want[i].row;
      EXPECT_EQ(got[i].cells[c].value, want[i].cells[c].value)
          << label << " row " << want[i].row << " col "
          << want[i].cells[c].column;
      EXPECT_EQ(got[i].cells[c].ts, want[i].cells[c].ts)
          << label << " row " << want[i].row << " col "
          << want[i].cells[c].column;
    }
  }
}

// Every entry physically in the index table, decoded, in index order —
// a raw scan of the index keyspace: no engine, no repair, no filtering.
std::vector<IndexHit> RawIndexEntries(TestCluster* tc) {
  std::vector<ScannedRow> raw;
  EXPECT_TRUE(tc->client->raw_client()
                  ->ScanRows(tc->index.index_table, "", "", kMaxTimestamp,
                             0, &raw)
                  .ok());
  std::vector<IndexHit> entries;
  for (const ScannedRow& row : raw) {
    IndexHit hit;
    EXPECT_TRUE(DecodeIndexRow(row.row, &hit.value_encoded, &hit.base_row))
        << row.row;
    // Key-only entries carry one anonymous cell whose ts is the entry ts.
    hit.ts = row.cells.empty() ? 0 : row.cells[0].ts;
    entries.push_back(std::move(hit));
  }
  return entries;
}

std::set<std::pair<std::string, std::string>> RawIndexState(
    TestCluster* tc) {
  std::set<std::pair<std::string, std::string>> state;
  for (const IndexHit& hit : RawIndexEntries(tc)) {
    state.emplace(hit.value_encoded, hit.base_row);
  }
  return state;
}

std::set<std::pair<std::string, std::string>> ModelState(
    const TestCluster& tc) {
  std::set<std::pair<std::string, std::string>> state;
  for (const auto& [row, value] : tc.model) {
    state.emplace(EncodedValue(row, value), row);
  }
  return state;
}

// The independent reference: the raw index entries the model says are
// current (stale sync-insert entries drop out here, exactly what repair
// must filter), and one raw GetRow per such row projected to
// {note, title} in column order.
void ReferenceRead(TestCluster* tc, std::vector<IndexHit>* hits,
                   std::vector<ScannedRow>* rows) {
  hits->clear();
  for (IndexHit& hit : RawIndexEntries(tc)) {
    auto it = tc->model.find(hit.base_row);
    if (it == tc->model.end() ||
        EncodedValue(it->first, it->second) != hit.value_encoded) {
      continue;
    }
    hits->push_back(std::move(hit));
  }
  // No lost entries: every current (value, row) has its index entry.
  ASSERT_EQ(hits->size(), tc->model.size());
  rows->clear();
  for (const IndexHit& hit : *hits) {
    GetRowResponse resp;
    ASSERT_TRUE(tc->client->raw_client()
                    ->GetRow(kTable, hit.base_row, kMaxTimestamp, &resp)
                    .ok());
    ASSERT_TRUE(resp.found) << hit.base_row;
    ScannedRow row;
    row.row = hit.base_row;
    for (const RowCell& cell : resp.cells) {
      if (cell.column == kColumn || cell.column == kExtra) {
        row.cells.push_back(cell);
      }
    }
    rows->push_back(std::move(row));
  }
}

class ReadEquivalenceTest : public ::testing::TestWithParam<int> {};

// All read paths — uncovered scan, covered scan, RangeByIndex and
// per-value GetByIndex — agree byte-for-byte with the reference, on the
// same settled cluster, under every scheme. For sync-insert the repair
// runs first on the uncovered scan and every later path reads the
// repaired index.
TEST_P(ReadEquivalenceTest, EnginePathsMatchSequentialReadPath) {
  const uint64_t seed = 0x5CA11ED0ULL + static_cast<uint64_t>(GetParam());
  for (IndexScheme scheme :
       {IndexScheme::kSyncFull, IndexScheme::kSyncInsert,
        IndexScheme::kAsyncSimple, IndexScheme::kAsyncSession}) {
    SCOPED_TRACE(IndexSchemeName(scheme));
    TestCluster tc;
    RunWorkload(scheme, seed, &tc);

    std::vector<IndexHit> ref_hits;
    std::vector<ScannedRow> ref_rows;
    ReferenceRead(&tc, &ref_hits, &ref_rows);
    ASSERT_FALSE(ref_hits.empty());

    ReadEngine engine(tc.client.get());
    ScanSpec spec;
    spec.table = kTable;
    spec.index_name = kIndex;
    spec.projection = {kColumn, kExtra};

    ScanOptions uncovered;
    uncovered.allow_covered = false;
    uncovered.page_entries = 5;  // force multiple pages
    std::vector<ScannedRow> rows;
    std::vector<IndexHit> hits;
    ASSERT_TRUE(engine.ScanByIndex(spec, uncovered, &rows, &hits).ok());
    ExpectSameHits(hits, ref_hits, "uncovered");
    ExpectSameRows(rows, ref_rows, "uncovered");

    ScanOptions covered;
    covered.page_entries = 5;
    ASSERT_TRUE(engine.ScanByIndex(spec, covered, &rows, &hits).ok());
    ExpectSameHits(hits, ref_hits, "covered");
    ExpectSameRows(rows, ref_rows, "covered");

    ASSERT_TRUE(
        tc.client->RangeByIndex(kTable, kIndex, "", "", 0, &hits).ok());
    ExpectSameHits(hits, ref_hits, "range_by_index");

    // The note makes every composite value unique to its row, so each
    // exact match returns exactly that row's entry.
    for (const IndexHit& want : ref_hits) {
      ASSERT_TRUE(
          tc.client->GetByIndex(kTable, kIndex, want.value_encoded, &hits)
              .ok());
      ExpectSameHits(hits, {want}, "get_by_index");
    }
  }
}

// Twin clusters replay the same sync-insert trace; one is repaired by
// the sequential reference routine over a raw index scan, the other read
// through the engine's batched repair. Both must report the model's
// entries and both must leave the raw index table in the same (fully
// repaired) state.
TEST_P(ReadEquivalenceTest, BatchedRepairConvergesLikeSequential) {
  const uint64_t seed = 0xBA7C4EDULL + static_cast<uint64_t>(GetParam());

  TestCluster sequential;
  RunWorkload(IndexScheme::kSyncInsert, seed, &sequential);
  std::vector<IndexHit> seq_hits = RawIndexEntries(&sequential);
  ASSERT_TRUE(SequentialRepairHits(sequential.client->raw_client(),
                                   /*stats=*/nullptr, kTable,
                                   sequential.index, &seq_hits)
                  .ok());

  TestCluster batched;
  RunWorkload(IndexScheme::kSyncInsert, seed, &batched);
  ReadEngine engine(batched.client.get());
  ScanSpec spec;
  spec.table = kTable;
  spec.index_name = kIndex;
  ScanOptions options;
  options.page_entries = 7;
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> bat_hits;
  ASSERT_TRUE(engine.ScanByIndex(spec, options, &rows, &bat_hits).ok());

  // Same verified entries (timestamps are cluster-local; compare the
  // (value, row) sets, which are deterministic functions of the trace).
  std::set<std::pair<std::string, std::string>> seq_set, bat_set;
  for (const IndexHit& hit : seq_hits) {
    seq_set.emplace(hit.value_encoded, hit.base_row);
  }
  for (const IndexHit& hit : bat_hits) {
    bat_set.emplace(hit.value_encoded, hit.base_row);
  }
  EXPECT_EQ(bat_set, seq_set);
  EXPECT_EQ(bat_set, ModelState(batched));

  // Both repair styles deleted the same stale entries: the raw index
  // keyspaces are identical and contain exactly the verified entries.
  const auto seq_state = RawIndexState(&sequential);
  const auto bat_state = RawIndexState(&batched);
  EXPECT_EQ(bat_state, seq_state);
  EXPECT_EQ(bat_state, bat_set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadEquivalenceTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace diffindex
