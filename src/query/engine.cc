#include "query/engine.h"

#include <algorithm>
#include <utility>

#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "query/covered.h"
#include "query/read_repair.h"

namespace diffindex {

namespace {

// Completion latch for one page's scatter-gather legs: Wait() returns
// once every leg has called CountDown(). Cheaper than ThreadPool::Wait(),
// which drains the whole (shared) queue.
class LegLatch {
 public:
  explicit LegLatch(size_t n) : remaining_(n) {}

  void CountDown() {
    MutexLock lock(mu_);
    if (--remaining_ == 0) cv_.SignalAll();
  }

  void Wait() {
    MutexLock lock(mu_);
    cv_.Wait(mu_, [this]() REQUIRES(mu_) { return remaining_ == 0; });
  }

 private:
  Mutex mu_;
  CondVar cv_;
  size_t remaining_ GUARDED_BY(mu_);
};

}  // namespace

void ProjectCells(const std::vector<std::string>& projection,
                  ScannedRow* row) {
  if (projection.empty()) return;
  std::vector<RowCell> kept;
  kept.reserve(row->cells.size());
  for (auto& cell : row->cells) {
    if (std::find(projection.begin(), projection.end(), cell.column) !=
        projection.end()) {
      kept.push_back(std::move(cell));
    }
  }
  row->cells = std::move(kept);
}

// ---- IndexScanner ----

IndexScanner::IndexScanner(ReadEngine* engine, const ScanSpec& spec,
                           const ScanOptions& options,
                           const IndexDescriptor& index)
    : engine_(engine), spec_(spec), options_(options), index_(index) {
  cursor_ = IndexRangeStart(spec.value_lo_encoded);
  if (!spec.value_hi_encoded.empty()) {
    end_key_ = IndexRangeEnd(spec.value_hi_encoded);
  }
}

void IndexScanner::SeekTo(const std::string& cursor) {
  cursor_ = cursor;
  exhausted_ = false;
  returned_ = 0;
}

Status IndexScanner::GatherOnce(uint32_t budget, std::vector<RawEntry>* out,
                                bool* truncated) {
  Client* raw = engine_->client_->raw_client();
  obs::MetricsRegistry* metrics = raw->metrics();

  // Regions of the index table overlapping [cursor_, end_key_). Regions
  // partition the keyspace, so an empty overlap means the layout is not
  // loaded yet — report Unavailable so the client's Retry refreshes it.
  std::vector<RegionInfoWire> legs;
  for (auto& region : raw->TableRegions(index_.index_table)) {
    if (!region.end_row.empty() && region.end_row <= cursor_) continue;
    if (!end_key_.empty() && region.start_row >= end_key_ &&
        !region.start_row.empty()) {
      continue;
    }
    legs.push_back(std::move(region));
  }
  if (legs.empty()) {
    return Status::Unavailable("no layout for " + index_.index_table);
  }
  if (metrics != nullptr) {
    metrics->GetCounter("query.legs")->Add(legs.size());
  }

  // Every leg asks for the full page budget: leg results that overflow
  // the budget at merge time are discarded (regions underneath a
  // selective range are usually sparse, so the overshoot is small).
  std::vector<IndexScanResponse> responses(legs.size());
  std::vector<Status> statuses(legs.size(), Status::OK());
  const bool inline_legs = options_.max_parallel <= 1 || legs.size() == 1;
  if (inline_legs) {
    for (size_t i = 0; i < legs.size(); i++) {
      statuses[i] = raw->IndexScanRegion(index_.index_table, legs[i], cursor_,
                                         end_key_, kMaxTimestamp, budget,
                                         &responses[i]);
    }
  } else {
    ThreadPool* pool = engine_->pool();
    LegLatch latch(legs.size());
    for (size_t i = 0; i < legs.size(); i++) {
      auto leg = [this, raw, &latch, &legs, &statuses, &responses, budget,
                  i]() {
        statuses[i] = raw->IndexScanRegion(index_.index_table, legs[i],
                                           cursor_, end_key_, kMaxTimestamp,
                                           budget, &responses[i]);
        latch.CountDown();
      };
      if (!pool->Submit(leg)) leg();  // pool shut down: degrade to inline
    }
    latch.Wait();
  }

  DIFFINDEX_FAILPOINT("query.merge");

  // Regions partition the keyspace and legs are in region order, so the
  // ordered merge is a concatenation, trimmed to the page budget.
  out->clear();
  for (size_t i = 0; i < legs.size(); i++) {
    DIFFINDEX_RETURN_NOT_OK(statuses[i]);
    for (auto& entry : responses[i].entries) {
      if (out->size() >= budget) {
        *truncated = true;
        return Status::OK();
      }
      out->push_back(std::move(entry));
    }
    if (responses[i].more) {
      *truncated = true;
      return Status::OK();
    }
  }
  *truncated = false;
  return Status::OK();
}

Status IndexScanner::NextPage(ScanPage* page) {
  page->rows.clear();
  page->covered = false;
  Client* raw = engine_->client_->raw_client();
  obs::SpanTimer span(raw->metrics(), raw->traces(), "query.page");
  DIFFINDEX_RETURN_NOT_OK(CollectHits(&page->hits));

  if (options_.allow_covered &&
      CoveredProjectionEligible(index_, spec_.projection)) {
    if (raw->metrics() != nullptr) {
      raw->metrics()->GetCounter("query.covered")->Add();
    }
    page->rows.reserve(page->hits.size());
    for (const auto& hit : page->hits) {
      ScannedRow row;
      if (!MaterializeCoveredRow(index_, spec_.projection, hit, &row)) {
        return Status::Corruption("undecodable index entry for covered scan");
      }
      page->rows.push_back(std::move(row));
    }
    page->covered = true;
    return Status::OK();
  }
  return engine_->FetchRows(spec_.table, page->hits, spec_.projection,
                            &page->rows);
}

Status IndexScanner::NextHits(std::vector<IndexHit>* hits) {
  Client* raw = engine_->client_->raw_client();
  obs::SpanTimer span(raw->metrics(), raw->traces(), "query.page");
  return CollectHits(hits);
}

Status IndexScanner::CollectHits(std::vector<IndexHit>* hits) {
  hits->clear();
  if (exhausted_) return Status::OK();

  DiffIndexClient* client = engine_->client_;
  Client* raw = client->raw_client();
  obs::MetricsRegistry* metrics = raw->metrics();

  uint32_t budget = options_.page_entries == 0 ? 1 : options_.page_entries;
  if (spec_.limit != 0) {
    budget = static_cast<uint32_t>(std::min<uint64_t>(
        budget, static_cast<uint64_t>(spec_.limit) - returned_));
  }

  std::vector<RawEntry> merged;
  bool truncated = false;
  DIFFINDEX_RETURN_NOT_OK(raw->Retry(
      [&](bool*) { return GatherOnce(budget, &merged, &truncated); }));

  if (metrics != nullptr) metrics->GetCounter("query.pages")->Add();
  if (client->stats() != nullptr) client->stats()->AddIndexRead();

  hits->reserve(merged.size());
  for (auto& entry : merged) {
    IndexHit hit;
    if (!DecodeIndexRow(entry.key, &hit.value_encoded, &hit.base_row)) {
      hits->clear();
      return Status::Corruption("malformed index row in " +
                                index_.index_table);
    }
    hit.ts = entry.ts;
    hits->push_back(std::move(hit));
  }

  // The page's effect on the cursor commits only once the page succeeds,
  // so a failed page can be retried from its start.
  const uint64_t returned = returned_ + merged.size();
  // Index rows contain no 0x00, so key + '\0' restarts strictly after the
  // last returned entry while excluding nothing else.
  std::string next_cursor =
      merged.empty() ? cursor_ : merged.back().key + '\0';
  const bool exhausted =
      !truncated || (spec_.limit != 0 && returned >= spec_.limit);

  if (index_.scheme == IndexScheme::kSyncInsert) {
    DIFFINDEX_RETURN_NOT_OK(
        BatchedRepairHits(raw, client->stats(), spec_.table, index_, hits));
  }

  if (options_.session != 0) {
    // Page windows are disjoint and in index order, and MergeHits keeps
    // (value, base_row) order inside the window, so the merged stream
    // stays globally ordered.
    const std::string& window_end = exhausted ? end_key_ : next_cursor;
    bool degraded = false;
    DIFFINDEX_RETURN_NOT_OK(client->sessions()->MergeHits(
        options_.session, index_.index_table, cursor_, window_end, hits,
        &degraded));
  }

  cursor_ = std::move(next_cursor);
  returned_ = returned;
  exhausted_ = exhausted;
  return Status::OK();
}

// ---- ReadEngine ----

ReadEngine::ReadEngine(DiffIndexClient* client,
                       const ReadEngineOptions& options)
    : client_(client), options_(options) {}

ReadEngine::~ReadEngine() {
  MutexLock lock(pool_mu_);
  if (pool_ != nullptr) pool_->Shutdown();
}

ThreadPool* ReadEngine::pool() {
  MutexLock lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        std::max(1, options_.max_parallel_legs), "query");
  }
  return pool_.get();
}

Status ReadEngine::FindIndex(const std::string& table,
                             const std::string& index_name,
                             IndexDescriptor* index) {
  return client_->raw_client()->catalog().FindIndex(table, index_name, index);
}

Status ReadEngine::NewScan(const ScanSpec& spec, const ScanOptions& options,
                           std::unique_ptr<IndexScanner>* scanner) {
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(FindIndex(spec.table, spec.index_name, &index));
  if (index.is_local) {
    return Status::InvalidArgument(
        "scatter-gather scan requires a global index: " + spec.index_name);
  }
  // ANALYZER_WAIVE(naked-new): make_unique cannot reach the private ctor
  scanner->reset(new IndexScanner(this, spec, options, index));
  return Status::OK();
}

Status ReadEngine::ScanByIndex(const ScanSpec& spec,
                               const ScanOptions& options,
                               std::vector<ScannedRow>* rows,
                               std::vector<IndexHit>* hits) {
  rows->clear();
  if (hits != nullptr) hits->clear();

  std::unique_ptr<IndexScanner> scanner;
  DIFFINDEX_RETURN_NOT_OK(NewScan(spec, options, &scanner));

  const obs::TraceContext& ambient = obs::CurrentTraceContext();
  obs::ScopedTraceContext scope(
      ambient.active()
          ? ambient.Child()
          : obs::TraceContext::NewRoot(
                "scan_by_index", IndexSchemeName(scanner->index_.scheme)));

  ScanPage page;
  while (!scanner->exhausted()) {
    DIFFINDEX_RETURN_NOT_OK(scanner->NextPage(&page));
    for (auto& row : page.rows) rows->push_back(std::move(row));
    if (hits != nullptr) {
      for (auto& hit : page.hits) hits->push_back(std::move(hit));
    }
  }
  return Status::OK();
}

Status ReadEngine::FetchRows(const std::string& table,
                             const std::vector<IndexHit>& hits,
                             const std::vector<std::string>& projection,
                             std::vector<ScannedRow>* rows) {
  Client* raw = client_->raw_client();
  obs::MetricsRegistry* metrics = raw->metrics();
  rows->reserve(rows->size() + hits.size());
  for (const auto& hit : hits) {
    GetRowResponse resp;
    if (client_->stats() != nullptr) client_->stats()->AddBaseRead();
    if (metrics != nullptr) metrics->GetCounter("query.base_reads")->Add();
    DIFFINDEX_RETURN_NOT_OK(
        raw->GetRow(table, hit.base_row, kMaxTimestamp, &resp));
    if (!resp.found) continue;  // row vanished since the index read
    ScannedRow row;
    row.row = hit.base_row;
    row.cells = std::move(resp.cells);
    ProjectCells(projection, &row);
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace diffindex
