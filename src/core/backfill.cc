#include "core/backfill.h"

#include <algorithm>

#include "core/index_codec.h"
#include "query/read_repair.h"

namespace diffindex {

namespace {

// The index value a scanned base row carries (DeriveIndexValue over its
// cells) and the newest timestamp among the cells it used.
Status DeriveFromRow(const IndexDescriptor& index, const ScannedRow& row,
                     std::string* value_encoded, Timestamp* ts) {
  *ts = 0;
  return DeriveIndexValue(
      index,
      [&](const std::string& column, std::string* raw) {
        for (const RowCell& cell : row.cells) {
          if (cell.column != column) continue;
          *raw = cell.value;
          *ts = std::max(*ts, cell.ts);
          return Status::OK();
        }
        return Status::NotFound("index column absent");
      },
      value_encoded);
}

// Decodes a page of index-table rows into hits at each entry's own
// timestamp; returns how many rows were undecodable.
uint64_t DecodeEntries(const std::vector<ScannedRow>& rows,
                       std::vector<IndexHit>* hits) {
  uint64_t undecodable = 0;
  for (const ScannedRow& entry : rows) {
    IndexHit hit;
    if (!DecodeIndexRow(entry.row, &hit.value_encoded, &hit.base_row)) {
      undecodable++;
      continue;
    }
    hit.ts = entry.cells.empty() ? 0 : entry.cells[0].ts;
    hits->push_back(std::move(hit));
  }
  return undecodable;
}

}  // namespace

Status IndexBackfill::Run(const std::string& base_table,
                          const std::string& index_name,
                          BackfillReport* report) {
  *report = BackfillReport{};
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(
      client_->catalog().FindIndex(base_table, index_name, &index));

  std::string cursor;  // "" = table start
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(base_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) return Status::OK();

    for (const ScannedRow& row : rows) {
      report->rows_scanned++;
      std::string value_encoded;
      Timestamp entry_ts = 0;
      if (!DeriveFromRow(index, row, &value_encoded, &entry_ts).ok()) {
        report->rows_skipped++;
        continue;
      }
      const std::string index_row = EncodeIndexRow(value_encoded, row.row);
      if (stats_ != nullptr) stats_->AddIndexPut();
      // Entry carries the base cell's own timestamp: a concurrent normal
      // update (newer ts) wins over the backfill, never the reverse.
      DIFFINDEX_RETURN_NOT_OK(client_->Put(
          index.index_table, index_row, {Cell{"", "", false}}, entry_ts));
      report->entries_written++;
    }
    cursor = rows.back().row + '\x01';  // next possible row key
  }
}

Status IndexBackfill::Verify(const std::string& base_table,
                             const std::string& index_name,
                             VerifyReport* report) {
  *report = VerifyReport{};
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(
      client_->catalog().FindIndex(base_table, index_name, &index));
  if (index.is_local) {
    return Status::NotSupported(
        "verify targets global indexes (local indexes are rebuilt from "
        "base data on open and cannot drift persistently)");
  }

  // Direction 1: every index entry points at a base row that still
  // carries the entry's value (the read-repair classifier, one MultiGet
  // per owning server per page). An undecodable entry counts as stale.
  std::string cursor;
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(index.index_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) break;
    report->entries_scanned += rows.size();
    std::vector<IndexHit> hits;
    report->stale_entries += DecodeEntries(rows, &hits);
    std::vector<IndexHit> stale;
    DIFFINDEX_RETURN_NOT_OK(
        ClassifyIndexHits(client_.get(), base_table, index, &hits, &stale));
    report->stale_entries += stale.size();
    cursor = rows.back().row + '\x01';
  }

  // Direction 2: every base row with the indexed column(s) has its entry.
  cursor.clear();
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(base_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) break;
    for (const ScannedRow& row : rows) {
      report->rows_scanned++;
      std::string value_encoded;
      Timestamp ts = 0;
      if (!DeriveFromRow(index, row, &value_encoded, &ts).ok()) {
        continue;  // nothing to index for this row
      }
      const std::string index_row = EncodeIndexRow(value_encoded, row.row);
      GetRowResponse entry;
      DIFFINDEX_RETURN_NOT_OK(client_->GetRow(index.index_table, index_row,
                                              kMaxTimestamp, &entry));
      if (!entry.found) report->missing_entries++;
    }
    cursor = rows.back().row + '\x01';
  }
  return Status::OK();
}

Status IndexBackfill::Cleanse(const std::string& base_table,
                              const std::string& index_name,
                              CleanseReport* report) {
  *report = CleanseReport{};
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(
      client_->catalog().FindIndex(base_table, index_name, &index));
  const size_t columns = IndexColumns(index).size();

  // Per page: decode, classify (the read-repair classifier), then retract
  // every stale entry at its own timestamp in one MultiPutBatch.
  // Undecodable rows are left alone.
  std::string cursor;
  for (;;) {
    std::vector<ScannedRow> rows;
    DIFFINDEX_RETURN_NOT_OK(client_->ScanRows(index.index_table, cursor, "",
                                              kMaxTimestamp, kScanBatch,
                                              &rows));
    if (rows.empty()) return Status::OK();
    report->entries_scanned += rows.size();
    std::vector<IndexHit> hits;
    DecodeEntries(rows, &hits);
    const size_t reads = hits.size() * columns;
    std::vector<IndexHit> stale;
    DIFFINDEX_RETURN_NOT_OK(
        ClassifyIndexHits(client_.get(), base_table, index, &hits, &stale));
    if (stats_ != nullptr) {
      for (size_t i = 0; i < reads; i++) stats_->AddBaseRead();
    }
    if (!stale.empty()) {
      std::vector<PutRequest> tombstones;
      tombstones.reserve(stale.size());
      for (const IndexHit& hit : stale) {
        if (stats_ != nullptr) stats_->AddIndexPut();
        tombstones.push_back(StaleEntryTombstone(index, hit));
      }
      // Unlike read-repair, a failed ship fails the sweep.
      DIFFINDEX_RETURN_NOT_OK(client_->MultiPutBatch(std::move(tombstones)));
      report->stale_removed += stale.size();
    }
    cursor = rows.back().row + '\x01';
  }
}

}  // namespace diffindex
