#include "core/diff_index_client.h"

#include <algorithm>
#include <iterator>

#include "query/engine.h"

namespace diffindex {

namespace {

// Exact match as a value range: v is the only encoded value in
// [v, v + 0x00).
std::string ExactMatchEnd(const std::string& value_encoded) {
  return value_encoded + '\0';
}

}  // namespace

DiffIndexClient::DiffIndexClient(std::shared_ptr<Client> client,
                                 OpStats* stats,
                                 const SessionOptions& session_options)
    : client_(std::move(client)),
      stats_(stats),
      sessions_(session_options),
      engine_(std::make_unique<ReadEngine>(this)),
      metrics_(client_->metrics()),
      traces_(client_->traces()) {}

DiffIndexClient::~DiffIndexClient() = default;

std::string DiffIndexClient::SchemeTag(const std::string& table) {
  {
    MutexLock lock(scheme_mu_);
    auto it = scheme_by_table_.find(table);
    if (it != scheme_by_table_.end()) return it->second;
  }
  // One catalog lookup per table outside the lock (it may RPC the master).
  CatalogSnapshot catalog = client_->catalog();
  const TableDescriptor* desc = catalog.GetTable(table);
  if (desc == nullptr) return "";  // not cached: the table may appear later
  std::string tag;
  if (!desc->indexes.empty()) tag = IndexSchemeName(desc->indexes[0].scheme);
  MutexLock lock(scheme_mu_);
  return scheme_by_table_.emplace(table, std::move(tag)).first->second;
}

obs::TraceContext DiffIndexClient::OpContext(const char* op,
                                             const std::string& table) {
  std::string scheme = SchemeTag(table);
  const obs::TraceContext& ambient = obs::CurrentTraceContext();
  if (ambient.active()) {
    obs::TraceContext child = ambient.Child();
    if (child.scheme.empty()) child.scheme = std::move(scheme);
    return child;
  }
  return obs::TraceContext::NewRoot(op, std::move(scheme));
}

Status DiffIndexClient::Put(const std::string& table, const std::string& row,
                            std::vector<Cell> cells) {
  obs::ScopedTraceContext scope(OpContext("put", table));
  obs::SpanTimer span(metrics_, traces_, "client.put");
  if (stats_ != nullptr) stats_->AddBasePut();
  return client_->Put(table, row, std::move(cells));
}

Status DiffIndexClient::PutColumn(const std::string& table,
                                  const std::string& row,
                                  const std::string& column,
                                  const std::string& value) {
  return Put(table, row, {Cell{column, value, false}});
}

Status DiffIndexClient::DeleteColumns(
    const std::string& table, const std::string& row,
    const std::vector<std::string>& columns) {
  obs::ScopedTraceContext scope(OpContext("delete_columns", table));
  obs::SpanTimer span(metrics_, traces_, "client.delete_columns");
  if (stats_ != nullptr) stats_->AddBasePut();
  return client_->DeleteColumns(table, row, columns);
}

Status DiffIndexClient::Get(const std::string& table, const std::string& row,
                            const std::string& column, std::string* value) {
  obs::ScopedTraceContext scope(OpContext("get", table));
  obs::SpanTimer span(metrics_, traces_, "client.get");
  if (stats_ != nullptr) stats_->AddBaseRead();
  return client_->GetCell(table, row, column, kMaxTimestamp, value);
}

Status DiffIndexClient::GetRow(const std::string& table,
                               const std::string& row,
                               GetRowResponse* resp) {
  obs::ScopedTraceContext scope(OpContext("get_row", table));
  obs::SpanTimer span(metrics_, traces_, "client.get_row");
  if (stats_ != nullptr) stats_->AddBaseRead();
  return client_->GetRow(table, row, kMaxTimestamp, resp);
}

Status DiffIndexClient::ReadByIndex(const std::string& table,
                                    const std::string& index_name,
                                    const std::string& value_lo_encoded,
                                    const std::string& value_hi_encoded,
                                    uint32_t limit, SessionId session,
                                    std::vector<IndexHit>* hits) {
  hits->clear();
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(engine_->FindIndex(table, index_name, &index));
  if (index.is_local) {
    return BroadcastLocalRead(index, table, IndexRangeStart(value_lo_encoded),
                              IndexRangeEnd(value_hi_encoded), limit, session,
                              hits);
  }
  ScanSpec spec;
  spec.table = table;
  spec.index_name = index_name;
  spec.value_lo_encoded = value_lo_encoded;
  spec.value_hi_encoded = value_hi_encoded;
  spec.limit = limit;
  ScanOptions options;
  // Legs run one after another on the calling thread: one walker per
  // read, and every thread a read uses stays under the model checker.
  options.max_parallel = 1;
  options.session = session;
  std::unique_ptr<IndexScanner> scanner;
  DIFFINDEX_RETURN_NOT_OK(engine_->NewScan(spec, options, &scanner));
  std::vector<IndexHit> page;
  while (!scanner->exhausted()) {
    DIFFINDEX_RETURN_NOT_OK(scanner->NextHits(&page));
    hits->insert(hits->end(), std::make_move_iterator(page.begin()),
                 std::make_move_iterator(page.end()));
  }
  return Status::OK();
}

Status DiffIndexClient::BroadcastLocalRead(const IndexDescriptor& index,
                                           const std::string& table,
                                           const std::string& start,
                                           const std::string& end,
                                           uint32_t limit, SessionId session,
                                           std::vector<IndexHit>* hits) {
  obs::SpanTimer span(metrics_, traces_, "index.broadcast_scan");
  if (stats_ != nullptr) stats_->AddIndexRead();
  std::vector<RawEntry> entries;
  DIFFINDEX_RETURN_NOT_OK(client_->ScanLocalIndex(
      table, index.name, start, end, kMaxTimestamp, limit, &entries));
  hits->reserve(entries.size());
  for (const auto& entry : entries) {
    IndexHit hit;
    if (!DecodeIndexRow(entry.key, &hit.value_encoded, &hit.base_row)) {
      return Status::Corruption("malformed local index row");
    }
    hit.ts = entry.ts;
    hits->push_back(std::move(hit));
  }
  // Per-region results arrive region by region; normalize the order.
  std::sort(hits->begin(), hits->end(),
            [](const IndexHit& a, const IndexHit& b) {
              if (a.value_encoded != b.value_encoded) {
                return a.value_encoded < b.value_encoded;
              }
              return a.base_row < b.base_row;
            });
  if (session == 0) return Status::OK();
  return sessions_.MergeHits(session, index.index_table, start, end, hits,
                             /*degraded=*/nullptr);
}

Status DiffIndexClient::GetByIndex(const std::string& table,
                                   const std::string& index_name,
                                   const std::string& value_encoded,
                                   std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("get_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.get_by_index");
  return ReadByIndex(table, index_name, value_encoded,
                     ExactMatchEnd(value_encoded), 0, 0, hits);
}

Status DiffIndexClient::RangeByIndex(const std::string& table,
                                     const std::string& index_name,
                                     const std::string& value_lo_encoded,
                                     const std::string& value_hi_encoded,
                                     uint32_t limit,
                                     std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("range_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.range_by_index");
  return ReadByIndex(table, index_name, value_lo_encoded, value_hi_encoded,
                     limit, 0, hits);
}

Status DiffIndexClient::QueryByIndex(const std::string& table,
                                     const std::string& index_name,
                                     const std::string& value_encoded,
                                     std::vector<ScannedRow>* rows) {
  obs::ScopedTraceContext scope(OpContext("query_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.query_by_index");
  rows->clear();
  std::vector<IndexHit> hits;
  DIFFINDEX_RETURN_NOT_OK(
      GetByIndex(table, index_name, value_encoded, &hits));
  return engine_->FetchRows(table, hits, /*projection=*/{}, rows);
}

SessionId DiffIndexClient::GetSession() { return sessions_.CreateSession(); }

void DiffIndexClient::EndSession(SessionId session) {
  sessions_.EndSession(session);
}

Status DiffIndexClient::SessionPut(SessionId session, const std::string& table,
                                   const std::string& row,
                                   std::vector<Cell> cells) {
  // The server returns the previous value of each written cell plus the
  // assigned timestamp; the client library mirrors the server-side index
  // mutations into the session's private tables (Section 5.2).
  obs::ScopedTraceContext scope(OpContext("session_put", table));
  obs::SpanTimer span(metrics_, traces_, "client.session_put");
  if (stats_ != nullptr) stats_->AddBasePut();
  PutResponse resp;
  DIFFINDEX_RETURN_NOT_OK(client_->Put(table, row, cells, /*ts=*/0,
                                       /*return_old_values=*/true, &resp));
  const Timestamp ts = resp.assigned_ts;

  CatalogSnapshot catalog = client_->catalog();
  const TableDescriptor* desc = catalog.GetTable(table);
  if (desc == nullptr) return Status::OK();

  // The put's own cells give each index column's new value and
  // resp.old_values its superseded one; a deleted or previously absent
  // column reads as NotFound.
  const IndexColumnReader read_new = [&cells](const std::string& column,
                                              std::string* raw_value) {
    for (const Cell& cell : cells) {
      if (cell.column != column) continue;
      if (cell.is_delete) break;
      *raw_value = cell.value;
      return Status::OK();
    }
    return Status::NotFound(column);
  };
  const IndexColumnReader read_old = [&resp](const std::string& column,
                                             std::string* raw_value) {
    for (const OldCellValue& old : resp.old_values) {
      if (old.column != column) continue;
      if (!old.found) break;
      *raw_value = old.value;
      return Status::OK();
    }
    return Status::NotFound(column);
  };
  const auto written = [&cells](const std::string& column) {
    return std::any_of(cells.begin(), cells.end(), [&column](const Cell& c) {
      return c.column == column;
    });
  };

  for (const IndexDescriptor& index : desc->indexes) {
    // Private tracking needs every component value client-side, so it is
    // maintained for indexes whose columns this put writes in full (all
    // single-column indexes on a written column qualify).
    const std::vector<std::string> columns = IndexColumns(index);
    if (!std::all_of(columns.begin(), columns.end(), written)) continue;

    // Same rule as the server: delete-marker for the superseded entry at
    // ts - δ, new entry at ts; a value that cannot be derived is no entry.
    std::string old_value;
    if (DeriveIndexValue(index, read_old, &old_value).ok()) {
      DIFFINDEX_RETURN_NOT_OK(sessions_.RecordEntry(
          session, index.index_table, EncodeIndexRow(old_value, row),
          ts - kDelta, /*is_delete=*/true));
    }
    std::string new_value;
    if (DeriveIndexValue(index, read_new, &new_value).ok()) {
      DIFFINDEX_RETURN_NOT_OK(sessions_.RecordEntry(
          session, index.index_table, EncodeIndexRow(new_value, row), ts,
          /*is_delete=*/false));
    }
  }
  return Status::OK();
}

Status DiffIndexClient::SessionGetByIndex(SessionId session,
                                          const std::string& table,
                                          const std::string& index_name,
                                          const std::string& value_encoded,
                                          std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("session_get_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.session_get_by_index");
  return ReadByIndex(table, index_name, value_encoded,
                     ExactMatchEnd(value_encoded), 0, session, hits);
}

Status DiffIndexClient::SessionRangeByIndex(
    SessionId session, const std::string& table,
    const std::string& index_name, const std::string& value_lo_encoded,
    const std::string& value_hi_encoded, std::vector<IndexHit>* hits) {
  obs::ScopedTraceContext scope(OpContext("session_range_by_index", table));
  obs::SpanTimer span(metrics_, traces_, "client.session_range_by_index");
  // No limit: a server-side limit would make the private-entry merge
  // ambiguous about what the cutoff hides.
  return ReadByIndex(table, index_name, value_lo_encoded, value_hi_encoded, 0,
                     session, hits);
}

}  // namespace diffindex
