#include "net/message.h"

#include "util/coding.h"

namespace diffindex {

namespace {

void PutString(std::string* out, const std::string& s) {
  PutLengthPrefixedSlice(out, s);
}

bool GetString(Slice* in, std::string* s) {
  return GetLengthPrefixedString(in, s);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPut:
      return "put";
    case MsgType::kGetCell:
      return "get_cell";
    case MsgType::kGetRow:
      return "get_row";
    case MsgType::kScanRows:
      return "scan_rows";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kFetchLayout:
      return "fetch_layout";
    case MsgType::kFlushRegion:
      return "flush_region";
    case MsgType::kCompactRegion:
      return "compact_region";
    case MsgType::kLocalIndexScan:
      return "local_index_scan";
    case MsgType::kMultiPut:
      return "multi_put";
    case MsgType::kMultiGet:
      return "multi_get";
    case MsgType::kIndexScan:
      return "index_scan";
  }
  return "unknown";
}

std::string EncodeCellKey(const Slice& row, const Slice& column) {
  std::string key;
  key.reserve(row.size() + 1 + column.size());
  key.append(row.data(), row.size());
  key.push_back(kCellSeparator);
  key.append(column.data(), column.size());
  return key;
}

bool DecodeCellKey(const Slice& cell_key, std::string* row,
                   std::string* column) {
  for (size_t i = 0; i < cell_key.size(); i++) {
    if (cell_key[i] == kCellSeparator) {
      row->assign(cell_key.data(), i);
      column->assign(cell_key.data() + i + 1, cell_key.size() - i - 1);
      return true;
    }
  }
  return false;
}

// ---- PutRequest ----

void PutRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutString(out, row);
  PutVarint32(out, static_cast<uint32_t>(cells.size()));
  for (const Cell& cell : cells) {
    PutString(out, cell.column);
    PutString(out, cell.value);
    out->push_back(cell.is_delete ? 1 : 0);
  }
  PutFixed64(out, ts);
  out->push_back(return_old_values ? 1 : 0);
}

bool PutRequest::DecodeFrom(Slice* in, PutRequest* req) {
  uint32_t n;
  if (!GetString(in, &req->table) || !GetString(in, &req->row) ||
      !GetVarint32(in, &n)) {
    return false;
  }
  req->cells.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetString(in, &req->cells[i].column) ||
        !GetString(in, &req->cells[i].value) || in->empty()) {
      return false;
    }
    req->cells[i].is_delete = (*in)[0] != 0;
    in->remove_prefix(1);
  }
  if (!GetFixed64(in, &req->ts) || in->empty()) return false;
  req->return_old_values = (*in)[0] != 0;
  in->remove_prefix(1);
  return true;
}

// ---- PutResponse ----

void PutResponse::EncodeTo(std::string* out) const {
  PutFixed64(out, assigned_ts);
  PutVarint32(out, static_cast<uint32_t>(old_values.size()));
  for (const OldCellValue& old : old_values) {
    PutString(out, old.column);
    out->push_back(old.found ? 1 : 0);
    PutString(out, old.value);
    PutFixed64(out, old.ts);
  }
}

bool PutResponse::DecodeFrom(Slice* in, PutResponse* resp) {
  uint32_t n;
  if (!GetFixed64(in, &resp->assigned_ts) || !GetVarint32(in, &n)) {
    return false;
  }
  resp->old_values.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    OldCellValue& old = resp->old_values[i];
    if (!GetString(in, &old.column) || in->empty()) return false;
    old.found = (*in)[0] != 0;
    in->remove_prefix(1);
    if (!GetString(in, &old.value) || !GetFixed64(in, &old.ts)) return false;
  }
  return true;
}

// ---- GetCell ----

void GetCellRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutString(out, row);
  PutString(out, column);
  PutFixed64(out, read_ts);
}

bool GetCellRequest::DecodeFrom(Slice* in, GetCellRequest* req) {
  return GetString(in, &req->table) && GetString(in, &req->row) &&
         GetString(in, &req->column) && GetFixed64(in, &req->read_ts);
}

void GetCellResponse::EncodeTo(std::string* out) const {
  out->push_back(found ? 1 : 0);
  PutString(out, value);
  PutFixed64(out, ts);
}

bool GetCellResponse::DecodeFrom(Slice* in, GetCellResponse* resp) {
  if (in->empty()) return false;
  resp->found = (*in)[0] != 0;
  in->remove_prefix(1);
  return GetString(in, &resp->value) && GetFixed64(in, &resp->ts);
}

// ---- GetRow ----

void GetRowRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutString(out, row);
  PutFixed64(out, read_ts);
}

bool GetRowRequest::DecodeFrom(Slice* in, GetRowRequest* req) {
  return GetString(in, &req->table) && GetString(in, &req->row) &&
         GetFixed64(in, &req->read_ts);
}

namespace {

void EncodeRowCells(std::string* out, const std::vector<RowCell>& cells) {
  PutVarint32(out, static_cast<uint32_t>(cells.size()));
  for (const RowCell& cell : cells) {
    PutLengthPrefixedSlice(out, cell.column);
    PutLengthPrefixedSlice(out, cell.value);
    PutFixed64(out, cell.ts);
  }
}

bool DecodeRowCells(Slice* in, std::vector<RowCell>* cells) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  cells->resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetLengthPrefixedString(in, &(*cells)[i].column) ||
        !GetLengthPrefixedString(in, &(*cells)[i].value) ||
        !GetFixed64(in, &(*cells)[i].ts)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void GetRowResponse::EncodeTo(std::string* out) const {
  out->push_back(found ? 1 : 0);
  EncodeRowCells(out, cells);
}

bool GetRowResponse::DecodeFrom(Slice* in, GetRowResponse* resp) {
  if (in->empty()) return false;
  resp->found = (*in)[0] != 0;
  in->remove_prefix(1);
  return DecodeRowCells(in, &resp->cells);
}

// ---- ScanRows ----

void ScanRowsRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutString(out, start_row);
  PutString(out, end_row);
  PutFixed64(out, read_ts);
  PutVarint32(out, limit_rows);
}

bool ScanRowsRequest::DecodeFrom(Slice* in, ScanRowsRequest* req) {
  return GetString(in, &req->table) && GetString(in, &req->start_row) &&
         GetString(in, &req->end_row) && GetFixed64(in, &req->read_ts) &&
         GetVarint32(in, &req->limit_rows);
}

void ScanRowsResponse::EncodeTo(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(rows.size()));
  for (const ScannedRow& row : rows) {
    PutLengthPrefixedSlice(out, row.row);
    EncodeRowCells(out, row.cells);
  }
}

bool ScanRowsResponse::DecodeFrom(Slice* in, ScanRowsResponse* resp) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  resp->rows.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetLengthPrefixedString(in, &resp->rows[i].row) ||
        !DecodeRowCells(in, &resp->rows[i].cells)) {
      return false;
    }
  }
  return true;
}

// ---- RawScanResponse ----

void RawScanResponse::EncodeTo(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(entries.size()));
  for (const RawEntry& entry : entries) {
    PutLengthPrefixedSlice(out, entry.key);
    PutLengthPrefixedSlice(out, entry.value);
    PutFixed64(out, entry.ts);
  }
}

bool RawScanResponse::DecodeFrom(Slice* in, RawScanResponse* resp) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  resp->entries.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetLengthPrefixedString(in, &resp->entries[i].key) ||
        !GetLengthPrefixedString(in, &resp->entries[i].value) ||
        !GetFixed64(in, &resp->entries[i].ts)) {
      return false;
    }
  }
  return true;
}

// ---- Cluster management ----

void HeartbeatRequest::EncodeTo(std::string* out) const {
  PutVarint32(out, server_id);
  PutVarint64(out, auq_depth);
}

bool HeartbeatRequest::DecodeFrom(Slice* in, HeartbeatRequest* req) {
  return GetVarint32(in, &req->server_id) &&
         GetVarint64(in, &req->auq_depth);
}

void RegionInfoWire::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutVarint64(out, region_id);
  PutString(out, start_row);
  PutString(out, end_row);
  PutVarint32(out, server_id);
}

bool RegionInfoWire::DecodeFrom(Slice* in, RegionInfoWire* info) {
  return GetString(in, &info->table) && GetVarint64(in, &info->region_id) &&
         GetString(in, &info->start_row) && GetString(in, &info->end_row) &&
         GetVarint32(in, &info->server_id);
}

void IndexInfoWire::EncodeTo(std::string* out) const {
  PutString(out, name);
  PutString(out, column);
  out->push_back(static_cast<char>(scheme));
  PutString(out, index_table);
  PutVarint32(out, static_cast<uint32_t>(extra_columns.size()));
  for (const auto& c : extra_columns) PutString(out, c);
  PutString(out, dense_field);
  PutString(out, dense_schema);
  out->push_back(is_local ? 1 : 0);
}

bool IndexInfoWire::DecodeFrom(Slice* in, IndexInfoWire* info) {
  if (!GetString(in, &info->name) || !GetString(in, &info->column) ||
      in->empty()) {
    return false;
  }
  info->scheme = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  uint32_t n;
  if (!GetString(in, &info->index_table) || !GetVarint32(in, &n)) {
    return false;
  }
  info->extra_columns.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetString(in, &info->extra_columns[i])) return false;
  }
  if (!GetString(in, &info->dense_field) ||
      !GetString(in, &info->dense_schema) || in->empty()) {
    return false;
  }
  info->is_local = (*in)[0] != 0;
  in->remove_prefix(1);
  return true;
}

void TableInfoWire::EncodeTo(std::string* out) const {
  PutString(out, name);
  out->push_back(is_index_table ? 1 : 0);
  PutVarint32(out, static_cast<uint32_t>(indexes.size()));
  for (const auto& index : indexes) index.EncodeTo(out);
}

bool TableInfoWire::DecodeFrom(Slice* in, TableInfoWire* info) {
  if (!GetString(in, &info->name) || in->empty()) return false;
  info->is_index_table = (*in)[0] != 0;
  in->remove_prefix(1);
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  info->indexes.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!IndexInfoWire::DecodeFrom(in, &info->indexes[i])) return false;
  }
  return true;
}

void FetchLayoutResponse::EncodeTo(std::string* out) const {
  PutVarint64(out, layout_epoch);
  PutVarint32(out, static_cast<uint32_t>(tables.size()));
  for (const auto& table : tables) table.EncodeTo(out);
  PutVarint32(out, static_cast<uint32_t>(regions.size()));
  for (const auto& region : regions) region.EncodeTo(out);
}

bool FetchLayoutResponse::DecodeFrom(Slice* in, FetchLayoutResponse* resp) {
  uint32_t n;
  if (!GetVarint64(in, &resp->layout_epoch) || !GetVarint32(in, &n)) {
    return false;
  }
  resp->tables.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!TableInfoWire::DecodeFrom(in, &resp->tables[i])) return false;
  }
  if (!GetVarint32(in, &n)) return false;
  resp->regions.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!RegionInfoWire::DecodeFrom(in, &resp->regions[i])) return false;
  }
  return true;
}

void RegionAdminRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutVarint64(out, region_id);
}

bool RegionAdminRequest::DecodeFrom(Slice* in, RegionAdminRequest* req) {
  return GetString(in, &req->table) && GetVarint64(in, &req->region_id);
}

void MultiPutRequest::EncodeTo(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(puts.size()));
  for (const PutRequest& put : puts) put.EncodeTo(out);
}

bool MultiPutRequest::DecodeFrom(Slice* in, MultiPutRequest* req) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  req->puts.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!PutRequest::DecodeFrom(in, &req->puts[i])) return false;
  }
  return true;
}

void MultiPutResponse::EncodeTo(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(assigned_ts.size()));
  for (Timestamp ts : assigned_ts) PutFixed64(out, ts);
}

bool MultiPutResponse::DecodeFrom(Slice* in, MultiPutResponse* resp) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  resp->assigned_ts.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetFixed64(in, &resp->assigned_ts[i])) return false;
  }
  return true;
}

void LocalIndexScanRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutVarint64(out, region_id);
  PutString(out, index_name);
  PutString(out, start_key);
  PutString(out, end_key);
  PutFixed64(out, read_ts);
  PutVarint32(out, limit);
}

bool LocalIndexScanRequest::DecodeFrom(Slice* in,
                                       LocalIndexScanRequest* req) {
  return GetString(in, &req->table) && GetVarint64(in, &req->region_id) &&
         GetString(in, &req->index_name) && GetString(in, &req->start_key) &&
         GetString(in, &req->end_key) && GetFixed64(in, &req->read_ts) &&
         GetVarint32(in, &req->limit);
}

void MultiGetRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutFixed64(out, read_ts);
  PutVarint32(out, static_cast<uint32_t>(keys.size()));
  for (const MultiGetKey& key : keys) {
    PutString(out, key.row);
    PutString(out, key.column);
  }
}

bool MultiGetRequest::DecodeFrom(Slice* in, MultiGetRequest* req) {
  uint32_t n;
  if (!GetString(in, &req->table) || !GetFixed64(in, &req->read_ts) ||
      !GetVarint32(in, &n)) {
    return false;
  }
  req->keys.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetString(in, &req->keys[i].row) ||
        !GetString(in, &req->keys[i].column)) {
      return false;
    }
  }
  return true;
}

void MultiGetResponse::EncodeTo(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(entries.size()));
  for (const MultiGetEntry& entry : entries) {
    out->push_back(entry.found ? 1 : 0);
    PutString(out, entry.value);
    PutFixed64(out, entry.ts);
  }
}

bool MultiGetResponse::DecodeFrom(Slice* in, MultiGetResponse* resp) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  resp->entries.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    MultiGetEntry& entry = resp->entries[i];
    if (in->empty()) return false;
    entry.found = (*in)[0] != 0;
    in->remove_prefix(1);
    if (!GetString(in, &entry.value) || !GetFixed64(in, &entry.ts)) {
      return false;
    }
  }
  return true;
}

void IndexScanRequest::EncodeTo(std::string* out) const {
  PutString(out, table);
  PutVarint64(out, region_id);
  PutString(out, start_key);
  PutString(out, end_key);
  PutFixed64(out, read_ts);
  PutVarint32(out, limit);
}

bool IndexScanRequest::DecodeFrom(Slice* in, IndexScanRequest* req) {
  return GetString(in, &req->table) && GetVarint64(in, &req->region_id) &&
         GetString(in, &req->start_key) && GetString(in, &req->end_key) &&
         GetFixed64(in, &req->read_ts) && GetVarint32(in, &req->limit);
}

void IndexScanResponse::EncodeTo(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(entries.size()));
  for (const RawEntry& entry : entries) {
    PutLengthPrefixedSlice(out, entry.key);
    PutLengthPrefixedSlice(out, entry.value);
    PutFixed64(out, entry.ts);
  }
  out->push_back(more ? 1 : 0);
  PutString(out, resume_key);
}

bool IndexScanResponse::DecodeFrom(Slice* in, IndexScanResponse* resp) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  resp->entries.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetLengthPrefixedString(in, &resp->entries[i].key) ||
        !GetLengthPrefixedString(in, &resp->entries[i].value) ||
        !GetFixed64(in, &resp->entries[i].ts)) {
      return false;
    }
  }
  if (in->empty()) return false;
  resp->more = (*in)[0] != 0;
  in->remove_prefix(1);
  return GetString(in, &resp->resume_key);
}

}  // namespace diffindex
