#include "cluster/catalog.h"

namespace diffindex {

const char* IndexSchemeName(IndexScheme scheme) {
  switch (scheme) {
    case IndexScheme::kSyncFull:
      return "sync-full";
    case IndexScheme::kSyncInsert:
      return "sync-insert";
    case IndexScheme::kAsyncSimple:
      return "async-simple";
    case IndexScheme::kAsyncSession:
      return "async-session";
  }
  return "unknown";
}

std::string IndexTableNameFor(const std::string& base_table,
                              const std::string& index_name) {
  return "__idx_" + base_table + "_" + index_name;
}

IndexInfoWire ToWire(const IndexDescriptor& index) {
  IndexInfoWire wire;
  wire.name = index.name;
  wire.column = index.column;
  wire.scheme = static_cast<uint8_t>(index.scheme);
  wire.index_table = index.index_table;
  wire.extra_columns = index.extra_columns;
  wire.dense_field = index.dense_field;
  if (!index.dense_field.empty()) {
    index.dense_schema.EncodeTo(&wire.dense_schema);
  }
  wire.is_local = index.is_local;
  return wire;
}

IndexDescriptor FromWire(const IndexInfoWire& wire) {
  IndexDescriptor index;
  index.name = wire.name;
  index.column = wire.column;
  index.scheme = static_cast<IndexScheme>(wire.scheme);
  index.index_table = wire.index_table;
  index.extra_columns = wire.extra_columns;
  index.dense_field = wire.dense_field;
  if (!wire.dense_schema.empty()) {
    Slice in(wire.dense_schema);
    (void)DenseColumnSchema::DecodeFrom(&in, &index.dense_schema);
  }
  index.is_local = wire.is_local;
  return index;
}

Status IndexComponentFromCell(const IndexDescriptor& index,
                              const Slice& raw_value,
                              std::string* component) {
  if (index.dense_field.empty()) {
    *component = raw_value.ToString();
    return Status::OK();
  }
  DenseValue value;
  DIFFINDEX_RETURN_NOT_OK(
      index.dense_schema.GetField(raw_value, index.dense_field, &value));
  *component = DenseColumnSchema::EncodeFieldForIndex(value);
  return Status::OK();
}

TableInfoWire ToWire(const TableDescriptor& table) {
  TableInfoWire wire;
  wire.name = table.name;
  wire.is_index_table = table.is_index_table;
  for (const auto& index : table.indexes) {
    wire.indexes.push_back(ToWire(index));
  }
  return wire;
}

TableDescriptor FromWire(const TableInfoWire& wire) {
  TableDescriptor table;
  table.name = wire.name;
  table.is_index_table = wire.is_index_table;
  for (const auto& index : wire.indexes) {
    table.indexes.push_back(FromWire(index));
  }
  return table;
}

Status Catalog::AddTable(const TableDescriptor& table) {
  MutexLock lock(mu_);
  for (const auto& existing : tables_) {
    if (existing.name == table.name) {
      return Status::InvalidArgument("table exists: " + table.name);
    }
  }
  tables_.push_back(table);
  epoch_++;
  return Status::OK();
}

Status Catalog::AddIndex(const std::string& table,
                         const IndexDescriptor& index) {
  MutexLock lock(mu_);
  for (auto& existing : tables_) {
    if (existing.name != table) continue;
    for (const auto& idx : existing.indexes) {
      if (idx.name == index.name) {
        return Status::InvalidArgument("index exists: " + index.name);
      }
    }
    existing.indexes.push_back(index);
    epoch_++;
    return Status::OK();
  }
  return Status::NotFound("no such table: " + table);
}

Status Catalog::DropIndex(const std::string& table,
                          const std::string& index_name) {
  MutexLock lock(mu_);
  for (auto& existing : tables_) {
    if (existing.name != table) continue;
    for (auto it = existing.indexes.begin(); it != existing.indexes.end();
         ++it) {
      if (it->name == index_name) {
        existing.indexes.erase(it);
        epoch_++;
        return Status::OK();
      }
    }
    return Status::NotFound("no such index: " + index_name);
  }
  return Status::NotFound("no such table: " + table);
}

Status Catalog::SetIndexScheme(const std::string& table,
                               const std::string& index_name,
                               IndexScheme scheme) {
  MutexLock lock(mu_);
  for (auto& existing : tables_) {
    if (existing.name != table) continue;
    for (auto& index : existing.indexes) {
      if (index.name == index_name) {
        index.scheme = scheme;
        epoch_++;
        return Status::OK();
      }
    }
    return Status::NotFound("no such index: " + index_name);
  }
  return Status::NotFound("no such table: " + table);
}

std::optional<TableDescriptor> Catalog::GetTable(
    const std::string& name) const {
  MutexLock lock(mu_);
  for (const auto& table : tables_) {
    if (table.name == name) return table;
  }
  return std::nullopt;
}

std::vector<TableDescriptor> Catalog::ListTables() const {
  MutexLock lock(mu_);
  return tables_;
}

uint64_t Catalog::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

Status CatalogSnapshot::FindIndex(const std::string& table,
                                  const std::string& index_name,
                                  IndexDescriptor* index) const {
  const TableDescriptor* desc = GetTable(table);
  if (desc == nullptr) return Status::NotFound("no such table: " + table);
  for (const auto& candidate : desc->indexes) {
    if (candidate.name == index_name) {
      *index = candidate;
      return Status::OK();
    }
  }
  return Status::NotFound("no such index: " + index_name + " on " + table);
}

}  // namespace diffindex
