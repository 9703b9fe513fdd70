// Catalog: table and index metadata. The master owns the authoritative
// copy (the paper keeps it in the Big SQL catalog plus the HBase table
// descriptor); clients and region servers work from fetched snapshots.

#ifndef DIFFINDEX_CLUSTER_CATALOG_H_
#define DIFFINDEX_CLUSTER_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dense_column.h"
#include "net/message.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffindex {

// The spectrum of index maintenance schemes (Figure 4), chosen per index.
enum class IndexScheme : uint8_t {
  kSyncFull = 0,    // causal consistent (Algorithm 1)
  kSyncInsert = 1,  // causal with read-repair (Algorithm 2)
  kAsyncSimple = 2, // eventual, via AUQ/APS (Algorithms 3-4)
  kAsyncSession = 3 // async-simple + client session cache (read-your-write)
};

const char* IndexSchemeName(IndexScheme scheme);

struct IndexDescriptor {
  std::string name;
  // The indexed column. With extra_columns non-empty this is the leading
  // component of a composite index.
  std::string column;
  IndexScheme scheme = IndexScheme::kSyncFull;
  std::vector<std::string> extra_columns;
  // Dense-column indexing (Section 7): when dense_field is non-empty, the
  // indexed column holds a dense-encoded cell and the index key is built
  // from this field of it, extracted via dense_schema.
  std::string dense_field;
  DenseColumnSchema dense_schema;
  // Local index (Section 3.1): entries co-locate with their base region
  // — updates never leave the region server (fast) but a query must be
  // broadcast to every region (costly for selective queries). Local
  // indexes are always maintained synchronously (like Huawei's hindex,
  // the paper's local-only comparison point); `scheme` is ignored.
  bool is_local = false;
  // Name of the backing key-only table ("__idx_<table>_<name>"); filled by
  // the master at CREATE INDEX time. Empty for local indexes.
  std::string index_table;
};

// Computes the index component contributed by the primary indexed
// column's raw cell value, applying dense-field extraction when the index
// is configured for it. NotFound when a dense cell lacks the field.
Status IndexComponentFromCell(const IndexDescriptor& index,
                              const Slice& raw_value,
                              std::string* component);

struct TableDescriptor {
  std::string name;
  bool is_index_table = false;
  std::vector<IndexDescriptor> indexes;
};

std::string IndexTableNameFor(const std::string& base_table,
                              const std::string& index_name);

IndexInfoWire ToWire(const IndexDescriptor& index);
IndexDescriptor FromWire(const IndexInfoWire& wire);
TableInfoWire ToWire(const TableDescriptor& table);
TableDescriptor FromWire(const TableInfoWire& wire);

class Catalog {
 public:
  Status AddTable(const TableDescriptor& table);
  Status AddIndex(const std::string& table, const IndexDescriptor& index);
  Status DropIndex(const std::string& table, const std::string& index_name);
  // Live scheme change (schemes are read per put from catalog snapshots,
  // so the switch governs all subsequent maintenance).
  Status SetIndexScheme(const std::string& table,
                        const std::string& index_name, IndexScheme scheme);

  std::optional<TableDescriptor> GetTable(const std::string& name) const;
  std::vector<TableDescriptor> ListTables() const;

  uint64_t epoch() const;

 private:
  mutable Mutex mu_;
  // epoch_ bumps on every mutation so servers can cheaply detect a stale
  // pushed snapshot.
  std::vector<TableDescriptor> tables_ GUARDED_BY(mu_);
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
};

// Client/server-side immutable snapshot with fast lookups.
class CatalogSnapshot {
 public:
  CatalogSnapshot() = default;
  explicit CatalogSnapshot(std::vector<TableDescriptor> tables)
      : tables_(std::move(tables)) {}

  const TableDescriptor* GetTable(const std::string& name) const {
    for (const auto& table : tables_) {
      if (table.name == name) return &table;
    }
    return nullptr;
  }
  // Copies the descriptor of `index_name` on `table` into *index;
  // NotFound when either is missing.
  Status FindIndex(const std::string& table, const std::string& index_name,
                   IndexDescriptor* index) const;
  const std::vector<TableDescriptor>& tables() const { return tables_; }

 private:
  std::vector<TableDescriptor> tables_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CLUSTER_CATALOG_H_
