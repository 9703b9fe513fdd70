#include "query/read_repair.h"

#include <utility>

#include "check/yield.h"
#include "obs/trace.h"

namespace diffindex {

Status ClassifyIndexHits(Client* client, const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits,
                         std::vector<IndexHit>* stale) {
  if (hits->empty()) return Status::OK();
  const std::vector<std::string> columns = IndexColumns(index);

  // One flat key list; Client::MultiGet groups it into one RPC per
  // owning server.
  std::vector<MultiGetKey> keys;
  keys.reserve(hits->size() * columns.size());
  for (const auto& hit : *hits) {
    for (const auto& column : columns) {
      keys.push_back(MultiGetKey{hit.base_row, column});
    }
  }
  std::vector<MultiGetEntry> entries;
  DIFFINDEX_RETURN_NOT_OK(
      client->MultiGet(base_table, keys, kMaxTimestamp, &entries));

  // Classify everything before moving any hit, so an error leaves
  // `*hits` untouched.
  std::vector<bool> live(hits->size());
  for (size_t i = 0; i < hits->size(); i++) {
    // DeriveIndexValue reads IndexColumns order, the order of `keys`.
    size_t next = i * columns.size();
    std::string current;
    Status s = DeriveIndexValue(
        index,
        [&](const std::string&, std::string* raw) {
          const MultiGetEntry& entry = entries[next++];
          if (!entry.found) return Status::NotFound("index column absent");
          *raw = entry.value;
          return Status::OK();
        },
        &current);
    if (!s.ok() && !s.IsNotFound()) return s;
    live[i] = s.ok() && current == (*hits)[i].value_encoded;
  }
  std::vector<IndexHit> verified;
  verified.reserve(hits->size());
  for (size_t i = 0; i < hits->size(); i++) {
    (live[i] ? verified : *stale).push_back(std::move((*hits)[i]));
  }
  *hits = std::move(verified);
  return Status::OK();
}

PutRequest StaleEntryTombstone(const IndexDescriptor& index,
                               const IndexHit& hit) {
  PutRequest del;
  del.table = index.index_table;
  del.row = EncodeIndexRow(hit.value_encoded, hit.base_row);
  del.cells.push_back(Cell{"", "", /*is_delete=*/true});
  del.ts = hit.ts;
  return del;
}

Status BatchedRepairHits(Client* client, OpStats* stats,
                         const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits) {
  if (hits->empty()) return Status::OK();
  obs::MetricsRegistry* metrics = client->metrics();
  obs::SpanTimer span(metrics, client->traces(), "query.repair");

  const size_t checked = hits->size();
  const size_t reads = checked * IndexColumns(index).size();
  std::vector<IndexHit> stale;
  DIFFINDEX_RETURN_NOT_OK(
      ClassifyIndexHits(client, base_table, index, hits, &stale));
  if (stats != nullptr) {
    for (size_t i = 0; i < reads; i++) stats->AddBaseRead();
    for (size_t i = 0; i < stale.size(); i++) stats->AddIndexPut();
  }
  if (metrics != nullptr) {
    metrics->GetCounter("query.base_reads")->Add(reads);
    metrics->GetCounter("query.repair.checked")->Add(checked);
    metrics->GetHistogram("query.repair.batch_size")->Add(reads);
    if (!stale.empty()) {
      metrics->GetCounter("query.repair.deleted")->Add(stale.size());
    }
  }
  if (stale.empty()) return Status::OK();

  std::vector<PutRequest> tombstones;
  tombstones.reserve(stale.size());
  for (const IndexHit& hit : stale) {
    tombstones.push_back(StaleEntryTombstone(index, hit));
  }
  CHECK_YIELD("query.repair");
  // Best-effort, like the sequential path: a failed delete leaves the
  // entry stale for a later read to repair.
  client->MultiPutBatch(std::move(tombstones)).IgnoreError();
  return Status::OK();
}

Status SequentialRepairHits(Client* client, OpStats* stats,
                            const std::string& base_table,
                            const IndexDescriptor& index,
                            std::vector<IndexHit>* hits) {
  if (hits->empty()) return Status::OK();
  obs::MetricsRegistry* metrics = client->metrics();
  obs::SpanTimer span(metrics, client->traces(), "query.repair");

  std::vector<IndexHit> verified;
  verified.reserve(hits->size());
  for (IndexHit& hit : *hits) {
    if (metrics != nullptr) {
      metrics->GetCounter("query.repair.checked")->Add();
    }
    std::string current;
    Status s = DeriveIndexValue(
        index,
        [&](const std::string& column, std::string* raw) {
          if (stats != nullptr) stats->AddBaseRead();
          if (metrics != nullptr) {
            metrics->GetCounter("query.base_reads")->Add();
          }
          return client->GetCell(base_table, hit.base_row, column,
                                 kMaxTimestamp, raw);
        },
        &current);
    if (!s.ok() && !s.IsNotFound()) return s;
    if (s.ok() && current == hit.value_encoded) {
      verified.push_back(std::move(hit));
      continue;
    }
    if (metrics != nullptr) {
      metrics->GetCounter("query.repair.deleted")->Add();
    }
    if (stats != nullptr) stats->AddIndexPut();
    const PutRequest del = StaleEntryTombstone(index, hit);
    // Best-effort, like the batched path above: a failed delete leaves
    // the stale entry for a later read to repair.
    client->Put(del.table, del.row, del.cells, del.ts).IgnoreError();
  }
  *hits = std::move(verified);
  return Status::OK();
}

}  // namespace diffindex
