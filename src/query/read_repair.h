// Read-repair for sync-insert index reads (Algorithm 2's
// double-check-and-clean), in two flavors:
//
//   BatchedRepairHits — the one the library runs, per read-engine page:
//     all verification reads of a page grouped into per-server MultiGet
//     batches (one RPC per base region instead of K round trips), and
//     all stale-entry tombstones shipped as one MultiPutBatch.
//   SequentialRepairHits — the reference: one GetCell round trip per
//     (hit, column), Algorithm 2 written out literally.
//
// Both classify identically: a hit survives iff its base row still
// carries the indexed value the entry advertises; stale entries are
// removed from `hits` and best-effort deleted from the index table at
// the entry's own timestamp (a tombstone there cannot mask any newer
// entry). The only difference is RPC count — proven by the twin-cluster
// test in tests/query/read_equivalence_test.cc.

#ifndef DIFFINDEX_QUERY_READ_REPAIR_H_
#define DIFFINDEX_QUERY_READ_REPAIR_H_

#include <string>
#include <vector>

#include "cluster/client.h"
#include "core/index_codec.h"
#include "core/op_stats.h"

namespace diffindex {

// Per-server-batched double-check of `hits` against the base table.
// Exports query.repair.checked / query.repair.deleted counters and the
// query.repair.batch_size histogram; every verification read counts
// toward query.base_reads. stats may be null.
Status BatchedRepairHits(Client* client, OpStats* stats,
                         const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits);

// Unbatched reference with the same metrics: one GetCell per (hit,
// column), early-out on the first missing column, one Put per stale
// entry.
Status SequentialRepairHits(Client* client, OpStats* stats,
                            const std::string& base_table,
                            const IndexDescriptor& index,
                            std::vector<IndexHit>* hits);

}  // namespace diffindex

#endif  // DIFFINDEX_QUERY_READ_REPAIR_H_
