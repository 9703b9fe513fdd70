// Client library: caches a copy of the partition map and routes requests
// to the region server serving the key (Section 2.2). On WrongRegion,
// Unavailable or ResourceExhausted errors it refreshes the map from the
// master and retries under one policy (Client::Retry) — this is how the
// cluster keeps serving through region reassignment after a server
// failure.
//
// The same class doubles as the *internal* client that Diff-Index's
// server-side observers use to deliver index puts/deletes to the (remote)
// index regions.

#ifndef DIFFINDEX_CLUSTER_CLIENT_H_
#define DIFFINDEX_CLUSTER_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "net/fabric.h"
#include "net/message.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace diffindex {

struct ClientOptions {
  int max_retries = 8;
  // Retry sleeps grow exponentially from retry_backoff_ms (attempt 1)
  // doubling up to retry_backoff_max_ms, with seeded jitter drawing each
  // sleep uniformly from [cap/2, cap] — the standard defense against
  // retry storms synchronizing against a recovering server.
  int retry_backoff_ms = 2;
  int retry_backoff_max_ms = 64;
  // Seed for the jitter PRNG; 0 derives one from the client's node id so
  // distinct clients desynchronize by default.
  uint64_t retry_jitter_seed = 0;
  // Observability sinks (either may be null); also inherited by the
  // DiffIndexClient / ReadEngine built on top of this client. Exports
  // counters `client.retries` (every retry sleep, read-engine page
  // retries included) and `client.retry_exhausted` (gave up after
  // max_retries).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceCollector* traces = nullptr;
};

class Client {
 public:
  Client(Fabric* fabric, NodeId self_node,
         const ClientOptions& options = ClientOptions());

  // ---- Data plane ----

  // ts == 0: server assigns. resp may be null.
  Status Put(const std::string& table, const std::string& row,
             std::vector<Cell> cells, Timestamp ts = 0,
             bool return_old_values = false, PutResponse* resp = nullptr);

  Status PutColumn(const std::string& table, const std::string& row,
                   const std::string& column, const std::string& value);

  struct RowPut {
    std::string row;
    std::vector<Cell> cells;
  };
  // Batched write of one table: MultiPutBatch over one PutRequest per row
  // (the "client buffer" path of Section 8.1). Per-row atomicity only.
  Status MultiPut(const std::string& table, std::vector<RowPut> puts);

  // Cross-table batched write: each request carries its own table and
  // (typically explicit) timestamp; requests are grouped by owning server
  // and shipped as one multi-put RPC per server. Used by the batched APS
  // drain to deliver one coalesced batch's PI/DI entries — which span
  // multiple index tables — in as few round trips as the layout allows.
  // Per-row atomicity only; callers retry the whole batch on error
  // (idempotent with explicit timestamps).
  Status MultiPutBatch(std::vector<PutRequest> puts);

  Status DeleteColumns(const std::string& table, const std::string& row,
                       const std::vector<std::string>& columns,
                       Timestamp ts = 0);

  Status GetCell(const std::string& table, const std::string& row,
                 const std::string& column, Timestamp read_ts,
                 std::string* value, Timestamp* version_ts = nullptr);

  // Batched cell reads: groups keys by owning region server and ships one
  // multi-get RPC per server (the read-repair verification path of the
  // query engine). `entries` comes back parallel to `keys`; a missing
  // cell is found=false, not an error. The whole batch is retried under
  // Retry (reads are idempotent).
  Status MultiGet(const std::string& table,
                  const std::vector<MultiGetKey>& keys, Timestamp read_ts,
                  std::vector<MultiGetEntry>* entries);

  // One scatter-gather leg of a paged index scan: scans a single region
  // of `index_table`, addressed by region id. No retry here — the query
  // engine retries the whole page through Retry.
  Status IndexScanRegion(const std::string& index_table,
                         const RegionInfoWire& region,
                         const std::string& start_key,
                         const std::string& end_key, Timestamp read_ts,
                         uint32_t limit, IndexScanResponse* resp);

  Status GetRow(const std::string& table, const std::string& row,
                Timestamp read_ts, GetRowResponse* resp);

  // Scans [start_row, end_row) across region boundaries; limit 0 =
  // unlimited.
  Status ScanRows(const std::string& table, const std::string& start_row,
                  const std::string& end_row, Timestamp read_ts,
                  uint32_t limit, std::vector<ScannedRow>* rows);

  // Local-index query (Section 3.1): broadcasts the scan to EVERY region
  // of the base table and merges the per-region results — the cost
  // profile that makes local indexes poor for highly selective queries.
  Status ScanLocalIndex(const std::string& table,
                        const std::string& index_name,
                        const std::string& start_key,
                        const std::string& end_key, Timestamp read_ts,
                        uint32_t limit, std::vector<RawEntry>* entries);

  // ---- Admin helpers (tests and benchmarks) ----

  Status FlushTable(const std::string& table);
  Status CompactTable(const std::string& table);

  // ---- Layout ----

  Status RefreshLayout();
  CatalogSnapshot catalog();
  // Region hosting `row`, from the cached layout.
  Status RouteRow(const std::string& table, const Slice& row,
                  RegionInfoWire* info);
  std::vector<RegionInfoWire> TableRegions(const std::string& table);

  // ---- Retry ----

  // The one retry policy of every retrying call (Section 5.3's
  // retry-on-reroute): the routed RPCs, the batched RPCs, the local-index
  // broadcast and the read engine's pages. `attempt(&route_failed)` makes
  // one try and returns its status; it sets route_failed when it could
  // not route under the cached layout. Attempt 0 runs at once; before each
  // later one the loop backs off (jittered, counted in client.retries)
  // and refreshes the layout. A failed refresh or a routing failure uses
  // the attempt up, since the layout may be stale; WrongRegion,
  // Unavailable and ResourceExhausted from the call are retried, and any
  // other status is returned as it is. After max_retries retries the loop
  // counts client.retry_exhausted and returns the last status. The
  // attempt is passed by reference, so no callable is allocated per call.
  template <typename Attempt>
  Status Retry(const Attempt& attempt) {
    return RetryLoop(&attempt, [](const void* fn, bool* route_failed) {
      return (*static_cast<const Attempt*>(fn))(route_failed);
    });
  }

  NodeId self_node() const { return self_node_; }
  uint64_t layout_refreshes() const { return layout_refreshes_; }
  obs::MetricsRegistry* metrics() const { return options_.metrics; }
  obs::TraceCollector* traces() const { return options_.traces; }

 private:
  // Sends to the server owning (table, row) under Retry.
  Status CallRegion(const std::string& table, const Slice& row, MsgType type,
                    const std::string& body, std::string* response);

  // Retry's loop; `run(fn, &route_failed)` makes one try with the
  // attempt callable behind `fn`.
  Status RetryLoop(const void* fn,
                   Status (*run)(const void* fn, bool* route_failed));

  Status EnsureLayoutLocked() REQUIRES(mu_);

  // Sleeps for the capped-exponential + jittered backoff of `attempt`
  // (1-based) and counts the retry.
  void BackoffBeforeRetry(int attempt);
  // Counts a retry loop that ran out of attempts.
  void CountRetryExhausted();

  Fabric* const fabric_;
  const NodeId self_node_;
  const ClientOptions options_;

  // Separate lock for the jitter PRNG: backoff sleeps must not hold mu_,
  // or a retrying call would block concurrent routing lookups.
  Mutex backoff_mu_;
  Random backoff_rng_ GUARDED_BY(backoff_mu_);

  Mutex mu_;
  bool layout_valid_ GUARDED_BY(mu_) = false;
  CatalogSnapshot catalog_ GUARDED_BY(mu_);
  std::vector<RegionInfoWire> regions_
      GUARDED_BY(mu_);  // sorted by (table, start_row)
  uint64_t layout_refreshes_ GUARDED_BY(mu_) = 0;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CLUSTER_CLIENT_H_
