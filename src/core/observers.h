// The Diff-Index coprocessors (Section 7): SyncFullObserver,
// SyncInsertObserver and AsyncObserver, dispatched per index by the
// IndexManager that each region server installs as its maintenance hooks.
//
//   sync-full   (Algorithm 1): SU2 put new index entry @ ts;
//               SU3 read old base value @ ts-δ; SU4 delete old entry @ ts-δ.
//   sync-insert: SU2 only; stale entries are repaired at read time
//               (query/read_repair.h).
//   async-*    (Algorithm 3): enqueue to the AUQ; the APS performs
//               BA2 read old @ ts-δ, BA3 delete old @ ts-δ,
//               BA4 put new @ ts (Algorithm 4).
//
// Failed synchronous operations are pushed into the AUQ for retry, so the
// base put still succeeds and the index converges eventually (Section 6.2).
//
// Invariant enforced everywhere: an index entry carries the SAME timestamp
// as the base entry that produced it — the whole concurrency-control and
// recovery story depends on it (Section 4.3).

#ifndef DIFFINDEX_CORE_OBSERVERS_H_
#define DIFFINDEX_CORE_OBSERVERS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/region_server.h"
#include "core/auq.h"
#include "core/op_stats.h"

namespace diffindex {

class IndexManager final : public IndexMaintenanceHooks {
 public:
  // `server` hosts the base regions (local reads); `internal_client`
  // routes index puts/deletes to the index regions (remote calls). `stats`
  // may be null.
  IndexManager(RegionServer* server, std::shared_ptr<Client> internal_client,
               OpStats* stats, const AuqOptions& auq_options);
  ~IndexManager() override;

  // ---- IndexMaintenanceHooks ----
  Status PostApply(const PutRequest& put, Timestamp ts) override;
  void PreFlush(const std::string& table) override;
  void PostFlush(const std::string& table) override;
  void OnWalReplay(const PutRequest& put, Timestamp ts) override;
  void OnRegionOpened(const std::string& table, uint64_t region_id) override;
  uint64_t QueueDepth() const override;

  AsyncUpdateQueue* auq() { return auq_.get(); }

  // Graceful: drains the AUQ backlog before stopping.
  void Shutdown();
  // Crash semantics: drops the AUQ backlog (see AsyncUpdateQueue::Abandon).
  void Abandon();

 private:
  // Applies one task synchronously (shared by the sync schemes'
  // foreground and the per-task APS backend): StageTask, then one
  // Client::Put per staged op, in order — per-op index RPCs, as Table 2
  // counts them. `insert_only` limits it to SU2 (sync-insert);
  // `foreground` selects the stats bucket.
  Status ProcessTask(const IndexTask& task, bool insert_only,
                     bool foreground);

  // Batched APS backend (drain_batch_size > 1): StageTask per task, then
  // every staged op ships grouped by owning server in one multi-put RPC
  // per server (Client::MultiPutBatch). One status per task; a transport
  // failure fails every task that staged work — the retried delivery is
  // idempotent under the same-timestamp rule.
  void ProcessTaskBatch(const std::vector<IndexTask>& tasks,
                        std::vector<Status>* statuses);

  // The one home of Algorithms 1/4: resolves the new value at task.ts
  // and, unless `insert_only`, the old value at every RetractionPoints
  // anchor's old_ts - δ, then appends the PI (at ts) and DI (at
  // old_ts - δ) mutations to `ops`. Every value is resolved before
  // anything is staged, and an error stages nothing.
  Status StageTask(const IndexTask& task, bool insert_only, bool foreground,
                   std::vector<PutRequest>* ops);

  // Resolves the index's value at `read_ts` through DeriveIndexValue
  // (values present in `task.cells` win — they are the just-written ones
  // at task.ts). On OK, `*out` is nullopt iff there is no index entry (a
  // component absent, a dense field missing). A failed base read (node
  // down, injected I/O error, ...) returns its error instead of
  // masquerading as "absent": the caller must retry, or a missed
  // old-entry delete would leave a phantom forever.
  Status ResolveIndexValue(const IndexTask& task, Timestamp read_ts,
                           bool use_task_cells, bool foreground,
                           std::optional<std::string>* out);
  // The RB step: one base cell at `read_ts`, local first, routed when
  // the region has moved. NotFound when absent.
  Status ReadBaseCell(const IndexTask& task, const std::string& column,
                      Timestamp read_ts, bool foreground, std::string* value);

  // True if the put touches any component of the index.
  static bool Touches(const IndexDescriptor& index,
                      const std::vector<Cell>& cells);

  // Append one PI / DI mutation to `ops`, after counting it in the
  // `foreground` (or async) stats bucket and consulting the `index.put`
  // / `index.delete` failpoint — at staging, before anything ships.
  Status StagePutIndexEntry(const std::string& index_table,
                            const std::string& index_row, Timestamp ts,
                            bool foreground, std::vector<PutRequest>* ops);
  Status StageDeleteIndexEntry(const std::string& index_table,
                               const std::string& index_row, Timestamp ts,
                               bool foreground,
                               std::vector<PutRequest>* ops);
  Status StageIndexEntry(const std::string& index_table,
                         const std::string& index_row, Timestamp ts,
                         bool is_delete, bool foreground,
                         std::vector<PutRequest>* ops);

  // Local-index (Section 3.1) maintenance: all operations stay on this
  // server — the old-value read is local and the entry writes go to the
  // region's co-located side tree. Always synchronous.
  Status ProcessLocalTask(const IndexTask& task);

  RegionServer* const server_;
  std::shared_ptr<Client> internal_client_;
  OpStats* const stats_;
  std::unique_ptr<AsyncUpdateQueue> auq_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_OBSERVERS_H_
