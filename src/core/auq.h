// AUQ + APS (Section 5.1): the asynchronous update queue buffers index
// maintenance work so a base put can be acknowledged as soon as it is
// logged and enqueued; the asynchronous processing service drains the
// queue in the background (BA1-BA4 of Algorithm 4).
//
// The queue also backs the failure-handling of the *sync* schemes: a
// failed PI/RB/DI is enqueued here and retried until it succeeds, which is
// how causal consistency degrades to eventual instead of failing the base
// put (Section 6.2).
//
// Flush coordination (Section 5.3, Figure 5): Pause() blocks new Enqueue
// calls; WaitDrained() returns once the queue is empty and no task is
// mid-flight, establishing PR(Flushed) = ∅ before the memtable flush and
// WAL roll-forward.

#ifndef DIFFINDEX_CORE_AUQ_H_
#define DIFFINDEX_CORE_AUQ_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timestamp_oracle.h"

namespace diffindex {

// One unit of index maintenance: apply index updates for one (row,
// column-set) base mutation against one index.
struct IndexTask {
  std::string base_table;
  std::string row;
  // New values of the index's components as written by the base put
  // (empty + deleted=true for a column delete). Values not in the put are
  // resolved by the processor from the base table.
  std::vector<Cell> cells;
  Timestamp ts = 0;
  // The RB/DI anchor of the base put this task was created for: the old
  // value is read and its entry deleted at old_ts - δ. Creation sites set
  // old_ts = ts; 0 means "unset" (a directly constructed task), treated
  // as ts.
  Timestamp old_ts = 0;
  // old_ts of every task coalesced into this one. The processor replays
  // the RB/DI retraction at EACH covered point in addition to old_ts: an
  // absorbed task's index entry may already exist (crash replay
  // re-enqueues already-delivered puts; a lost-response retry may have
  // applied server-side), so collapsing to a single point would leave
  // phantom entries behind.
  std::vector<Timestamp> covered_old_ts;
  IndexDescriptor index;
  int attempts = 0;
  // Number of tasks coalesced INTO this one (0 for a plain task). The
  // survivor accounts for 1 + absorbed tasks in processed counts and the
  // depth gauge, so `processed == accepted` stays exact under batching.
  int absorbed = 0;
  // Trace of the base put that spawned this task (inactive if untraced),
  // so the APS drain span chains to the client's request.
  obs::TraceContext trace;
};

// What Enqueue does when the queue already holds max_depth tasks (§5's
// queue-bounding discussion). Only applies when max_depth > 0.
enum class AuqOverflowPolicy {
  // Block the enqueuing put until the APS frees capacity — the original
  // max_depth behavior. Backpressure surfaces as put latency; no index
  // update is ever dropped, so the final index state is byte-identical to
  // an unbounded queue (the scheme-equivalence suite pins this).
  kBlock,
  // Move the overflowing task straight to the dead-letter list (counter
  // `auq.shed`, gauge `auq.dead_letters`) and ack the put. The base write
  // stays acked; the index update waits for an operator / Cleanse repair.
  kShedToDeadLetter,
  // Accept the task beyond max_depth without blocking: the bound degrades
  // to plain asynchronous eventual delivery (counter `auq.degraded`).
  // Convergence is unchanged — every task is still delivered.
  kDegradeToAsync,
};

struct AuqOptions {
  int worker_threads = 2;
  // Retry backoff for failed tasks: attempt n waits min(n, 8) * this.
  int retry_backoff_ms = 2;
  // Sampling rate for the index-staleness probe (Figure 11): 1 sample per
  // `staleness_sample_every` tasks; 0 disables.
  int staleness_sample_every = 1000;
  // Queue capacity; what happens when it is reached is overflow_policy's
  // call (kBlock = the historical blocking behavior). 0 = unbounded.
  size_t max_depth = 0;
  AuqOverflowPolicy overflow_policy = AuqOverflowPolicy::kBlock;
  // Artificial delay before each drain unit (one task at the default
  // drain_batch_size) is processed — a test/bench knob that
  // throttles the APS to magnify index staleness (Figure 11's saturated
  // regime on demand).
  int process_delay_ms = 0;
  // Poison-task escape hatch: after this many failed attempts a task moves
  // to the dead-letter list (gauge `auq.dead_letters`, accessor
  // DrainDeadLetters()) instead of retrying again — e.g. a task whose
  // index descriptor was dropped mid-flight would otherwise spin forever.
  // 0 = retry forever, preserving the paper's eventual-delivery semantics.
  int max_attempts = 0;
  // Drain unit size: a worker dequeues up to this many tasks at once and
  // coalesces same-(index, row) tasks to the newest timestamp. Above 1
  // the survivors go to the batch processor in one call; 1 (default) is
  // a batch of one, no coalescing, delivered through the per-task
  // processor. Exports histogram `auq.batch_size` (every drain) and
  // counter `auq.coalesced`.
  int drain_batch_size = 1;
  // Observability sinks; either may be null. Exports gauge `auq.depth`,
  // counters `auq.enqueued/processed/retries`, histograms
  // `auq.task_micros` (processing time of one drain unit),
  // `auq.staleness_micros`, and `span.aps.task.<scheme>` spans chained to
  // the base put's trace.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceCollector* traces = nullptr;
};

class AsyncUpdateQueue {
 public:
  // The processor performs BA2-BA4 for one task; a non-OK return puts the
  // task back for retry.
  using Processor = std::function<Status(const IndexTask& task)>;
  // Batched form: performs BA2-BA4 for a coalesced batch, filling one
  // status per task. Used only when drain_batch_size > 1; without it (or
  // at 1), each survivor goes through one Processor call.
  using BatchProcessor = std::function<void(const std::vector<IndexTask>& tasks,
                                            std::vector<Status>* statuses)>;

  AsyncUpdateQueue(const AuqOptions& options, Processor processor,
                   BatchProcessor batch_processor = nullptr);
  ~AsyncUpdateQueue();

  AsyncUpdateQueue(const AsyncUpdateQueue&) = delete;
  AsyncUpdateQueue& operator=(const AsyncUpdateQueue&) = delete;

  // Blocks while the queue is paused (or full). Returns false after
  // Shutdown.
  bool Enqueue(IndexTask task) EXCLUDES(mu_);

  // Flush protocol. Pause/Resume nest (two regions may flush at once).
  void Pause() EXCLUDES(mu_);
  void Resume() EXCLUDES(mu_);
  // Waits until the queue is empty and no worker holds a task.
  void WaitDrained() EXCLUDES(mu_);

  // Graceful: workers finish the queued backlog, then exit.
  void Shutdown();
  // Crash semantics: queued and in-flight tasks are dropped, not delivered
  // — exactly what a real server crash does to its AUQ. Recovery re-creates
  // the lost tasks from WAL replay (Section 5.3). Also squares the shared
  // `auq.depth` gauge so post-crash snapshots don't count ghost tasks.
  void Abandon();

  // Removes and returns all dead-lettered tasks (see
  // AuqOptions::max_attempts).
  std::vector<IndexTask> DrainDeadLetters() EXCLUDES(mu_);
  size_t dead_letters() const EXCLUDES(mu_);

  size_t depth() const EXCLUDES(mu_);
  // Queued backlog only (depth() minus in-flight). Under kBlock the
  // enqueue predicate caps the deque at max_depth entries, so this stays
  // <= max_depth on the failure-free path (a failure-requeued coalesced
  // survivor re-enters counting 1 + absorbed); workers may additionally
  // hold up to worker_threads * drain_batch_size tasks in flight.
  size_t queued_depth() const EXCLUDES(mu_);
  uint64_t processed() const;
  uint64_t retries() const;

  // Staleness probe: distribution of (index visible) - (base ts), in
  // microseconds — the T2 - T1 time-lag of Figure 11.
  const Histogram& staleness() const { return staleness_; }

 private:
  void WorkerLoop();
  void ShutdownInternal(bool abandon);
  // Processes one dequeued batch end to end (coalesce, deliver, account);
  // the caller already incremented in_flight_ by the batch's task count.
  void ProcessBatch(std::vector<IndexTask> batch);
  // Tasks represented by the queued backlog, counting coalesced-away ones
  // (sum of 1 + absorbed) — the number the depth gauge tracks.
  size_t QueuedTaskCountLocked() const REQUIRES(mu_);

  const AuqOptions options_;
  const Processor processor_;
  const BatchProcessor batch_processor_;

  // mu_ guards the whole queue state machine; the three CondVars wake the
  // three waiter populations. The drain-barrier invariant (§5.3):
  // WaitDrained returns only when queue_ is empty AND in_flight_ == 0,
  // both read under mu_ — a task is never outside both.
  // Acquired under a region's flush gate only (PostApply's Enqueue and
  // PreFlush's Pause/WaitDrained run while the caller holds the gate);
  // never held across a call that takes another ranked lock. The
  // ACQUIRED_AFTER + LockRank pair feeds the analyzer's lock-order rules
  // and the runtime validator (util/lock_order.h).
  mutable Mutex mu_ ACQUIRED_AFTER(flush_gate_){LockRank::kAuqMu, "auq.mu_"};
  CondVar intake_cv_;   // waiting to enqueue (pause/full)
  CondVar work_cv_;     // workers waiting for tasks
  CondVar drained_cv_;  // flushers waiting for drain
  std::deque<IndexTask> queue_ GUARDED_BY(mu_);
  std::vector<IndexTask> dead_letters_ GUARDED_BY(mu_);
  int paused_ GUARDED_BY(mu_) = 0;
  int in_flight_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  bool abandoned_ GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
  std::atomic<uint64_t> processed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> task_counter_{0};
  Histogram staleness_;

  // Cached registry instruments (null when options_.metrics is null) —
  // resolved once in the constructor to keep the hot path lock-free.
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* dead_letter_gauge_ = nullptr;
  obs::Counter* dead_letters_lost_counter_ = nullptr;
  obs::Counter* enqueued_counter_ = nullptr;
  obs::Counter* processed_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* coalesced_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* degraded_counter_ = nullptr;
  Histogram* task_micros_hist_ = nullptr;
  Histogram* staleness_hist_ = nullptr;
  Histogram* batch_size_hist_ = nullptr;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_AUQ_H_
