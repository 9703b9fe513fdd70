#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "core/diff_index_client.h"
#include "core/index_codec.h"

namespace diffindex {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

const char* WorkloadOpName(WorkloadOp op) {
  switch (op) {
    case WorkloadOp::kUpdateTitle:
      return "update_title";
    case WorkloadOp::kUpdateFullRow:
      return "update_full_row";
    case WorkloadOp::kReadIndexExact:
      return "read_index_exact";
    case WorkloadOp::kRangeIndexPrice:
      return "range_index_price";
  }
  return "unknown";
}

}  // namespace

Status WorkloadRunner::LoadItems(int load_threads) {
  const uint64_t n = items_->options().num_items;
  versions_ = std::vector<std::atomic<uint64_t>>(n);
  for (auto& v : versions_) v.store(0, std::memory_order_relaxed);

  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(load_threads);
  for (int t = 0; t < load_threads; t++) {
    threads.emplace_back([this, t, n, &next, &failed] {
      auto client = cluster_->NewClient();
      Random rng(options_.seed * 1000 + t);
      for (;;) {
        const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
        if (id >= n || failed.load(std::memory_order_relaxed)) return;
        Status s = client->Put(items_->options().table, items_->RowKey(id),
                               items_->MakeRow(id, 0, &rng));
        if (!s.ok()) failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed.load()) return Status::Aborted("load failed");
  return Status::OK();
}

Status WorkloadRunner::RunWith(const RunnerOptions& options,
                               RunnerResult* result) {
  if (versions_.empty()) {
    versions_ = std::vector<std::atomic<uint64_t>>(
        items_->options().num_items);
    for (auto& v : versions_) v.store(0, std::memory_order_relaxed);
  }
  issued_.store(0);
  stop_.store(false);

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  std::vector<RunnerResult> partials(options.threads);
  for (int t = 0; t < options.threads; t++) {
    threads.emplace_back([this, &options, t, &partials] {
      WorkerLoop(options, t, &partials[t]);
    });
  }
  if (options.max_duration_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.max_duration_ms));
    stop_.store(true);
  }
  for (auto& t : threads) t.join();

  result->operations = 0;
  result->errors = 0;
  for (auto& partial : partials) {
    result->operations += partial.operations;
    result->errors += partial.errors;
    result->latency->Merge(*partial.latency);
  }
  result->elapsed_seconds =
      static_cast<double>(MicrosSince(start)) / 1e6;
  result->tps = result->elapsed_seconds > 0
                    ? static_cast<double>(result->operations) /
                          result->elapsed_seconds
                    : 0;
  return Status::OK();
}

Status WorkloadRunner::ExecuteOneOp(uint64_t id,
                                    const RunnerOptions& options,
                                    DiffIndexClient* client, Random* rng) {
  switch (options.op) {
    case WorkloadOp::kUpdateTitle: {
      const uint64_t version =
          versions_[id].fetch_add(1, std::memory_order_relaxed) + 1;
      recency_.fetch_add(1, std::memory_order_relaxed);
      return client->Put(items_->options().table, items_->RowKey(id),
                         {Cell{ItemTable::kTitleColumn,
                               items_->TitleValue(id, version), false}});
    }
    case WorkloadOp::kUpdateFullRow: {
      const uint64_t version =
          versions_[id].fetch_add(1, std::memory_order_relaxed) + 1;
      recency_.fetch_add(1, std::memory_order_relaxed);
      return client->Put(items_->options().table, items_->RowKey(id),
                         items_->MakeRow(id, version, rng));
    }
    case WorkloadOp::kReadIndexExact: {
      const uint64_t version =
          versions_[id].load(std::memory_order_relaxed);
      std::vector<IndexHit> hits;
      return client->GetByIndex(items_->options().table,
                                ItemTable::kTitleIndex,
                                items_->TitleValue(id, version), &hits);
    }
    case WorkloadOp::kRangeIndexPrice: {
      const uint64_t domain = items_->options().price_domain;
      const uint64_t width = std::min(options.price_range_width, domain);
      const uint64_t lo = rng->Uniform(domain - width + 1);
      std::vector<IndexHit> hits;
      return client->RangeByIndex(items_->options().table,
                                  ItemTable::kPriceIndex,
                                  EncodeUint64IndexValue(lo),
                                  EncodeUint64IndexValue(lo + width), 0,
                                  &hits);
    }
  }
  return Status::InvalidArgument("unknown workload op");
}

void WorkloadRunner::WorkerLoop(const RunnerOptions& options,
                                int worker_id, RunnerResult* result) {
  DiffIndexClient client(cluster_->NewClient(), cluster_->stats());
  // Per-op latencies also land in the cluster registry; instruments are
  // resolved once per worker (the loop body stays lock-free).
  Histogram* const op_hist = cluster_->metrics()->GetHistogram(
      std::string("workload.") + WorkloadOpName(options.op) + "_micros");
  obs::Counter* const op_errors = cluster_->metrics()->GetCounter(
      std::string("workload.") + WorkloadOpName(options.op) + ".errors");
  KeyChooserParams chooser_params;
  chooser_params.recency = &recency_;
  auto chooser =
      KeyChooser::Create(options.distribution,
                         items_->options().num_items,
                         options.seed * 7919 + worker_id, chooser_params);
  Random rng(options.seed * 104729 + worker_id);

  // Pacing: each worker owns an equal slice of the target rate.
  const double per_thread_tps =
      options.target_tps > 0
          ? options.target_tps / options.threads
          : 0;
  const uint64_t pace_interval_micros =
      per_thread_tps > 0 ? static_cast<uint64_t>(1e6 / per_thread_tps) : 0;
  const auto start = Clock::now();
  uint64_t local_ops = 0;

  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (options.total_operations > 0 &&
        issued_.fetch_add(1, std::memory_order_relaxed) >=
            options.total_operations) {
      break;
    }
    if (pace_interval_micros > 0) {
      const uint64_t due = local_ops * pace_interval_micros;
      uint64_t now = MicrosSince(start);
      while (now < due && !stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(std::min<uint64_t>(due - now, 1000)));
        now = MicrosSince(start);
      }
    }

    const uint64_t id = chooser->Next();
    const auto op_start = Clock::now();
    Status s = ExecuteOneOp(id, options, &client, &rng);
    const uint64_t latency_micros = MicrosSince(op_start);
    result->latency->Add(latency_micros);
    op_hist->Add(latency_micros);
    result->operations++;
    local_ops++;
    if (!s.ok()) {
      result->errors++;
      op_errors->Add();
    }
  }
}

}  // namespace diffindex
