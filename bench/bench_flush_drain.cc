// Section 5.3, "Low performance impact of the recovery protocol": the
// draining-AUQ-before-flush constraint "will slightly delay flush when the
// system is under a heavy write load. We show in Section 8 that in
// practice, this delay is reasonable."
//
// This bench drives a heavy async-indexed write load with small memtables
// (frequent flushes) and reports how much put-side stall the pause &
// drain protocol induced, compared against a no-index run with identical
// flush pressure. The indexed run is measured at drain_batch_size=1 and
// >1; both run the APS's one drain loop (Section 11 of DESIGN.md). At 1
// each drain is a batch of one delivered with per-task index puts; at 8
// a drain pops up to eight tasks and delivers their index puts as one
// multi-put per region server. Coalescing happens only when tasks for the
// same row meet in one drain, which this uniform-key load rarely causes,
// so `coalesced` is printed rather than assumed. Every printed counter is
// the registry delta of the measured phase, the same delta as the
// point's --metrics-json entry (preload excluded).

#include <chrono>

#include "bench_common.h"

namespace diffindex::bench {
namespace {

void RunPoint(const char* label, bool with_index, int drain_batch_size,
              MetricsJsonWriter* metrics_out) {
  EnvOptions env_options;
  env_options.scheme = IndexScheme::kAsyncSimple;
  env_options.with_title_index = with_index;
  env_options.num_items = 4000;
  env_options.settle_to_disk = false;
  ApplySmoke(&env_options);

  RunnerOptions runner_options;
  runner_options.op = WorkloadOp::kUpdateFullRow;
  runner_options.threads = 8;
  runner_options.total_operations = 4000;
  runner_options.seed = 47;
  ApplySmoke(&runner_options);

  ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  cluster_options.regions_per_table = 8;
  cluster_options.latency.scale = 1.0;
  // Small memtables: flush roughly every few hundred puts per region.
  cluster_options.server.lsm.memtable_flush_bytes = 128 << 10;
  cluster_options.auq.drain_batch_size = drain_batch_size;
  ApplySmoke(&cluster_options);

  BenchEnv env;
  {
    std::unique_ptr<Cluster> cluster;
    Status s = Cluster::Create(cluster_options, &cluster);
    if (!s.ok()) {
      printf("setup failed: %s\n", s.ToString().c_str());
      return;
    }
    env.cluster = std::move(cluster);
  }
  ItemTableOptions item_options;
  item_options.num_items = env_options.num_items;
  item_options.title_scheme = IndexScheme::kAsyncSimple;
  item_options.create_title_index = with_index;
  item_options.create_price_index = false;
  env.items = std::make_unique<ItemTable>(env.cluster.get(), item_options);
  if (!env.items->Create().ok()) return;
  env.runner = std::make_unique<WorkloadRunner>(env.cluster.get(),
                                                env.items.get(),
                                                runner_options);
  if (!env.runner->LoadItems(env_options.load_threads).ok()) return;
  env.baseline = env.cluster->metrics()->Snapshot();

  RunnerResult result;
  if (!env.runner->Run(&result).ok()) return;
  // Tail drain: how long the AUQ backlog takes to empty once the offered
  // load stops — the direct beneficiary of the coalescing batched drain.
  const auto drain_start = std::chrono::steady_clock::now();
  WaitQuiescent(env.cluster.get());
  const double drain_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - drain_start)
              .count()) /
      1000.0;

  const obs::MetricsSnapshot delta =
      env.cluster->metrics()->Snapshot().Delta(env.baseline);
  auto counter = [&delta](const char* name) -> uint64_t {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  };
  const uint64_t flushes = counter("rs.flush");
  const uint64_t coalesced = counter("auq.coalesced");
  auto stall_it = delta.histograms.find("rs.flush_stall_micros");
  const uint64_t stall =
      stall_it == delta.histograms.end() ? 0 : stall_it->second.sum;
  printf("%-14s tps=%7.0f avg=%6.0fus p99=%7lluus  flushes=%4llu  "
         "put-stall: total=%7llu us (%6.0f us/flush, %4.1f us/op)  "
         "tail-drain=%6.1fms  coalesced=%llu\n",
         label, result.tps, result.latency->Average(),
         static_cast<unsigned long long>(result.latency->Percentile(99)),
         static_cast<unsigned long long>(flushes),
         static_cast<unsigned long long>(stall),
         flushes > 0 ? static_cast<double>(stall) / flushes : 0.0,
         result.operations > 0
             ? static_cast<double>(stall) / result.operations
             : 0.0,
         drain_ms, static_cast<unsigned long long>(coalesced));
  metrics_out->AddPoint(label, env.cluster.get(), env.baseline);
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  MetricsJsonWriter metrics_out(args.metrics_json);
  PrintHeader("Drain-AUQ-before-flush: put stall under heavy write load",
              "Tan et al., EDBT 2014, Section 5.3 (Figure 5 protocol)");
  RunPoint("no-index", false, 1, &metrics_out);
  RunPoint("async drain=1", true, 1, &metrics_out);
  RunPoint("async drain=8", true, 8, &metrics_out);
  printf("\nExpected shape: the async runs add stall versus no-index (puts\n");
  printf("briefly blocked while the AUQ drains before each flush), but\n");
  printf("the per-op amortized delay stays small — the paper's 'this\n");
  printf("delay is reasonable'. The drain=8 run measures batched\n");
  printf("multi-put delivery: one RPC per server per drained batch.\n");
  printf("Tasks coalesce only when same-row tasks meet in one drain, so\n");
  printf("`coalesced` may stay 0 under this uniform-key load.\n");
  return metrics_out.Write() ? 0 : 1;
}
