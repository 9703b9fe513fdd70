// Figure 11: index staleness under async-simple — the distribution of the
// time-lag T2 - T1 between a base entry persisting (T1 = its timestamp)
// and its index updates completing in the AUQ (T2), sampled per task,
// under increasing transaction rates.
//
// Expected shape: at modest load most entries are indexed within a few
// milliseconds (paper: <100 ms); as offered load approaches saturation
// the AUQ backs up and the tail explodes by orders of magnitude.

#include "bench_common.h"
#include "obs/staleness_probe.h"

namespace diffindex::bench {
namespace {

void RunPoint(double target_tps, int threads,
              MetricsJsonWriter* metrics_out) {
  EnvOptions env_options;
  env_options.scheme = IndexScheme::kAsyncSimple;
  env_options.num_items = 12000;

  RunnerOptions runner_options;
  runner_options.op = WorkloadOp::kUpdateTitle;
  runner_options.threads = threads;
  runner_options.target_tps = target_tps;
  runner_options.total_operations = 0;
  runner_options.max_duration_ms = 4000;
  runner_options.seed = 37 + threads;

  BenchEnv env;
  Status s = MakeLoadedEnv(env_options, runner_options, &env);
  if (!s.ok()) {
    printf("setup failed: %s\n", s.ToString().c_str());
    return;
  }
  // End-to-end staleness observer: runs alongside the workload, writing
  // sentinel rows and timing until the index shows them.
  auto probe_client = env.cluster->NewDiffIndexClient();
  obs::StalenessProbeOptions probe_options;
  probe_options.table = env.items->options().table;
  probe_options.index_name = ItemTable::kTitleIndex;
  probe_options.column = ItemTable::kTitleColumn;
  probe_options.period_ms = 50;
  obs::StalenessProbe probe(probe_client.get(), env.cluster->metrics(),
                            probe_options);
  (void)probe.Start();

  RunnerResult result;
  s = env.runner->Run(&result);
  if (!s.ok()) {
    printf("run failed: %s\n", s.ToString().c_str());
    return;
  }
  probe.Stop();
  WaitQuiescent(env.cluster.get());

  Histogram staleness;
  env.cluster->AggregateStaleness(&staleness);
  printf("target=%6.0ftps achieved=%6.0ftps  staleness: p50=%8.2fms  "
         "p95=%9.2fms  p99=%9.2fms  max=%9.2fms  (n=%llu)\n",
         target_tps, result.tps,
         static_cast<double>(staleness.Percentile(50)) / 1000.0,
         static_cast<double>(staleness.Percentile(95)) / 1000.0,
         static_cast<double>(staleness.Percentile(99)) / 1000.0,
         static_cast<double>(staleness.Max()) / 1000.0,
         static_cast<unsigned long long>(staleness.Count()));

  char label[64];
  snprintf(label, sizeof(label), "target_tps=%.0f/threads=%d", target_tps,
           threads);
  metrics_out->AddPoint(label, env.cluster.get(), env.baseline);
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  MetricsJsonWriter metrics_out(args.metrics_json);
  PrintHeader("Figure 11: async index staleness (T2 - T1) vs load",
              "Tan et al., EDBT 2014, Section 8.2, Figure 11");
  // Paper sweep: 600 -> 4000 TPS on their testbed; scaled to ours. The
  // final point offers unthrottled load (saturation).
  RunPoint(2000, 8, &metrics_out);
  RunPoint(8000, 12, &metrics_out);
  RunPoint(16000, 16, &metrics_out);
  RunPoint(0, 24, &metrics_out);  // unthrottled: saturation
  printf("\nExpected shape: staleness stays in the low-millisecond range\n");
  printf("until the system nears saturation, then grows by orders of\n");
  printf("magnitude as the background AUQ contends for resources.\n");
  return metrics_out.Write() ? 0 : 1;
}
