// Figure 7: index update performance — average update latency vs.
// throughput for no-index, sync-insert, sync-full and async-simple, sweep
// over client thread counts.
//
// Expected shape (paper): sync-insert ≈ 2x a base put (one extra index
// put); sync-full up to ~5x (it adds the disk-bound base read RB and the
// index delete); async tracks no-index at low load and degrades toward
// sync-insert as the AUQ contends for resources at high load; async's
// peak throughput exceeds sync-full's.

#include "bench_common.h"

namespace diffindex::bench {
namespace {

void RunSeries(const char* label, bool with_index, IndexScheme scheme,
               MetricsJsonWriter* metrics_out) {
  const std::vector<int> kThreadSweep =
      g_smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};
  for (int threads : kThreadSweep) {
    EnvOptions env_options;
    env_options.with_title_index = with_index;
    env_options.scheme = scheme;
    env_options.num_items = 12000;

    RunnerOptions runner_options;
    runner_options.op = WorkloadOp::kUpdateTitle;
    runner_options.threads = threads;
    runner_options.total_operations = 600ull * threads;
    runner_options.seed = 7 + threads;

    BenchEnv env;
    Status s = MakeLoadedEnv(env_options, runner_options, &env);
    if (!s.ok()) {
      printf("setup failed: %s\n", s.ToString().c_str());
      return;
    }
    RunnerResult result;
    s = env.runner->Run(&result);
    if (!s.ok()) {
      printf("run failed: %s\n", s.ToString().c_str());
      return;
    }
    PrintSeriesRow(label, threads, result);
    if (scheme == IndexScheme::kAsyncSimple) {
      WaitQuiescent(env.cluster.get());
    }
    metrics_out->AddPoint(std::string(label) + "/threads=" +
                              std::to_string(threads),
                          env.cluster.get(), env.baseline);
  }
  printf("\n");
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  MetricsJsonWriter metrics_out(args.metrics_json);
  PrintHeader("Figure 7: update latency vs throughput per scheme",
              "Tan et al., EDBT 2014, Section 8.2, Figure 7");
  RunSeries("no-index", /*with_index=*/false, IndexScheme::kSyncFull,
            &metrics_out);
  RunSeries("sync-insert", true, IndexScheme::kSyncInsert, &metrics_out);
  RunSeries("sync-full", true, IndexScheme::kSyncFull, &metrics_out);
  RunSeries("async-simple", true, IndexScheme::kAsyncSimple, &metrics_out);
  printf("Expected shape: insert ~2x no-index latency; full up to ~5x;\n");
  printf("async tracks no-index at low load and rises under saturation.\n");
  return metrics_out.Write() ? 0 : 1;
}
