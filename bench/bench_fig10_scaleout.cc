// Figure 10: scale-out — the paper repeats the update experiment on a 5x
// larger cluster (8 -> 40 region servers, 40M -> 200M rows) and reports
// sub-linear but healthy scaling with the *relative order of schemes
// preserved*. We scale 2 -> 8 servers with 4x the data.

#include "bench_common.h"

namespace diffindex::bench {
namespace {

void RunPoint(const char* label, IndexScheme scheme, bool with_index,
              int servers, uint64_t items, int threads) {
  EnvOptions env_options;
  env_options.num_servers = servers;
  env_options.regions_per_table = servers * 2;
  env_options.scheme = scheme;
  env_options.with_title_index = with_index;
  env_options.num_items = items;

  RunnerOptions runner_options;
  runner_options.op = WorkloadOp::kUpdateTitle;
  runner_options.threads = threads;
  runner_options.total_operations = 500ull * threads;
  runner_options.seed = 31 + servers;

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
  printf("servers=%d %-14s ", servers, label);
  PrintSeriesRow("", threads, result);
  if (scheme == IndexScheme::kAsyncSimple && with_index) {
    WaitQuiescent(env.cluster.get());
  }
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  (void)ParseBenchArgs(argc, argv);
  PrintHeader(
      "Figure 10: update performance at 4x cluster/data scale",
      "Tan et al., EDBT 2014, Section 8.2, Figure 10 (RC2 cloud)");

  printf("--- small cluster (2 servers, 8k rows) ---\n");
  RunPoint("no-index", IndexScheme::kSyncFull, false, 2, 8000, 8);
  RunPoint("sync-insert", IndexScheme::kSyncInsert, true, 2, 8000, 8);
  RunPoint("sync-full", IndexScheme::kSyncFull, true, 2, 8000, 8);
  RunPoint("async-simple", IndexScheme::kAsyncSimple, true, 2, 8000, 8);

  printf("--- large cluster (8 servers, 32k rows, 4x offered load) ---\n");
  RunPoint("no-index", IndexScheme::kSyncFull, false, 8, 32000, 32);
  RunPoint("sync-insert", IndexScheme::kSyncInsert, true, 8, 32000, 32);
  RunPoint("sync-full", IndexScheme::kSyncFull, true, 8, 32000, 32);
  RunPoint("async-simple", IndexScheme::kAsyncSimple, true, 8, 32000, 32);

  printf("\nExpected shape: the larger cluster reaches a multiple (though\n");
  printf("sub-linear) of the small cluster's TPS, and the relative order\n");
  printf("of the schemes is preserved at both scales.\n");
  return 0;
}
