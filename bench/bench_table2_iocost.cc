// Table 2: I/O cost of Diff-Index schemes — measured operation counts per
// index update and per index read, checked against the paper's analytic
// table:
//
//   scheme       action   BasePut  BaseRead  IndexPut  IndexRead
//   no-index     update     1         0         0          0
//   sync-full    update     1         1        1+1         0
//                read       0         0         0          1
//   sync-insert  update     1         0         1          0
//                read       0         K         K          1
//   async-simple update     1        [1]      [1+1]        0
//                read       0         0         0          1
//
// ("[ ]" = asynchronous/background; K = rows returned by the index read.)

#include "bench_common.h"

namespace diffindex::bench {
namespace {

void RunScheme(const char* label, bool with_index, IndexScheme scheme) {
  const uint64_t kOps = SmokeN(400, 120);
  EnvOptions env_options;
  env_options.with_title_index = with_index;
  env_options.scheme = scheme;
  env_options.num_items = 4000;
  env_options.latency_scale = 0;  // counting ops, not time

  RunnerOptions update_options;
  update_options.op = WorkloadOp::kUpdateTitle;
  update_options.threads = 4;
  update_options.total_operations = kOps;
  update_options.seed = 41;

  BenchEnv env;
  Status s = MakeLoadedEnv(env_options, update_options, &env);
  if (!s.ok()) {
    printf("setup failed: %s\n", s.ToString().c_str());
    return;
  }
  env.cluster->stats()->Reset();

  RunnerResult update_result;
  (void)env.runner->Run(&update_result);
  WaitQuiescent(env.cluster.get());
  OpStats::Snapshot update_stats = env.cluster->stats()->snapshot();

  printf("%-13s update (n=%llu): base_put=%.2f base_read=%.2f "
         "index_put=%.2f async_base_read=[%.2f] async_index_put=[%.2f]\n",
         label, static_cast<unsigned long long>(update_result.operations),
         static_cast<double>(update_stats.base_put) / kOps,
         static_cast<double>(update_stats.base_read) / kOps,
         static_cast<double>(update_stats.index_put) / kOps,
         static_cast<double>(update_stats.async_base_read) / kOps,
         static_cast<double>(update_stats.async_index_put) / kOps);

  if (!with_index) return;

  env.cluster->stats()->Reset();
  RunnerOptions read_options = update_options;
  read_options.op = WorkloadOp::kReadIndexExact;
  read_options.total_operations = kOps;
  RunnerResult read_result;
  (void)env.runner->RunWith(read_options, &read_result);
  OpStats::Snapshot read_stats = env.cluster->stats()->snapshot();

  printf("%-13s read   (n=%llu): base_read=%.2f index_put=%.2f "
         "index_read=%.2f\n",
         label, static_cast<unsigned long long>(read_result.operations),
         static_cast<double>(read_stats.base_read) / kOps,
         static_cast<double>(read_stats.index_put) / kOps,
         static_cast<double>(read_stats.index_read) / kOps);
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  (void)ParseBenchArgs(argc, argv);
  PrintHeader("Table 2: I/O cost per scheme (measured ops per request)",
              "Tan et al., EDBT 2014, Section 6.1, Table 2");
  RunScheme("no-index", false, IndexScheme::kSyncFull);
  RunScheme("sync-full", true, IndexScheme::kSyncFull);
  RunScheme("sync-insert", true, IndexScheme::kSyncInsert);
  RunScheme("async-simple", true, IndexScheme::kAsyncSimple);
  printf("\nAnalytic expectations: sync-full update = 1 base read +\n");
  printf("1(+1) index puts; sync-insert update = 1 index put only, its\n");
  printf("read pays K base reads (+K repair deletes when entries are\n");
  printf("stale); async does the full work in the background columns.\n");
  return 0;
}
