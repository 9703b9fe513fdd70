// Equations 1 and 2 (Section 4): the latency decomposition of the
// synchronous schemes —
//
//   L(sync-full)   = L(PI) + L(RB) + L(DI)     (Eq. 1)
//   L(sync-insert) = L(PI)                      (Eq. 2)
//
// and the premise behind the whole design: in LSM, L(RB) (a disk-bound
// base read) dwarfs L(PI)/L(DI) (log-structured writes). This bench
// measures each primitive on the loaded cluster and checks the additive
// relation L(sync-full) - L(base put) ≈ L(PI) + L(RB) + L(DI).
//
// The end-to-end section also measures sync-full with the write-through
// base-row cache off vs on: the cache serves the RB term from memory
// (base_cache.hit in the metrics dump), so the cached run's update
// latency drops toward sync-insert's.

#include <chrono>

#include "bench_common.h"
#include "core/index_codec.h"

namespace diffindex::bench {
namespace {

using Clock = std::chrono::steady_clock;

template <typename Fn>
double AvgMicros(int n, Fn fn) {
  const auto start = Clock::now();
  for (int i = 0; i < n; i++) fn(i);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 Clock::now() - start)
                 .count()) /
         n;
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  MetricsJsonWriter metrics_out(args.metrics_json);
  PrintHeader("Equations 1-2: latency decomposition of the sync schemes",
              "Tan et al., EDBT 2014, Section 4, Equations 1 and 2");

  EnvOptions env_options;
  env_options.num_items = 12000;
  env_options.scheme = IndexScheme::kSyncFull;
  env_options.with_title_index = false;  // measure primitives by hand
  // Primitive L(RB) must be the cold disk-bound read the paper assumes.
  env_options.base_row_cache_bytes = 0;
  ApplySmoke(&env_options);
  const uint64_t kItems = env_options.num_items;

  RunnerOptions runner_options;
  BenchEnv env;
  Status s = MakeLoadedEnv(env_options, runner_options, &env);
  if (!s.ok()) {
    printf("setup failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto client = env.cluster->NewClient();
  const int kN = static_cast<int>(SmokeN(200, 40));
  Random rng(7);

  // L(base put): put into the (unindexed) base table.
  const double base_put = AvgMicros(kN, [&](int i) {
    (void)client->PutColumn("item", env.items->RowKey(rng.Uniform(kItems)),
                            ItemTable::kTitleColumn,
                            "probe" + std::to_string(i));
  });

  // L(PI): a put into a small key-only "index" table.
  (void)env.cluster->master()->CreateTable("probe_index");
  (void)client->RefreshLayout();
  const double index_put = AvgMicros(kN, [&](int i) {
    (void)client->PutColumn("probe_index",
                            EncodeIndexRow("v" + std::to_string(i), "row"),
                            "", "");
  });

  // L(RB): disk-bound read of a random base row (cold cache).
  const double base_read = AvgMicros(kN, [&](int i) {
    std::string value;
    (void)client->GetCell("item",
                          env.items->RowKey((i * 997 + 13) % kItems),
                          ItemTable::kTitleColumn, kMaxTimestamp, &value);
  });

  // L(DI): delete from the index table (a put of a tombstone).
  const double index_delete = AvgMicros(kN, [&](int i) {
    (void)client->Put("probe_index",
                      EncodeIndexRow("v" + std::to_string(i), "row"),
                      {Cell{"", "", true}});
  });

  printf("L(base put) = %7.0f us\n", base_put);
  printf("L(PI)       = %7.0f us   (index put)\n", index_put);
  printf("L(RB)       = %7.0f us   (base read: disk-bound)\n", base_read);
  printf("L(DI)       = %7.0f us   (index delete)\n", index_delete);
  const double eq1 = index_put + base_read + index_delete;
  printf("Eq.1 L(sync-full index work) = L(PI)+L(RB)+L(DI) = %7.0f us\n",
         eq1);
  printf("Eq.2 L(sync-insert index work) = L(PI)           = %7.0f us\n",
         index_put);
  printf("ratio RB / PI = %.1fx  (LSM read/write asymmetry, Section 2.1)\n",
         base_read / index_put);

  // Cross-check against the end-to-end schemes on identical clusters. The
  // two sync-full points differ only in the base-row cache: off pays the
  // Eq.1 disk-bound RB on every update, on serves RB from the
  // write-through cache (base_cache.hit > 0 in the metrics snapshot).
  struct SchemePoint {
    const char* label;
    IndexScheme scheme;
    bool with_index;
    size_t base_row_cache_bytes;
  } points[] = {
      {"no-index", IndexScheme::kSyncFull, false, 0},
      {"sync-insert", IndexScheme::kSyncInsert, true, 0},
      {"sync-full/cache=off", IndexScheme::kSyncFull, true, 0},
      {"sync-full/cache=on", IndexScheme::kSyncFull, true, 4 << 20},
  };
  constexpr int kPoints = 4;
  printf("\nEnd-to-end single-threaded update latencies:\n");
  double measured[kPoints] = {0, 0, 0, 0};
  for (int p = 0; p < kPoints; p++) {
    EnvOptions scheme_env;
    scheme_env.num_items = 8000;
    scheme_env.scheme = points[p].scheme;
    scheme_env.with_title_index = points[p].with_index;
    scheme_env.base_row_cache_bytes = points[p].base_row_cache_bytes;
    RunnerOptions scheme_run;
    scheme_run.op = WorkloadOp::kUpdateTitle;
    scheme_run.threads = 1;
    scheme_run.total_operations = 300;
    // Skewed updates (same for every point): re-updated hot rows are what
    // the write-through cache serves the RB from.
    scheme_run.distribution = KeyDistribution::kZipfian;
    BenchEnv scheme_bench;
    if (!MakeLoadedEnv(scheme_env, scheme_run, &scheme_bench).ok()) continue;
    RunnerResult result;
    (void)scheme_bench.runner->Run(&result);
    measured[p] = result.latency->Average();
    const uint64_t cache_hits =
        scheme_bench.cluster->metrics()->GetCounter("base_cache.hit")
            ->value();
    printf("  %-19s avg = %7.0f us  (base_cache.hit=%llu)\n",
           points[p].label, measured[p],
           static_cast<unsigned long long>(cache_hits));
    metrics_out.AddPoint(points[p].label, scheme_bench.cluster.get(),
                         scheme_bench.baseline);
  }
  printf("\nCheck: L(sync-full) - L(no-index) = %7.0f us vs Eq.1 %7.0f us\n",
         measured[2] - measured[0], eq1);
  printf("       L(sync-insert) - L(no-index) = %6.0f us vs Eq.2 %6.0f us\n",
         measured[1] - measured[0], index_put);
  printf("       base-row cache saves %6.0f us per sync-full update\n",
         measured[2] - measured[3]);
  return metrics_out.Write() ? 0 : 1;
}
