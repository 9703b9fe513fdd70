// Shared setup for the experiment reproductions (Section 8): builds a
// cluster with the paper's cost regime — injected network/WAL/disk costs,
// a small block cache so base reads are disk-bound — loads the extended
// YCSB item table, and pushes the base data to disk stores.
//
// Scaled down from the paper's 8-server/40M-row testbed to laptop size;
// the *relative* behavior of the schemes is the target ("rather than the
// absolute numbers, the relative performance of different schemes are
// more interesting", Section 8.1).

#ifndef DIFFINDEX_BENCH_BENCH_COMMON_H_
#define DIFFINDEX_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/metrics.h"
#include "workload/item_table.h"
#include "workload/runner.h"

namespace diffindex::bench {

// Smoke mode (--smoke): shrink every bench to a seconds-long sanity pass
// so the binaries double as ctest cases. Numbers from a smoke run are
// meaningless; the point is that every code path still executes. Set once
// in main (via ParseBenchArgs) before building any environment.
inline bool g_smoke = false;

// Clamp a bench-local constant (iteration/probe counts) in smoke mode.
inline uint64_t SmokeN(uint64_t full, uint64_t smoke_cap) {
  return g_smoke ? std::min(full, smoke_cap) : full;
}

struct EnvOptions {
  int num_servers = 4;
  int regions_per_table = 8;
  uint64_t num_items = 20000;
  double latency_scale = 1.0;
  size_t block_cache_bytes = 256 << 10;  // small: base reads miss (disk-bound)
  // Write-through base-row cache on the servers (0 disables); serves the
  // sync-full read-back and sync-insert read-repair base reads.
  size_t base_row_cache_bytes = 4 << 20;
  bool with_title_index = true;
  bool with_price_index = false;
  IndexScheme scheme = IndexScheme::kSyncFull;
  int load_threads = 8;
  // Flush + major-compact after load so reads hit disk stores.
  bool settle_to_disk = true;
};

// The ApplySmoke overloads are no-ops unless --smoke was given, so every
// option-construction site can call them unconditionally.
inline void ApplySmoke(EnvOptions* options) {
  if (!g_smoke) return;
  options->num_items = std::min<uint64_t>(options->num_items, 400);
  options->latency_scale = 0;  // injected costs off: wall-clock only
  options->load_threads = std::min(options->load_threads, 4);
}

inline void ApplySmoke(ClusterOptions* options) {
  if (!g_smoke) return;
  options->latency.scale = 0;
}

inline void ApplySmoke(RunnerOptions* options) {
  if (!g_smoke) return;
  options->threads = std::min(options->threads, 4);
  if (options->total_operations > 0) {
    options->total_operations =
        std::min<uint64_t>(options->total_operations, 120);
  }
  if (options->max_duration_ms > 0) {
    options->max_duration_ms =
        std::min<uint64_t>(options->max_duration_ms, 500);
  }
  options->target_tps = 0;  // pacing would stretch the run, not shrink it
}

struct BenchEnv {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ItemTable> items;
  std::unique_ptr<WorkloadRunner> runner;  // holds item versions
  // Registry snapshot once load and settle are done: the measured phase
  // of a point is everything after it (MetricsJsonWriter::AddPoint).
  obs::MetricsSnapshot baseline;
};

inline Status MakeLoadedEnv(const EnvOptions& base_env_options,
                            const RunnerOptions& base_runner_options,
                            BenchEnv* env) {
  EnvOptions env_options = base_env_options;
  RunnerOptions runner_options = base_runner_options;
  ApplySmoke(&env_options);
  ApplySmoke(&runner_options);
  ClusterOptions cluster_options;
  cluster_options.num_servers = env_options.num_servers;
  cluster_options.regions_per_table = env_options.regions_per_table;
  cluster_options.latency.scale = env_options.latency_scale;
  cluster_options.server.block_cache_bytes = env_options.block_cache_bytes;
  cluster_options.server.base_row_cache_bytes =
      env_options.base_row_cache_bytes;
  // Dense staleness sampling (Figure 11's probe uses 0.1% at 40M rows;
  // our runs are 1000x smaller).
  cluster_options.auq.staleness_sample_every = 20;
  DIFFINDEX_RETURN_NOT_OK(
      Cluster::Create(cluster_options, &env->cluster));

  ItemTableOptions item_options;
  item_options.num_items = env_options.num_items;
  item_options.title_scheme = env_options.scheme;
  item_options.price_scheme = env_options.scheme;
  item_options.create_title_index = env_options.with_title_index;
  item_options.create_price_index = env_options.with_price_index;
  env->items =
      std::make_unique<ItemTable>(env->cluster.get(), item_options);
  DIFFINDEX_RETURN_NOT_OK(env->items->Create());

  env->runner = std::make_unique<WorkloadRunner>(
      env->cluster.get(), env->items.get(), runner_options);
  DIFFINDEX_RETURN_NOT_OK(env->runner->LoadItems(env_options.load_threads));

  if (env_options.settle_to_disk) {
    auto client = env->cluster->NewClient();
    DIFFINDEX_RETURN_NOT_OK(client->FlushTable(item_options.table));
    DIFFINDEX_RETURN_NOT_OK(client->CompactTable(item_options.table));
  }
  env->baseline = env->cluster->metrics()->Snapshot();
  return Status::OK();
}

inline const char* SchemeLabel(IndexScheme scheme) {
  switch (scheme) {
    case IndexScheme::kSyncFull:
      return "sync-full";
    case IndexScheme::kSyncInsert:
      return "sync-insert";
    case IndexScheme::kAsyncSimple:
      return "async-simple";
    case IndexScheme::kAsyncSession:
      return "async-session";
  }
  return "?";
}

inline void PrintHeader(const char* title, const char* citation) {
  printf("==============================================================\n");
  printf("%s\n", title);
  printf("  reproduces: %s\n", citation);
  printf("==============================================================\n");
}

inline void PrintSeriesRow(const char* scheme, int threads,
                           const RunnerResult& result) {
  printf("%-14s threads=%-3d tps=%8.0f  avg=%8.0fus  p50=%7lluus  "
         "p95=%7lluus  p99=%7lluus  errors=%llu\n",
         scheme, threads, result.tps, result.latency->Average(),
         static_cast<unsigned long long>(result.latency->Percentile(50)),
         static_cast<unsigned long long>(result.latency->Percentile(95)),
         static_cast<unsigned long long>(result.latency->Percentile(99)),
         static_cast<unsigned long long>(result.errors));
}

// Common bench flags. `--metrics-json <path>` (or `--metrics-json=<path>`)
// dumps a machine-readable registry snapshot per measured point;
// `--smoke` switches to the tiny ctest configuration.
struct BenchArgs {
  std::string metrics_json;
  bool smoke = false;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  const std::string flag = "--metrics-json";
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == flag && i + 1 < argc) {
      args.metrics_json = argv[++i];
    } else if (a.rfind(flag + "=", 0) == 0) {
      args.metrics_json = a.substr(flag.size() + 1);
    } else if (a == "--smoke") {
      args.smoke = true;
    }
  }
  g_smoke = args.smoke;
  if (args.smoke) printf("[smoke configuration: tiny run, numbers invalid]\n");
  return args;
}

// Accumulates one labeled registry delta per measured point and writes
// them as {"points":[{"label":...,"metrics":{...}}, ...]}. Each point is
// the cluster's registry minus `baseline`, a snapshot taken when the
// point's measured phase began, so preload and settle stay out of it.
class MetricsJsonWriter {
 public:
  explicit MetricsJsonWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void AddPoint(const std::string& label, Cluster* cluster,
                const obs::MetricsSnapshot& baseline) {
    if (!enabled()) return;
    points_.push_back(
        "{\"label\":\"" + obs::JsonEscape(label) + "\",\"metrics\":" +
        obs::MetricsRegistry::SnapshotToJson(
            cluster->metrics()->Snapshot().Delta(baseline)) +
        "}");
  }

  bool Write() const {
    if (!enabled()) return true;
    std::string out = "{\"points\":[";
    for (size_t i = 0; i < points_.size(); i++) {
      if (i > 0) out += ",";
      out += points_[i];
    }
    out += "]}\n";
    FILE* f = fopen(path_.c_str(), "w");
    const bool ok = f != nullptr &&
                    fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f != nullptr) fclose(f);
    if (ok) {
      printf("metrics: wrote %s\n", path_.c_str());
    } else {
      fprintf(stderr, "metrics: FAILED to write %s\n", path_.c_str());
    }
    return ok;
  }

 private:
  const std::string path_;
  std::vector<std::string> points_;
};

// Waits until every server's AUQ is empty.
inline void WaitQuiescent(Cluster* cluster) {
  for (;;) {
    bool all_empty = true;
    for (NodeId id : cluster->server_ids()) {
      IndexManager* manager = cluster->index_manager(id);
      if (manager != nullptr && manager->QueueDepth() > 0) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace diffindex::bench

#endif  // DIFFINDEX_BENCH_BENCH_COMMON_H_
