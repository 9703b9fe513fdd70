// Checkpointed recovery: time-to-serve after a server kill, as a function
// of how much un-flushed (WAL-only) data the victim held, with and
// without flush checkpoints bounding the replay.
//
// Each point builds a fresh cluster, loads a flushed baseline (covered by
// the per-region flush checkpoints), writes `unflushed` more puts that
// live only in the WAL + memtables, then kills a server and measures the
// wall time until every one of the victim's rows is readable again
// (OnServerDead is synchronous: open + bounded replay + recovery flush,
// then a probe read through a refreshed layout).
//
// Expected shape: with checkpoints, time-to-serve scales with the
// UN-FLUSHED data only (the flushed baseline is skipped via
// wal.replay_skipped); without them, every kill replays the victim's
// whole log, so even the unflushed=0 point pays for the baseline.

#include <chrono>

#include "bench_common.h"
#include "util/random.h"

namespace diffindex::bench {
namespace {

std::string BenchRow(int i, const char* tag) {
  char row[32];
  snprintf(row, sizeof(row), "%02x-%s%d", (i * 7) % 256, tag, i);
  return row;
}

void RunPoint(uint64_t baseline, uint64_t unflushed, bool with_checkpoints,
              MetricsJsonWriter* metrics_out) {
  ClusterOptions options;
  options.num_servers = 3;
  options.regions_per_table = 6;
  options.server.recovery_use_checkpoints = with_checkpoints;
  options.client.retry_backoff_ms = 1;
  options.client.retry_backoff_max_ms = 8;
  ApplySmoke(&options);

  std::unique_ptr<Cluster> cluster;
  Status s = Cluster::Create(options, &cluster);
  if (!s.ok()) {
    printf("setup failed: %s\n", s.ToString().c_str());
    return;
  }
  if (!cluster->master()->CreateTable("t").ok()) return;
  auto client = cluster->NewClient();
  (void)client->RefreshLayout();

  Random rng(baseline + unflushed + (with_checkpoints ? 1 : 0));
  std::vector<std::string> victim_rows;
  auto put_rows = [&](uint64_t n, const char* tag) {
    for (uint64_t i = 0; i < n; i++) {
      const std::string row = BenchRow(static_cast<int>(i), tag);
      if (!client->PutColumn("t", row, "c", rng.RandomBytes(200)).ok()) {
        continue;
      }
      RegionInfoWire info;
      if (client->RouteRow("t", row, &info).ok() && info.server_id == 1) {
        victim_rows.push_back(row);
      }
    }
  };

  put_rows(baseline, "base");
  (void)client->FlushTable("t");  // checkpoints now cover the baseline
  put_rows(unflushed, "hot");

  const obs::MetricsSnapshot before_kill = cluster->metrics()->Snapshot();
  const auto start = std::chrono::steady_clock::now();
  (void)cluster->KillServer(1);
  (void)client->RefreshLayout();
  // Served = every row the victim held answers again.
  std::string value;
  for (const std::string& row : victim_rows) {
    (void)client->GetCell("t", row, "c", kMaxTimestamp, &value);
  }
  const double serve_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()) /
      1000.0;

  const uint64_t replayed =
      cluster->metrics()->GetCounter("wal.replayed")->value();
  const uint64_t skipped =
      cluster->metrics()->GetCounter("wal.replay_skipped")->value();
  char label[96];
  snprintf(label, sizeof(label),
           "ckpt=%s,unflushed=%llu,serve_ms=%.1f",
           with_checkpoints ? "on" : "off",
           static_cast<unsigned long long>(unflushed), serve_ms);
  printf("checkpoints=%-3s unflushed=%6llu  time-to-serve=%8.1fms  "
         "replayed=%6llu  skipped=%6llu\n",
         with_checkpoints ? "on" : "off",
         static_cast<unsigned long long>(unflushed), serve_ms,
         static_cast<unsigned long long>(replayed),
         static_cast<unsigned long long>(skipped));
  metrics_out->AddPoint(label, cluster.get(), before_kill);
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex::bench;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  MetricsJsonWriter metrics_out(args.metrics_json);
  PrintHeader("Recovery: time-to-serve vs un-flushed data, checkpoints on/off",
              "Tan et al., EDBT 2014, Section 5.3 (recovery protocol)");
  const uint64_t baseline = SmokeN(8000, 200);
  const uint64_t sizes_full[] = {0, 1000, 4000, 16000};
  const uint64_t sizes_smoke[] = {0, 50};
  const uint64_t* sizes = g_smoke ? sizes_smoke : sizes_full;
  const size_t num_sizes = g_smoke ? 2 : 4;
  for (size_t i = 0; i < num_sizes; i++) {
    RunPoint(baseline, sizes[i], /*with_checkpoints=*/true, &metrics_out);
  }
  for (size_t i = 0; i < num_sizes; i++) {
    RunPoint(baseline, sizes[i], /*with_checkpoints=*/false, &metrics_out);
  }
  printf("\nExpected shape: the ckpt=on series scales with the un-flushed\n");
  printf("row count alone (the flushed baseline shows up as 'skipped');\n");
  printf("the ckpt=off series replays baseline+unflushed on every kill,\n");
  printf("so even its unflushed=0 point pays the full-log replay cost.\n");
  return metrics_out.Write() ? 0 : 1;
}
