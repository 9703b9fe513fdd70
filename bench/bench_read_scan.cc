// Read-path baseline for the query engine (DESIGN.md §13): the same
// range workload measured through (a) the engine's scatter-gather scan
// with batched read-repair and one GetRow per hit, and (b) the
// scatter-gather scan serving a covered projection (zero base reads).
// A wide hits-only scan (one page spanning ~8 index regions) measures
// the scatter legs on their own.
//
// The indexed values are hex-prefixed strings, so the index entries
// spread across every index-table region and the scatter legs genuinely
// fan out (uint64-encoded values would all sort into the first region).
// Injected costs (network hop 40us, disk read 180us) make the RPC-count
// differences visible in wall-clock latency.

#include <thread>

#include "bench_common.h"
#include "core/diff_index_client.h"
#include "query/engine.h"
#include "util/random.h"

namespace diffindex::bench {
namespace {

constexpr char kTable[] = "scan_items";
constexpr char kIndex[] = "by_skey";
constexpr char kColumn[] = "skey";
constexpr char kExtra[] = "aux";

constexpr uint64_t kItems = 6000;
constexpr int kQueries = 40;
constexpr int kRangePrefixWidth = 8;  // ~items*width/256 entries per query

// Wide ranges for the scan stage: ~half the keyspace, so the range
// genuinely spans several index regions.
constexpr int kWideQueries = 8;
constexpr int kWidePrefixWidth = 128;

std::string RowName(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%02x-i%05llu",
           static_cast<unsigned>((i * 37) % 256),
           static_cast<unsigned long long>(i));
  return buf;
}

std::string SKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%02x-%05llu",
           static_cast<unsigned>((i * 59) % 256),
           static_cast<unsigned long long>(i));
  return buf;
}

struct Env {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<DiffIndexClient> client;
};

Status MakeEnv(IndexScheme scheme, uint64_t items, Env* env) {
  ClusterOptions options;
  options.num_servers = 4;
  // Finer partitioning than the default benches: the scatter-gather
  // design point is many regions per range. Hop cost is cross-rack
  // rather than the default same-rack 40us, as in the paper's
  // distributed testbed.
  options.regions_per_table = 16;
  options.latency.network_hop_micros = 100;
  options.latency.scale = 1.0;
  options.server.block_cache_bytes = 256 << 10;
  options.server.base_row_cache_bytes = 4 << 20;
  ApplySmoke(&options);
  DIFFINDEX_RETURN_NOT_OK(Cluster::Create(options, &env->cluster));
  DIFFINDEX_RETURN_NOT_OK(env->cluster->master()->CreateTable(kTable));
  IndexDescriptor index;
  index.name = kIndex;
  index.column = kColumn;
  index.scheme = scheme;
  index.extra_columns = {kExtra};
  DIFFINDEX_RETURN_NOT_OK(env->cluster->master()->CreateIndex(kTable, index));
  env->client = env->cluster->NewDiffIndexClient();
  DIFFINDEX_RETURN_NOT_OK(env->client->raw_client()->RefreshLayout());

  // Parallel load; skey + aux + body in one put per row (the covered
  // projection serves skey/aux at the entry's timestamp).
  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      auto client = env->cluster->NewDiffIndexClient();
      (void)t;
      for (;;) {
        const uint64_t i = next.fetch_add(1);
        if (i >= items || failed.load()) return;
        Status s = client->Put(
            kTable, RowName(i),
            {Cell{kColumn, SKey(i), false},
             Cell{kExtra, "aux" + std::to_string(i), false},
             Cell{"body", std::string(100, 'b'), false}});
        if (!s.ok()) failed.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed.load()) return Status::Aborted("load failed");

  auto raw = env->cluster->NewClient();
  DIFFINDEX_RETURN_NOT_OK(raw->FlushTable(kTable));
  DIFFINDEX_RETURN_NOT_OK(raw->CompactTable(kTable));
  WaitQuiescent(env->cluster.get());
  return Status::OK();
}

// One query = one [lo, hi) prefix range; every mode replays the same
// seeded range sequence so the latency comparison is like-for-like.
struct QueryGen {
  Random rng;
  int width;
  explicit QueryGen(uint32_t seed, int range_width = kRangePrefixWidth)
      : rng(seed), width(range_width) {}
  void Next(std::string* lo, std::string* hi) {
    const uint32_t p = rng.Uniform(256 - static_cast<uint32_t>(width));
    char buf[16];
    snprintf(buf, sizeof(buf), "%02x", p);
    *lo = buf;
    snprintf(buf, sizeof(buf), "%02x", p + static_cast<uint32_t>(width));
    *hi = buf;
  }
};

using QueryFn = Status (*)(Env*, ReadEngine*, const std::string&,
                           const std::string&, uint64_t*);

Status EngineQuery(Env* env, ReadEngine* engine, const std::string& lo,
                   const std::string& hi, bool covered, uint64_t* rows_out) {
  (void)env;
  ScanSpec spec;
  spec.table = kTable;
  spec.index_name = kIndex;
  spec.value_lo_encoded = lo;
  spec.value_hi_encoded = hi;
  spec.projection = {kColumn, kExtra};
  ScanOptions options;
  options.allow_covered = covered;
  std::vector<ScannedRow> rows;
  DIFFINDEX_RETURN_NOT_OK(engine->ScanByIndex(spec, options, &rows));
  *rows_out = rows.size();
  return Status::OK();
}

Status ScatterQuery(Env* env, ReadEngine* engine, const std::string& lo,
                    const std::string& hi, uint64_t* rows) {
  return EngineQuery(env, engine, lo, hi, /*covered=*/false, rows);
}

Status CoveredQuery(Env* env, ReadEngine* engine, const std::string& lo,
                    const std::string& hi, uint64_t* rows) {
  return EngineQuery(env, engine, lo, hi, /*covered=*/true, rows);
}

// Scan stage on its own: the scatter legs with the base fetch out of the
// picture (covered entries only, one page wide enough for the whole
// range).
Status WideScatterQuery(Env* env, ReadEngine* engine, const std::string& lo,
                        const std::string& hi, uint64_t* rows_out) {
  (void)env;
  ScanSpec spec;
  spec.table = kTable;
  spec.index_name = kIndex;
  spec.value_lo_encoded = lo;
  spec.value_hi_encoded = hi;
  spec.projection = {kColumn};
  ScanOptions options;
  options.page_entries = 8192;  // one page: the legs cover the range
  options.max_parallel = 8;
  std::vector<ScannedRow> rows;
  DIFFINDEX_RETURN_NOT_OK(engine->ScanByIndex(spec, options, &rows));
  *rows_out = rows.size();
  return Status::OK();
}

void RunMode(Env* env, ReadEngine* engine, const char* scheme,
             const char* mode, QueryFn fn, int full_queries = kQueries,
             int range_width = kRangePrefixWidth) {
  const int queries = static_cast<int>(
      SmokeN(static_cast<uint64_t>(full_queries), 6));
  // Per-mode latency histogram in the cluster registry: the JSON
  // snapshot carries every mode's distribution for this scheme's point.
  Histogram* hist = env->cluster->metrics()->GetHistogram(
      std::string("bench.read.") + mode + "_micros");
  obs::Counter* base_reads =
      env->cluster->metrics()->GetCounter("io.base_read");
  const uint64_t base_reads_before = base_reads->value();

  QueryGen gen(1234, range_width);
  uint64_t total_rows = 0;
  for (int q = 0; q < queries; q++) {
    std::string lo, hi;
    gen.Next(&lo, &hi);
    const auto start = std::chrono::steady_clock::now();
    uint64_t rows = 0;
    Status s = fn(env, engine, lo, hi, &rows);
    const uint64_t micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (!s.ok()) {
      printf("%s/%s: query failed: %s\n", scheme, mode,
             s.ToString().c_str());
      return;
    }
    hist->Add(micros);
    total_rows += rows;
  }
  printf("%-13s %-18s avg=%9.0fus  p50=%8lluus  p95=%8lluus  "
         "rows/query=%4llu  base-reads/query=%5llu\n",
         scheme, mode, hist->Average(),
         static_cast<unsigned long long>(hist->Percentile(50)),
         static_cast<unsigned long long>(hist->Percentile(95)),
         static_cast<unsigned long long>(total_rows /
                                         static_cast<uint64_t>(queries)),
         static_cast<unsigned long long>(
             (base_reads->value() - base_reads_before) /
             static_cast<uint64_t>(queries)));
}

void RunSeries(IndexScheme scheme, MetricsJsonWriter* writer) {
  const char* label = SchemeLabel(scheme);
  Env env;
  Status s = MakeEnv(scheme, SmokeN(kItems, 400), &env);
  if (!s.ok()) {
    printf("%s: setup failed: %s\n", label, s.ToString().c_str());
    return;
  }
  ReadEngineOptions engine_options;
  engine_options.max_parallel_legs = 8;  // wide scans span ~8 regions
  ReadEngine engine(env.client.get(), engine_options);

  // Warm the caches once with the query ranges every mode replays, so
  // mode order does not bias the comparison.
  {
    QueryGen gen(1234);
    const int queries = static_cast<int>(SmokeN(kQueries, 6));
    for (int q = 0; q < queries; q++) {
      std::string lo, hi;
      gen.Next(&lo, &hi);
      uint64_t rows = 0;
      (void)ScatterQuery(&env, &engine, lo, hi, &rows);
    }
  }
  const obs::MetricsSnapshot baseline = env.cluster->metrics()->Snapshot();

  RunMode(&env, &engine, label, "scan_scatter", WideScatterQuery,
          kWideQueries, kWidePrefixWidth);
  RunMode(&env, &engine, label, "scatter_batched", ScatterQuery);
  RunMode(&env, &engine, label, "covered", CoveredQuery);
  writer->AddPoint(label, env.cluster.get(), baseline);
  printf("\n");
}

}  // namespace
}  // namespace diffindex::bench

int main(int argc, char** argv) {
  using namespace diffindex;
  using namespace diffindex::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("Read engine: scatter-gather / covered / batched repair",
              "Tan et al., EDBT 2014, Section 8.2 read path; "
              "Luo & Carey, arXiv 1808.08896 Section 5");
  MetricsJsonWriter writer(args.metrics_json);
  RunSeries(IndexScheme::kSyncFull, &writer);
  RunSeries(IndexScheme::kSyncInsert, &writer);
  RunSeries(IndexScheme::kAsyncSimple, &writer);
  RunSeries(IndexScheme::kAsyncSession, &writer);
  if (!writer.Write()) return 1;
  printf("Expected shape: covered drops the base fetch to zero reads and\n");
  printf("beats scatter_batched under every scheme; sync-insert pays its\n");
  printf("double-check as one MultiGet per server per page on top.\n");
  return 0;
}
