// perfbench_driver: runs one named workload of the repository benchmark
// against an in-process Cluster and prints every end-to-end and per-layer
// metric as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --data-dir <dir>
//
// perfbench/run.py builds this binary and is the command to run; see
// BENCHMARK.json for the workloads and metrics and perfbench/rationale.json
// for why they were chosen.
//
// One run:
//   1. set-up, kSetups times on fresh clusters (create tables, load,
//      flush and compact, warm up); `setup_s` is the median;
//   2. the measured phase on the last cluster: an open-loop schedule of
//      rate x seconds operations, each timed from the moment it was due;
//      the phase ends when every operation has completed and the AUQ has
//      drained, so deferred index maintenance is charged to the phase;
//   3. the rate ladder (`max_ok_rate_ops_s`), in short extra phases;
//   4. the correctness gate: sampled items and scans against the driver's
//      version model. Any mismatch fails the run.
//
// Metrics are phase-scoped: registry Snapshot().Delta(), /proc/self/io and
// getrusage deltas over the measured phase only.
//
// Driver threads: kWorkers workers plus the main thread, which samples
// process state and drives the staleness probe. Items are partitioned over
// the workers (item % kWorkers), so each item's operations run in order on
// one thread and the version model is exact without locks.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/diff_index_client.h"
#include "core/index_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "trace_layers.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/timestamp_oracle.h"
#include "workload/generators.h"
#include "workload/item_table.h"

namespace diffindex::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Fixed settings (identical on both sides of every comparison) ----

constexpr int kServers = 4;
constexpr int kRegionsPerTable = 8;
// Caches: kServers x (block cache + base-row cache) = 1 MB, smaller than
// every workload's table (Workload::items x about 0.9 KB of rows).
constexpr size_t kBlockCacheBytes = 128 << 10;
constexpr size_t kBaseRowCacheBytes = 128 << 10;
// Small enough that flush and compaction run several cycles per phase.
constexpr size_t kMemtableFlushBytes = 64 << 10;
constexpr int kCompactionTrigger = 3;
// Bounded AUQ with the blocking overflow policy (only async schemes
// normally enqueue; sync schemes use the AUQ for retries).
constexpr size_t kAuqMaxDepth = 512;

constexpr int kWorkers = 3;
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr uint64_t kScanWidth = 1000;  // 0.1% of the price domain
constexpr uint64_t kSloMicros = 50000;
// Rate ladder, as multiples of the workload's nominal rate; 1 is the
// measured phase itself. On a shared host the rate at which a workload's
// all-op p99 crosses the SLO moves by about 3x from run to run with the
// host's CPU steal (on maintain-* from about 3x to 16x the nominal rate),
// so rungs close enough to locate it would report a different rung each
// run. The ladder is a tripwire instead: on a healthy run the nominal rung
// passes and the 32x rung, about twice the saturation throughput, fails,
// so the metric reads the nominal rung's completed rate. It moves only
// when the nominal rung fails (a capacity loss below the nominal rate) or
// the 32x rung passes.
constexpr double kLadder[] = {1.0 / 16, 1, 32};
constexpr int kNominalRung = 1;  // kLadder[kNominalRung] == 1
// Staleness probe cycles: one starts every kProbePeriodMicros (or as soon
// as the previous one ends) and polls for its index entry every
// kProbePollMicros; these are obs::StalenessProbe's poll step and timeout.
constexpr int kProbePeriodMicros = 5000;
constexpr int kProbePollMicros = 1000;
constexpr uint64_t kProbeTimeoutMicros = 5000000;
constexpr char kProbeRow[] = "__staleness_probe";
// The main thread samples RSS and AUQ depth this often; sampling locks
// every AUQ, so faster sampling would perturb what it measures.
constexpr int kSamplePeriodMicros = 5000;
// Medians, CPU per op and the ladder's verdicts are the median over this
// many equal windows of a phase, so one disturbed window (a burst of
// compactions, a noisy neighbour on the host) does not decide a run.
constexpr int kWindows = 10;
constexpr int kTraceEvery = 8;  // traced run: every 8th op is traced
// A rung whose backlog exceeds this much scheduled work is abandoned.
constexpr double kRungAbortBacklogSeconds = 0.5;
// Generator lateness p99 above this flags the run: the numbers would
// measure the driver, not the program.
constexpr uint64_t kDriverLateFlagMicros = 2000;
constexpr int kVerifyItems = 1500;
constexpr int kVerifyScans = 40;

constexpr char kProbeTable[] = "probe";
constexpr char kProbeIndex[] = "by_probe_v";
constexpr char kProbeColumn[] = "v";

// ---- Workloads ----

enum OpType { kTitle = 0, kFullRow, kPrice, kGet, kScan, kRange, kNumOpTypes };
const char* const kOpNames[kNumOpTypes] = {
    "title_update", "full_row_update", "price_update", "get_by_index",
    "scan",         "range_by_index"};

struct Workload {
  const char* name;
  IndexScheme scheme;
  double mix[kNumOpTypes];  // shares of each OpType
  double rate;              // nominal ops/s of the measured phase
  uint64_t items;           // rows of the item table
};

// maintain-* keep regions small so each compaction (a full rewrite of a
// region) stalls its region for milliseconds, well inside the SLO, while
// flushes and compactions still run every few hundred milliseconds.
// query-mixed has a larger table so a 0.1% scan fetches ~10 base rows.
const Workload kWorkloads[] = {
    {"maintain-sync", IndexScheme::kSyncFull, {0.50, 0.20, 0, 0.20, 0.10, 0},
     1000, 3000},
    {"maintain-async", IndexScheme::kAsyncSimple,
     {0.50, 0.20, 0, 0.20, 0.10, 0}, 1000, 3000},
    // Price updates leave stale price-index entries for scan repair to
    // clean while adding little flush work.
    {"query-mixed", IndexScheme::kSyncInsert, {0, 0, 0.15, 0.50, 0.30, 0.05},
     1500, 10000},
};

// Operation classes with end-to-end latency metrics.
enum OpClass { kPutClass = 0, kGetClass, kScanClass, kNumClasses };
const char* const kClassNames[kNumClasses] = {"put", "get_by_index", "scan"};

int ClassOf(int type) {
  switch (type) {
    case kTitle:
    case kFullRow:
    case kPrice:
      return kPutClass;
    case kGet:
      return kGetClass;
    case kScan:
      return kScanClass;
  }
  return -1;
}

struct Op {
  uint8_t type = kTitle;
  uint32_t item = 0;  // updates and get
  uint64_t lo = 0;    // scan/range: price range [lo, lo + kScanWidth)
};

std::vector<Op> GenerateOps(const Workload& w, uint64_t n, uint64_t seed,
                            uint64_t phase) {
  const uint64_t stream = seed * 0x9E3779B97F4A7C15ull + phase;
  Random rng(stream);
  auto chooser = KeyChooser::Create(KeyDistribution::kZipfian, w.items,
                                    stream ^ 0x5bd1e995ull);
  const uint64_t domain = ItemTableOptions().price_domain;
  std::vector<Op> ops(n);
  for (Op& op : ops) {
    double draw = rng.NextDouble();
    int type = kNumOpTypes - 1;
    for (int t = 0; t < kNumOpTypes; t++) {
      if (draw < w.mix[t]) {
        type = t;
        break;
      }
      draw -= w.mix[t];
    }
    while (w.mix[type] == 0) type--;  // rounding past the last share
    op.type = static_cast<uint8_t>(type);
    if (type == kScan || type == kRange) {
      op.lo = rng.Uniform(domain - kScanWidth + 1);
    } else {
      op.item = static_cast<uint32_t>(chooser->Next());
    }
  }
  return ops;
}

int WorkerOf(const Op& op, size_t index) {
  if (op.type == kScan || op.type == kRange) {
    return static_cast<int>(index % kWorkers);
  }
  return static_cast<int>(op.item % kWorkers);
}

// ---- Small helpers ----

uint64_t Micros(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

// The p99 of the metrics: the highest percentile with at least ten
// samples beyond it, capped at 99.
double TailQuantile(size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

// Nearest-rank quantile; sorts `v`.
uint64_t Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double AsDouble(uint64_t v) { return static_cast<double>(v); }

struct ProcCounters {
  uint64_t rchar = 0;
  uint64_t wchar = 0;
  uint64_t cpu_us = 0;
  uint64_t ctx_switches = 0;
};

ProcCounters ReadProcCounters() {
  ProcCounters out;
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") out.rchar = value;
    if (key == "wchar:") out.wchar = value;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv_us = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000 +
           static_cast<uint64_t>(tv.tv_usec);
  };
  out.cpu_us = tv_us(usage.ru_utime) + tv_us(usage.ru_stime);
  out.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  return out;
}

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

uint64_t DirectoryBytes(const std::string& root) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

uint64_t Counter(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// Merges histogram `name` with its scheme-tagged variants (`name.<tag>`).
obs::HistogramSnapshot Hist(const obs::MetricsSnapshot& s,
                            const std::string& name) {
  obs::HistogramSnapshot merged;
  merged.buckets.assign(Histogram::kNumBuckets, 0);
  for (const auto& [key, h] : s.histograms) {
    if (key != name && key.rfind(name + ".", 0) != 0) continue;
    if (h.count == 0) continue;
    merged.min = merged.count == 0 ? h.min : std::min(merged.min, h.min);
    merged.max = std::max(merged.max, h.max);
    merged.count += h.count;
    merged.sum += h.sum;
    for (size_t i = 0; i < h.buckets.size() && i < merged.buckets.size();
         i++) {
      merged.buckets[i] += h.buckets[i];
    }
  }
  return merged;
}

double HistPercentile(const obs::HistogramSnapshot& h, double p) {
  return h.count == 0 ? 0 : static_cast<double>(h.Percentile(p));
}

// ---- The benchmark environment: one cluster plus the driver's model ----

struct Worker {
  std::unique_ptr<DiffIndexClient> client;
  std::unique_ptr<ReadEngine> engine;
};

struct Bench {
  const Workload* workload = nullptr;
  uint64_t items = 0;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ItemTable> table;
  std::vector<Worker> workers;
  std::unique_ptr<DiffIndexClient> probe_client;
  uint64_t probe_seq = 0;  // sentinel values are unique per cluster
  // Version model. Entry k is written only by worker k % kWorkers while a
  // phase runs, and by the main thread between phases. Every update of
  // item k takes the next version; the title and price columns hold the
  // values of the last update that wrote them.
  std::vector<uint64_t> version;
  std::vector<uint64_t> title_version;
  std::vector<uint64_t> price_version;
};

uint64_t RowSeed(uint64_t item, uint64_t version) {
  return (item + 1) * 0x9E3779B97F4A7C15ull ^
         (version + 1) * 0xC2B2AE3D27D4EB4Full;
}

// Logical bytes of a put: row key plus column names and values.
uint64_t CellBytes(const std::string& row, const std::vector<Cell>& cells) {
  uint64_t bytes = row.size();
  for (const Cell& cell : cells) {
    bytes += cell.column.size() + cell.value.size();
  }
  return bytes;
}

// Logical bytes of item k as the model says it is now.
uint64_t LiveItemBytes(const Bench& b, uint64_t k) {
  const ItemTableOptions& o = b.table->options();
  uint64_t bytes = b.table->RowKey(k).size();
  bytes += std::strlen(ItemTable::kTitleColumn) +
           b.table->TitleValue(k, b.title_version[k]).size();
  bytes += std::strlen(ItemTable::kPriceColumn) +
           b.table->PriceValue(k, b.price_version[k]).size();
  for (int i = 0; i < o.filler_columns; i++) {
    bytes += ("field" + std::to_string(i)).size() + o.filler_bytes;
  }
  return bytes;
}

uint64_t TotalQueueDepth(Cluster* cluster) {
  uint64_t depth = 0;
  for (NodeId id : cluster->server_ids()) {
    IndexManager* manager = cluster->index_manager(id);
    if (manager != nullptr) depth += manager->QueueDepth();
  }
  return depth;
}

Status WaitDrained(Cluster* cluster) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (TotalQueueDepth(cluster) > 0) {
    if (Clock::now() > deadline) {
      return Status::TimedOut("AUQ did not drain within 60s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

// ---- Phases ----

struct Record {
  uint64_t due_us = 0;    // from phase start
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint64_t lateness_us = 0;  // start - max(due, worker free)
  uint64_t backlog = 0;      // ops due but not started, at this start
  uint8_t type = 0;
  bool ok = false;
  bool traced = false;
};

struct TraceSums {
  uint64_t samples = 0;
  uint64_t latency_us = 0;
  uint64_t self_us[kNumLayers] = {};
  int64_t residual_us = 0;
};

// What the workers of a phase add up besides their op records.
struct Tally {
  uint64_t mismatches = 0;
  std::string first_mismatch;  // or the first failed op
  uint64_t scan_rows = 0;
  uint64_t put_bytes = 0;  // logical bytes of the driver's puts
  TraceSums trace[kNumClasses];

  void Merge(const Tally& other) {
    mismatches += other.mismatches;
    if (first_mismatch.empty()) first_mismatch = other.first_mismatch;
    scan_rows += other.scan_rows;
    put_bytes += other.put_bytes;
    for (int c = 0; c < kNumClasses; c++) {
      TraceSums& dst = trace[c];
      const TraceSums& src = other.trace[c];
      dst.samples += src.samples;
      dst.latency_us += src.latency_us;
      for (int l = 0; l < kNumLayers; l++) dst.self_us[l] += src.self_us[l];
      dst.residual_us += src.residual_us;
    }
  }
};

struct PhaseOptions {
  double rate = 0;
  bool probe = false;
  bool trace = false;
  bool abortable = false;  // ladder rungs give up on a runaway backlog
};

struct PhaseResult : Tally {
  std::vector<Record> records;  // executed ops only
  uint64_t scheduled = 0;
  double rate = 0;
  bool aborted = false;
  uint64_t elapsed_us = 0;
  uint64_t rss_peak = 0;
  uint64_t auq_depth_max = 0;
  std::vector<uint64_t> staleness_us;
  // Process CPU time at the phase start and at each window boundary.
  std::vector<uint64_t> cpu_marks_us;
  uint64_t window_us = 1;
  uint64_t probe_puts = 0;
  uint64_t probe_errors = 0;
  uint64_t ops_by_type[kNumOpTypes] = {};
};

struct WorkerResult : Tally {
  std::vector<Record> records;
};

class PhaseRunner {
 public:
  PhaseRunner(Bench* bench, const std::vector<Op>* ops, PhaseOptions options)
      : bench_(bench), ops_(ops), options_(options) {}

  PhaseResult Run();

 private:
  void WorkerLoop(int w, const std::vector<size_t>& mine, WorkerResult* out);
  Status Execute(int w, const Op& op, WorkerResult* out);
  uint64_t DueCount(uint64_t elapsed_us) const {
    const double due = static_cast<double>(elapsed_us) * options_.rate / 1e6;
    return std::min<uint64_t>(ops_->size(), static_cast<uint64_t>(due) + 1);
  }

  Bench* const bench_;
  const std::vector<Op>* const ops_;
  const PhaseOptions options_;
  Clock::time_point t0_;
  std::atomic<uint64_t> started_{0};
  std::atomic<int> finished_workers_{0};
  std::atomic<bool> abort_{false};
};

Status PhaseRunner::Execute(int w, const Op& op, WorkerResult* out) {
  Bench& b = *bench_;
  DiffIndexClient* client = b.workers[w].client.get();
  const ItemTable& table = *b.table;
  const std::string& name = table.options().table;
  switch (op.type) {
    case kTitle: {
      const uint64_t v = ++b.version[op.item];
      b.title_version[op.item] = v;
      const std::string row = table.RowKey(op.item);
      std::vector<Cell> cells = {
          Cell{ItemTable::kTitleColumn, table.TitleValue(op.item, v), false}};
      out->put_bytes += CellBytes(row, cells);
      return client->Put(name, row, std::move(cells));
    }
    case kFullRow: {
      const uint64_t v = ++b.version[op.item];
      b.title_version[op.item] = v;
      b.price_version[op.item] = v;
      const std::string row = table.RowKey(op.item);
      Random rng(RowSeed(op.item, v));
      std::vector<Cell> cells = table.MakeRow(op.item, v, &rng);
      out->put_bytes += CellBytes(row, cells);
      return client->Put(name, row, std::move(cells));
    }
    case kPrice: {
      const uint64_t v = ++b.version[op.item];
      b.price_version[op.item] = v;
      const std::string row = table.RowKey(op.item);
      std::vector<Cell> cells = {
          Cell{ItemTable::kPriceColumn, table.PriceValue(op.item, v), false}};
      out->put_bytes += CellBytes(row, cells);
      return client->Put(name, row, std::move(cells));
    }
    case kGet: {
      const std::string want = table.RowKey(op.item);
      std::vector<IndexHit> hits;
      DIFFINDEX_RETURN_NOT_OK(client->GetByIndex(
          name, ItemTable::kTitleIndex,
          table.TitleValue(op.item, b.title_version[op.item]), &hits));
      // The item's last write completed on this thread before the read.
      // Sync schemes must show it; async ones may lag but never show
      // another row under this item's unique title.
      const bool sync = b.workload->scheme != IndexScheme::kAsyncSimple;
      bool ok = !sync || hits.size() == 1;
      for (const IndexHit& hit : hits) ok = ok && hit.base_row == want;
      if (!ok) {
        if (out->mismatches++ == 0) {
          out->first_mismatch = "get_by_index on item " +
                                std::to_string(op.item) + " returned " +
                                std::to_string(hits.size()) + " hits";
        }
      }
      return Status::OK();
    }
    case kScan: {
      ScanSpec spec;
      spec.table = name;
      spec.index_name = ItemTable::kPriceIndex;
      spec.value_lo_encoded = EncodeUint64IndexValue(op.lo);
      spec.value_hi_encoded = EncodeUint64IndexValue(op.lo + kScanWidth);
      std::vector<ScannedRow> rows;
      DIFFINDEX_RETURN_NOT_OK(
          b.workers[w].engine->ScanByIndex(spec, ScanOptions(), &rows));
      out->scan_rows += rows.size();
      return Status::OK();
    }
    case kRange: {
      std::vector<IndexHit> hits;
      return client->RangeByIndex(
          name, ItemTable::kPriceIndex, EncodeUint64IndexValue(op.lo),
          EncodeUint64IndexValue(op.lo + kScanWidth), 0, &hits);
    }
  }
  return Status::InvalidArgument("unknown op");
}

void PhaseRunner::WorkerLoop(int w, const std::vector<size_t>& mine,
                             WorkerResult* out) {
  const double us_per_op = 1e6 / options_.rate;
  const std::string scheme = IndexSchemeName(bench_->workload->scheme);
  obs::TraceCollector* collector = bench_->cluster->traces();
  out->records.reserve(mine.size());
  Clock::time_point free_at = t0_;
  for (size_t index : mine) {
    if (abort_.load(std::memory_order_relaxed)) break;
    const Op& op = (*ops_)[index];
    const auto due =
        t0_ + std::chrono::microseconds(static_cast<uint64_t>(
                  static_cast<double>(index) * us_per_op));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    Record rec;
    rec.type = op.type;
    rec.due_us = Micros(due - t0_);
    rec.start_us = Micros(start - t0_);
    rec.lateness_us = Micros(start - std::max(due, free_at));
    const uint64_t started = started_.fetch_add(1) + 1;
    const uint64_t due_count = DueCount(rec.start_us);
    rec.backlog = due_count > started ? due_count - started : 0;

    const int cls = ClassOf(op.type);
    rec.traced = options_.trace && cls >= 0 && index % kTraceEvery == 0;
    Status s;
    if (rec.traced) {
      const obs::TraceContext root =
          obs::TraceContext::NewRoot(kClassNames[cls], scheme);
      const uint64_t wall_start = TimestampOracle::NowMicros();
      {
        obs::ScopedTraceContext scope(root);
        s = Execute(w, op, out);
      }
      rec.end_us = Micros(Clock::now() - t0_);
      const uint64_t latency = rec.end_us - rec.start_us;
      const LayerTimes times = SelfTimes(collector->Trace(root.trace_id),
                                         root.span_id, wall_start, latency);
      TraceSums& sums = out->trace[cls];
      sums.samples++;
      sums.latency_us += latency;
      for (int l = 0; l < kNumLayers; l++) sums.self_us[l] += times.self_us[l];
      sums.residual_us += times.residual_us;
    } else {
      s = Execute(w, op, out);
      rec.end_us = Micros(Clock::now() - t0_);
    }
    rec.ok = s.ok();
    if (!s.ok() && out->mismatches == 0 && out->first_mismatch.empty()) {
      out->first_mismatch = std::string(kOpNames[op.type]) +
                            " failed: " + s.ToString();
    }
    out->records.push_back(rec);
    free_at = Clock::now();
  }
  finished_workers_.fetch_add(1);
}

PhaseResult PhaseRunner::Run() {
  Bench& b = *bench_;
  std::vector<std::vector<size_t>> assignment(kWorkers);
  for (size_t i = 0; i < ops_->size(); i++) {
    assignment[WorkerOf((*ops_)[i], i)].push_back(i);
  }
  PhaseResult result;
  result.scheduled = ops_->size();
  result.rate = options_.rate;

  std::vector<WorkerResult> partials(kWorkers);
  t0_ = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (int w = 0; w < kWorkers; w++) {
    threads.emplace_back(
        [this, w, &assignment, &partials] {
          WorkerLoop(w, assignment[w], &partials[w]);
        });
  }

  // Main thread: sampler and staleness probe. The probe runs the cycle of
  // obs::StalenessProbe::ProbeOnce (put a fresh sentinel, then getByIndex
  // until it shows) one step per pass of this loop, so sampling goes on
  // while a cycle waits out an AUQ backlog; ProbeOnce would block this
  // thread for the whole wait, which is when the AUQ is deepest.
  const double abort_backlog = kRungAbortBacklogSeconds * options_.rate;
  result.window_us = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(ops_->size()) * 1e6 /
                               options_.rate / kWindows));
  const auto window = std::chrono::microseconds(result.window_us);
  result.cpu_marks_us.push_back(ReadProcCounters().cpu_us);
  const std::string probe_table = kProbeTable;
  std::string sentinel;  // non-empty while a probe cycle waits
  Clock::time_point probe_start;
  auto next_probe = t0_;
  auto next_sample = t0_;
  while (finished_workers_.load() < kWorkers) {
    auto now = Clock::now();
    const size_t marks = result.cpu_marks_us.size();
    const Clock::time_point next_mark = t0_ + window * marks;
    if (marks < kWindows && now >= next_mark) {
      result.cpu_marks_us.push_back(ReadProcCounters().cpu_us);
    }
    if (now >= next_sample) {
      result.rss_peak = std::max(result.rss_peak, ResidentBytes());
      result.auq_depth_max =
          std::max(result.auq_depth_max, TotalQueueDepth(b.cluster.get()));
      next_sample = now + std::chrono::microseconds(kSamplePeriodMicros);
    }
    if (options_.abortable && now > t0_) {
      const uint64_t due = DueCount(Micros(now - t0_));
      const uint64_t started = started_.load();
      if (due > started && static_cast<double>(due - started) > abort_backlog) {
        abort_.store(true);
      }
    }
    if (options_.probe && sentinel.empty() && now >= next_probe) {
      sentinel = "probe-" + std::to_string(b.probe_seq++);
      probe_start = Clock::now();
      result.probe_puts++;
      Status s = b.probe_client->Put(probe_table, kProbeRow,
                                     {Cell{kProbeColumn, sentinel, false}});
      if (!s.ok()) {
        result.probe_errors++;
        sentinel.clear();
      }
      next_probe += std::chrono::microseconds(kProbePeriodMicros);
      now = Clock::now();
      if (next_probe < now) next_probe = now;
    }
    if (!sentinel.empty()) {
      std::vector<IndexHit> hits;
      Status s = b.probe_client->GetByIndex(probe_table, kProbeIndex,
                                            sentinel, &hits);
      bool visible = false;
      for (const IndexHit& hit : hits) visible |= hit.base_row == kProbeRow;
      now = Clock::now();
      if (s.ok() && visible) {
        result.staleness_us.push_back(Micros(now - probe_start));
        sentinel.clear();
      } else if (!s.ok() || Micros(now - probe_start) > kProbeTimeoutMicros) {
        result.probe_errors++;
        sentinel.clear();
      }
    }
    auto wake = next_sample;
    if (marks < kWindows) wake = std::min(wake, next_mark);
    if (!sentinel.empty()) {
      wake = std::min(wake, now + std::chrono::microseconds(kProbePollMicros));
    } else if (options_.probe) {
      wake = std::min(wake, next_probe);
    }
    std::this_thread::sleep_until(wake);
  }
  for (auto& t : threads) t.join();
  result.cpu_marks_us.push_back(ReadProcCounters().cpu_us);
  result.elapsed_us = Micros(Clock::now() - t0_);
  result.aborted = abort_.load();

  for (WorkerResult& partial : partials) {
    for (const Record& rec : partial.records) {
      result.records.push_back(rec);
      result.ops_by_type[rec.type]++;
    }
    result.Merge(partial);
  }
  return result;
}

uint64_t Failed(const PhaseResult& phase) {
  uint64_t failed = phase.probe_errors;
  for (const Record& rec : phase.records) failed += rec.ok ? 0 : 1;
  return failed;
}

int WindowOf(const PhaseResult& phase, uint64_t at_us) {
  return static_cast<int>(
      std::min<uint64_t>(kWindows - 1, at_us / phase.window_us));
}

// Median over the windows of a per-window latency quantile from due time
// of one op class (-1: every op); `tail` selects the p99 rule, else the
// median.
double LatencyQuantile(const PhaseResult& phase, int cls, bool tail) {
  std::vector<std::vector<uint64_t>> windows(kWindows);
  for (const Record& rec : phase.records) {
    if (cls >= 0 && ClassOf(rec.type) != cls) continue;
    windows[WindowOf(phase, rec.due_us)].push_back(rec.end_us - rec.due_us);
  }
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (w.empty()) continue;
    per_window.push_back(AsDouble(
        Quantile(&w, tail ? TailQuantile(w.size()) : 0.5)));
  }
  return per_window.empty() ? 0 : Median(per_window);
}

// Median over the windows of process CPU time per op due in the window.
double WindowedCpuPerOp(const PhaseResult& phase) {
  std::vector<uint64_t> ops(kWindows, 0);
  for (const Record& rec : phase.records) ops[WindowOf(phase, rec.due_us)]++;
  std::vector<double> per_window;
  for (size_t i = 0; i + 1 < phase.cpu_marks_us.size() && i < ops.size(); i++) {
    if (ops[i] == 0) continue;
    per_window.push_back(
        static_cast<double>(phase.cpu_marks_us[i + 1] - phase.cpu_marks_us[i]) /
        static_cast<double>(ops[i]));
  }
  return per_window.empty() ? 0 : Median(per_window);
}

// One rung of the rate ladder. It passes when nothing failed, the all-op
// p99 from due time (windowed, like the reported quantiles) is within the
// SLO, and the backlog did not grow: the rung completed at no less than
// 95% of its offered rate.
struct Rung {
  double multiple = 0;
  bool pass = false;
  double achieved = 0;  // completed ops per second
  uint64_t p99_us = 0;
  bool aborted = false;
};

Rung JudgeRung(const PhaseResult& r, double multiple) {
  Rung rung;
  rung.multiple = multiple;
  rung.p99_us = static_cast<uint64_t>(LatencyQuantile(r, -1, true));
  uint64_t last_end = 0;
  for (const Record& rec : r.records) last_end = std::max(last_end, rec.end_us);
  rung.achieved = Ratio(static_cast<double>(r.records.size()) * 1e6,
                        static_cast<double>(last_end));
  rung.aborted = r.aborted;
  rung.pass = !r.aborted && Failed(r) == 0 && rung.p99_us <= kSloMicros &&
              rung.achieved >= 0.95 * r.rate;
  return rung;
}

std::string RungLog(const std::vector<Rung>& rungs) {
  std::string out;
  for (const Rung& r : rungs) {
    char buf[128];
    snprintf(buf, sizeof(buf), "%s%gx:%s(p99=%lluus,rate=%.0f%s)",
             out.empty() ? "" : " ", r.multiple, r.pass ? "pass" : "fail",
             static_cast<unsigned long long>(r.p99_us), r.achieved,
             r.aborted ? ",aborted" : "");
    out += buf;
  }
  return out;
}

// ---- Set-up ----

Status Setup(const Workload& w, uint64_t seed, const std::string& data_root,
             Bench* b) {
  const uint64_t items = w.items;
  b->workload = &w;
  b->items = items;
  ClusterOptions options;
  options.num_servers = kServers;
  options.regions_per_table = kRegionsPerTable;
  options.latency.scale = 0;
  options.server.block_cache_bytes = kBlockCacheBytes;
  options.server.base_row_cache_bytes = kBaseRowCacheBytes;
  options.server.lsm.memtable_flush_bytes = kMemtableFlushBytes;
  options.server.lsm.compaction_trigger = kCompactionTrigger;
  options.auq.max_depth = kAuqMaxDepth;
  options.auq.overflow_policy = AuqOverflowPolicy::kBlock;
  options.data_root = data_root;
  options.remove_data_on_destroy = true;
  DIFFINDEX_RETURN_NOT_OK(Cluster::Create(options, &b->cluster));
  Cluster* cluster = b->cluster.get();

  ItemTableOptions table_options;
  table_options.num_items = items;
  table_options.title_scheme = w.scheme;
  table_options.price_scheme = w.scheme;
  b->table = std::make_unique<ItemTable>(cluster, table_options);
  DIFFINDEX_RETURN_NOT_OK(b->table->Create());
  DIFFINDEX_RETURN_NOT_OK(cluster->master()->CreateTable(kProbeTable));
  IndexDescriptor probe_index;
  probe_index.name = kProbeIndex;
  probe_index.column = kProbeColumn;
  probe_index.scheme = w.scheme;
  DIFFINDEX_RETURN_NOT_OK(
      cluster->master()->CreateIndex(kProbeTable, probe_index));

  for (int i = 0; i < kWorkers; i++) {
    Worker worker;
    worker.client =
        std::make_unique<DiffIndexClient>(cluster->NewClient(), nullptr);
    worker.engine = std::make_unique<ReadEngine>(worker.client.get());
    b->workers.push_back(std::move(worker));
  }
  b->probe_client =
      std::make_unique<DiffIndexClient>(cluster->NewClient(), nullptr);

  // Load version 0 of every item, one multi-put per batch of rows.
  b->version.assign(items, 0);
  b->title_version.assign(items, 0);
  b->price_version.assign(items, 0);
  constexpr uint64_t kBatch = 100;
  std::atomic<uint64_t> next{0};
  std::vector<Status> load_status(kWorkers, Status::OK());
  std::vector<std::thread> loaders;
  for (int i = 0; i < kWorkers; i++) {
    loaders.emplace_back([b, i, items, &next, &load_status] {
      Client* client = b->workers[i].client->raw_client();
      for (;;) {
        const uint64_t first = next.fetch_add(kBatch);
        if (first >= items) return;
        std::vector<Client::RowPut> batch;
        for (uint64_t k = first; k < std::min(items, first + kBatch); k++) {
          Random rng(RowSeed(k, 0));
          batch.push_back({b->table->RowKey(k), b->table->MakeRow(k, 0, &rng)});
        }
        Status s =
            client->MultiPut(b->table->options().table, std::move(batch));
        if (!s.ok()) {
          load_status[i] = s;
          return;
        }
      }
    });
  }
  for (auto& t : loaders) t.join();
  for (const Status& s : load_status) DIFFINDEX_RETURN_NOT_OK(s);
  DIFFINDEX_RETURN_NOT_OK(WaitDrained(cluster));

  // Settle: base and index tables on disk, compacted.
  std::vector<std::string> tables = {b->table->options().table};
  for (const char* index : {ItemTable::kTitleIndex, ItemTable::kPriceIndex}) {
    IndexDescriptor desc;
    DIFFINDEX_RETURN_NOT_OK(
        b->workers[0].client->reader()->FindIndex(tables[0], index, &desc));
    tables.push_back(desc.index_table);
  }
  Client* admin = b->workers[0].client->raw_client();
  for (const std::string& t : tables) {
    DIFFINDEX_RETURN_NOT_OK(admin->FlushTable(t));
    DIFFINDEX_RETURN_NOT_OK(admin->CompactTable(t));
  }
  DIFFINDEX_RETURN_NOT_OK(WaitDrained(cluster));

  // Warm-up at the nominal rate: caches fill, lazy pools start.
  const std::vector<Op> warmup = GenerateOps(
      w, static_cast<uint64_t>(w.rate * kWarmupSeconds), seed, 0);
  PhaseOptions phase_options;
  phase_options.rate = w.rate;
  phase_options.probe = true;
  PhaseResult result = PhaseRunner(b, &warmup, phase_options).Run();
  if (result.mismatches > 0 || Failed(result) > 0) {
    return Status::Aborted("warm-up failed: " + result.first_mismatch);
  }
  return WaitDrained(cluster);
}

// ---- Correctness gate ----

struct Verification {
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  std::string first;

  void Check(bool ok, const std::string& what) {
    checks++;
    if (ok) return;
    if (mismatches++ == 0) first = what;
  }
};

Verification Verify(Bench* b, uint64_t seed) {
  Verification v;
  const ItemTable& table = *b->table;
  const std::string& name = table.options().table;
  DiffIndexClient* client = b->workers[0].client.get();
  Random rng(seed * 0x2545F4914F6CDD1Dull + 17);

  // Items: mostly ones the run updated, some never touched.
  std::vector<uint64_t> touched;
  for (uint64_t k = 0; k < b->items; k++) {
    if (b->version[k] > 0) touched.push_back(k);
  }
  std::vector<uint64_t> sample;
  for (int i = 0; i < kVerifyItems; i++) {
    const bool from_touched = !touched.empty() && i % 5 != 0;
    sample.push_back(from_touched ? touched[rng.Uniform(touched.size())]
                                  : rng.Uniform(b->items));
  }
  for (uint64_t k : sample) {
    const std::string row = table.RowKey(k);
    const uint64_t ver = b->title_version[k];
    const std::string item = "item " + std::to_string(k);
    std::vector<IndexHit> hits;
    Status s = client->GetByIndex(name, ItemTable::kTitleIndex,
                                  table.TitleValue(k, ver), &hits);
    v.Check(s.ok() && hits.size() == 1 && hits[0].base_row == row,
            item + ": current title entry lost (" +
                std::to_string(hits.size()) + " hits)");
    if (ver > 0) {
      hits.clear();
      s = client->GetByIndex(name, ItemTable::kTitleIndex,
                             table.TitleValue(k, ver - 1), &hits);
      v.Check(s.ok() && hits.empty(),
              item + ": phantom entry for the previous title");
    }
    std::string value;
    s = client->Get(name, row, ItemTable::kTitleColumn, &value);
    v.Check(s.ok() && value == table.TitleValue(k, ver),
            item + ": base title differs from the model");
    s = client->Get(name, row, ItemTable::kPriceColumn, &value);
    v.Check(s.ok() && value == table.PriceValue(k, b->price_version[k]),
            item + ": base price differs from the model");
  }

  // Scans: exactly the model's rows in range, with the model's prices.
  std::vector<std::pair<uint64_t, uint64_t>> by_price;  // (price, item)
  by_price.reserve(b->items);
  for (uint64_t k = 0; k < b->items; k++) {
    by_price.emplace_back(table.PriceNumeric(k, b->price_version[k]), k);
  }
  std::sort(by_price.begin(), by_price.end());
  const uint64_t domain = table.options().price_domain;
  for (int i = 0; i < kVerifyScans; i++) {
    const uint64_t lo = rng.Uniform(domain - kScanWidth + 1);
    const uint64_t hi = lo + kScanWidth;
    std::map<std::string, std::string> expected;  // row -> encoded price
    for (auto it = std::lower_bound(by_price.begin(), by_price.end(),
                                    std::make_pair(lo, uint64_t{0}));
         it != by_price.end() && it->first < hi; ++it) {
      expected[table.RowKey(it->second)] = EncodeUint64IndexValue(it->first);
    }
    ScanSpec spec;
    spec.table = name;
    spec.index_name = ItemTable::kPriceIndex;
    spec.value_lo_encoded = EncodeUint64IndexValue(lo);
    spec.value_hi_encoded = EncodeUint64IndexValue(hi);
    std::vector<ScannedRow> rows;
    Status s = b->workers[0].engine->ScanByIndex(spec, ScanOptions(), &rows);
    std::map<std::string, std::string> got;
    for (const ScannedRow& row : rows) {
      for (const RowCell& cell : row.cells) {
        if (cell.column == ItemTable::kPriceColumn) got[row.row] = cell.value;
      }
    }
    v.Check(s.ok() && rows.size() == expected.size() && got == expected,
            "scan [" + std::to_string(lo) + ", " + std::to_string(hi) +
                "): " + std::to_string(rows.size()) + " rows, model has " +
                std::to_string(expected.size()));
  }
  return v;
}

// ---- Output ----

class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void Integer(const std::string& key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Bool(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void String(const std::string& key, const std::string& value) {
    Raw(key, "\"" + obs::JsonEscape(value) + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + obs::JsonEscape(key) + "\":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Every metric, printed as a table row and collected as JSON.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    JsonObject m;
    m.Number("value", value);
    m.String("unit", unit);
    json_.Raw(name, m.str());
    printf("  %-44s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
  std::string str() const { return json_.str(); }

 private:
  JsonObject json_;
};

// ---- Steps of one run ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
};


// Measured-phase deltas of the registry and the OS counters, and the
// space the cluster uses at phase end.
struct PhaseDeltas {
  obs::MetricsSnapshot after;  // absolute, at phase end
  obs::MetricsSnapshot delta;
  ProcCounters before;
  ProcCounters after_proc;
  uint64_t data_bytes = 0;
  uint64_t live_bytes = 0;
  Status drained;

  double Count(const char* name) const {
    return AsDouble(Counter(delta, name));
  }
};

struct LadderResult {
  std::vector<Rung> rungs;
  double max_ok_rate = 0;
  bool below_ladder = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Runs the rate ladder after the measured phase: up from the measured
// rung while rungs pass, down while they fail. Rung ops update the model
// like any other; their mismatches count against the run.
LadderResult RunLadder(Bench* b, const Workload& w, const Args& args,
                       PhaseResult* phase) {
  const double rung_seconds = std::max(1.0, args.seconds / 8);
  LadderResult ladder;
  ladder.rungs.push_back(JudgeRung(*phase, 1));
  auto run_rung = [&](int rung) {
    const double rate = w.rate * kLadder[rung];
    const std::vector<Op> ops =
        GenerateOps(w, static_cast<uint64_t>(rate * rung_seconds), args.seed,
                    100 + rung);
    PhaseOptions options;
    options.rate = rate;
    options.abortable = true;
    const PhaseResult r = PhaseRunner(b, &ops, options).Run();
    ladder.attempted += r.records.size();
    ladder.failed += Failed(r);
    phase->mismatches += r.mismatches;
    if (phase->first_mismatch.empty()) phase->first_mismatch = r.first_mismatch;
    // Later rungs start from an empty AUQ; a stuck queue fails the
    // correctness gate.
    WaitDrained(b->cluster.get()).IgnoreError();
    ladder.rungs.push_back(JudgeRung(r, kLadder[rung]));
    return ladder.rungs.back().pass;
  };
  const int rungs = static_cast<int>(std::size(kLadder));
  if (ladder.rungs[0].pass) {
    for (int r = kNominalRung + 1; r < rungs && run_rung(r); r++) {
    }
  } else {
    for (int r = kNominalRung - 1; r >= 0 && !run_rung(r); r--) {
    }
  }
  for (const Rung& rung : ladder.rungs) {
    if (rung.pass) {
      ladder.max_ok_rate = std::max(ladder.max_ok_rate, rung.achieved);
    }
  }
  // Below the lowest rung the highest passing rate is unknown; report the
  // lowest rung's throughput and flag it.
  ladder.below_ladder = ladder.max_ok_rate == 0;
  if (ladder.below_ladder) ladder.max_ok_rate = ladder.rungs.back().achieved;
  return ladder;
}

// Phase accounting self-check: every put RPC of the phase is a driver or
// probe put, an index-maintenance put, or a getByIndex read-repair delete
// (batched scan repairs ride multi_put RPCs), and the index puts match
// what the scheme must issue for the puts the driver made. Preload and
// set-up work would break both identities.
struct SelfCheck {
  uint64_t rpc_puts = 0;
  uint64_t base_puts = 0;
  uint64_t index_puts = 0;
  uint64_t expected_index_puts = 0;
  uint64_t repair_deletes = 0;
  uint64_t rpc_puts_before_phase = 0;
  uint64_t compactions_before_phase = 0;
  bool ok = false;
};

SelfCheck CheckPhaseAccounting(const Workload& w, const PhaseResult& phase,
                               const PhaseDeltas& d) {
  const uint64_t* ops = phase.ops_by_type;
  SelfCheck c;
  c.rpc_puts = Counter(d.delta, "rpc.put.calls");
  c.base_puts = ops[kTitle] + ops[kFullRow] + ops[kPrice] + phase.probe_puts;
  c.index_puts = Counter(d.delta, "io.index_put") +
                 Counter(d.delta, "io.async_index_put");
  c.repair_deletes = Counter(d.delta, "index.repair.deleted");
  // Each touched index costs PI + DI, or PI alone under sync-insert; a
  // full-row update touches both indexes.
  const uint64_t per_index = w.scheme == IndexScheme::kSyncInsert ? 1 : 2;
  c.expected_index_puts = per_index * (ops[kTitle] + 2 * ops[kFullRow] +
                                       ops[kPrice] + phase.probe_puts);
  c.rpc_puts_before_phase = Counter(d.after, "rpc.put.calls") - c.rpc_puts;
  c.compactions_before_phase =
      Counter(d.after, "lsm.compaction") - Counter(d.delta, "lsm.compaction");
  const uint64_t retries = Counter(d.delta, "client.retries") +
                           Counter(d.delta, "auq.retries");
  auto within = [retries](uint64_t a, uint64_t b) {
    return (a > b ? a - b : b - a) <= retries;
  };
  c.ok = within(c.rpc_puts, c.base_puts + c.index_puts + c.repair_deletes) &&
         within(c.index_puts, c.expected_index_puts) &&
         c.rpc_puts_before_phase >= w.items && c.compactions_before_phase > 0;
  return c;
}

// Generator lateness: how long ops started after they could have (due and
// a worker free). High values mean the driver, not the program, stalled.
uint64_t DriverLatenessP99(const PhaseResult& phase) {
  std::vector<uint64_t> lateness;
  for (const Record& rec : phase.records) lateness.push_back(rec.lateness_us);
  return Quantile(&lateness, TailQuantile(lateness.size()));
}

void AddEndToEnd(const PhaseResult& phase, const PhaseDeltas& d,
                 double setup_s, double max_ok_rate, Metrics* m) {
  m->Add("setup_s", setup_s, "s");
  // p50s are windowed; p99s cover the whole phase, so each rests on at
  // least 1,000 samples.
  for (int c = 0; c < kNumClasses; c++) {
    const std::string name = kClassNames[c];
    std::vector<uint64_t> latencies;
    for (const Record& rec : phase.records) {
      if (ClassOf(rec.type) == c) latencies.push_back(rec.end_us - rec.due_us);
    }
    m->Add(name + "_p50_us", LatencyQuantile(phase, c, false), "us");
    m->Add(name + "_p99_us",
           AsDouble(Quantile(&latencies, TailQuantile(latencies.size()))),
           "us");
  }
  m->Add("max_ok_rate_ops_s", max_ok_rate, "ops/s");
  std::vector<uint64_t> staleness = phase.staleness_us;
  m->Add("staleness_p99_us",
         AsDouble(Quantile(&staleness, TailQuantile(staleness.size()))), "us");
  m->Add("write_amp",
         Ratio(AsDouble(d.after_proc.wchar - d.before.wchar),
               AsDouble(phase.put_bytes)),
         "ratio");
  m->Add("space_amp", Ratio(AsDouble(d.data_bytes), AsDouble(d.live_bytes)),
         "ratio");
  m->Add("cpu_us_per_op", WindowedCpuPerOp(phase), "us");
  m->Add("rss_peak_mb", AsDouble(phase.rss_peak) / (1 << 20), "MB");
}

void AddLayers(const PhaseResult& phase, const PhaseDeltas& d,
               uint64_t base_puts, Metrics* m) {
  const double puts = AsDouble(base_puts);
  // IndexReader reads: getByIndex and rangeByIndex share the
  // index.repair.* counters.
  const double index_reads =
      AsDouble(phase.ops_by_type[kGet] + phase.ops_by_type[kRange]);
  const double scans = AsDouble(phase.ops_by_type[kScan]);
  const double ops = AsDouble(phase.records.size());
  auto c = [&d](const char* name) { return d.Count(name); };
  auto hist = [&d](const char* name) { return Hist(d.delta, name); };
  auto sum = [&d](const char* name) {
    return AsDouble(Hist(d.delta, name).sum);
  };

  uint64_t backlog_max = 0;
  for (const Record& rec : phase.records) {
    backlog_max = std::max(backlog_max, rec.backlog);
  }
  const uint64_t lateness_p99 = DriverLatenessP99(phase);
  m->Add("driver.lateness_p99_us", AsDouble(lateness_p99), "us");
  m->Add("driver.backlog_max", AsDouble(backlog_max), "count");
  m->Add("driver.fell_behind", lateness_p99 > kDriverLateFlagMicros ? 1 : 0,
         "flag");

  m->Add("core.index_rpcs_per_put", Ratio(c("io.index_put"), puts), "ratio");
  m->Add("core.base_reads_per_put", Ratio(c("io.base_read"), puts), "ratio");
  m->Add("core.index_sync_us_per_put", Ratio(sum("span.rs.index_sync"), puts),
         "us");
  m->Add("core.auq_depth_max", AsDouble(phase.auq_depth_max), "count");
  m->Add("core.auq_batch_avg", hist("auq.batch_size").Average(), "count");
  m->Add("core.aps_task_us_p99", HistPercentile(hist("auq.task_micros"), 99),
         "us");
  m->Add("core.flush_drain_us_p99",
         HistPercentile(hist("span.rs.flush_drain"), 99), "us");
  m->Add("core.get_by_index_repair_checked",
         Ratio(c("index.repair.checked"), index_reads), "ratio");
  m->Add("core.get_by_index_repair_deleted_frac",
         Ratio(c("index.repair.deleted"), c("index.repair.checked")), "ratio");

  const obs::HistogramSnapshot page = hist("span.query.page");
  m->Add("query.pages_per_scan", Ratio(c("query.pages"), scans), "ratio");
  m->Add("query.legs_per_scan", Ratio(c("query.legs"), scans), "ratio");
  m->Add("query.page_us_p50", HistPercentile(page, 50), "us");
  m->Add("query.page_us_p99", HistPercentile(page, 99), "us");
  m->Add("query.repair_us_p50", HistPercentile(hist("span.query.repair"), 50),
         "us");
  m->Add("query.base_reads_per_row",
         Ratio(AsDouble(phase.scan_rows), c("query.base_reads")), "ratio");
  m->Add("query.repair_deleted_frac",
         Ratio(c("query.repair.deleted"), c("query.repair.checked")), "ratio");

  double all_rpcs = 0;
  for (const auto& [name, value] : d.delta.counters) {
    const std::string suffix = ".calls";
    if (name.rfind("rpc.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      all_rpcs += AsDouble(value);
    }
  }
  const obs::HistogramSnapshot rpc_put = hist("span.rpc.put");
  const obs::HistogramSnapshot rs_put = hist("span.rs.put");
  m->Add("net.get_row_rpcs_per_scan", Ratio(c("rpc.get_row.calls"), scans),
         "ratio");
  m->Add("net.multi_get_rpcs_per_scan", Ratio(c("rpc.multi_get.calls"), scans),
         "ratio");
  m->Add("net.index_scan_rpcs_per_scan",
         Ratio(c("rpc.index_scan.calls"), scans), "ratio");
  m->Add("net.index_scan_leg_us_per_scan",
         Ratio(sum("span.rpc.index_scan"), scans), "us");
  m->Add("net.rpcs_per_op", Ratio(all_rpcs, ops), "ratio");
  m->Add("net.put_self_us",
         Ratio(AsDouble(rpc_put.sum) - AsDouble(rs_put.sum),
               AsDouble(rpc_put.count)),
         "us");

  m->Add("cluster.rs_put_us_p50", HistPercentile(rs_put, 50), "us");
  m->Add("cluster.rs_put_us_p99", HistPercentile(rs_put, 99), "us");
  m->Add("cluster.rs_put_self_us",
         Ratio(AsDouble(rs_put.sum) - sum("span.rs.index_sync"),
               AsDouble(rs_put.count)),
         "us");
  m->Add("cluster.flush_stall_us_p99",
         HistPercentile(hist("rs.flush_stall_micros"), 99), "us");
  m->Add("cluster.admission_delayed_frac", Ratio(c("admission.delayed"), puts),
         "ratio");
  m->Add("cluster.admission_delay_us",
         Ratio(c("admission.delayed_micros"), c("admission.delayed")), "us");
  m->Add("cluster.admission_rejected", c("admission.rejected"), "count");
  m->Add("cluster.client_retries", c("client.retries"), "count");
  m->Add("cluster.base_cache_hit_ratio",
         Ratio(c("base_cache.hit"), c("base_cache.hit") + c("base_cache.miss")),
         "ratio");

  const double dropped = c("lsm.compaction.dropped_masked") +
                         c("lsm.compaction.dropped_tombstones") +
                         c("lsm.compaction.dropped_versions");
  m->Add("lsm.flushes", c("lsm.flush"), "count");
  m->Add("lsm.flush_us_p99", HistPercentile(hist("lsm.flush_micros"), 99),
         "us");
  m->Add("lsm.compactions", c("lsm.compaction"), "count");
  m->Add("lsm.compaction_us_p50",
         HistPercentile(hist("lsm.compaction_micros"), 50), "us");
  m->Add("lsm.compaction_records_per_put",
         Ratio(c("lsm.compaction.input_records"), puts), "ratio");
  m->Add("lsm.compaction_dropped_frac",
         Ratio(dropped, c("lsm.compaction.input_records")), "ratio");

  const ProcCounters& p0 = d.before;
  const ProcCounters& p1 = d.after_proc;
  m->Add("proc.read_bytes_per_op", Ratio(AsDouble(p1.rchar - p0.rchar), ops),
         "B");
  m->Add("proc.write_bytes_per_op", Ratio(AsDouble(p1.wchar - p0.wchar), ops),
         "B");
  m->Add("proc.ctx_switches_per_op",
         Ratio(AsDouble(p1.ctx_switches - p0.ctx_switches), ops), "ratio");
}

// Traced sample: mean self time per layer, the residual, and the overhead
// (p50 send-to-completion of traced minus untraced ops of the same class).
void AddTrace(const PhaseResult& phase, Metrics* m) {
  for (int cls = 0; cls < kNumClasses; cls++) {
    const TraceSums& t = phase.trace[cls];
    const double n = AsDouble(t.samples);
    const std::string prefix = std::string("trace.") + kClassNames[cls] + ".";
    std::vector<uint64_t> traced;
    std::vector<uint64_t> untraced;
    for (const Record& rec : phase.records) {
      if (ClassOf(rec.type) != cls) continue;
      (rec.traced ? traced : untraced).push_back(rec.end_us - rec.start_us);
    }
    const double overhead =
        traced.empty() ? 0
                       : AsDouble(Quantile(&traced, 0.5)) -
                             AsDouble(Quantile(&untraced, 0.5));
    m->Add(prefix + "samples", n, "count");
    m->Add(prefix + "latency_us", Ratio(AsDouble(t.latency_us), n), "us");
    for (int l = 0; l < kNumLayers; l++) {
      m->Add(prefix + LayerName(static_cast<Layer>(l)) + "_self_us",
             Ratio(AsDouble(t.self_us[l]), n), "us");
    }
    m->Add(prefix + "residual_us",
           Ratio(static_cast<double>(t.residual_us), n), "us");
    m->Add(prefix + "overhead_us", overhead, "us");
  }
}

std::string Joined(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : " ") + std::to_string(v);
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

int Run(Args args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  printf("perfbench workload=%s scheme=%s seed=%llu seconds=%g trace=%d "
         "rate=%g ops/s items=%llu\n",
         w->name, IndexSchemeName(w->scheme),
         static_cast<unsigned long long>(args.seed), args.seconds,
         args.trace ? 1 : 0, w->rate,
         static_cast<unsigned long long>(w->items));

  // 1. Set-up, kSetups times; the last cluster is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetups; i++) {
    bench.reset();  // tear the previous cluster down outside the timing
    bench = std::make_unique<Bench>();
    const auto start = Clock::now();
    Status s = Setup(*w, args.seed,
                     args.data_dir + "/setup-" + std::to_string(i),
                     bench.get());
    if (!s.ok()) {
      fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(AsDouble(Micros(Clock::now() - start)) / 1e6);
  }
  Bench& b = *bench;
  Cluster* cluster = b.cluster.get();

  // 2. Measured phase, scoped by snapshots taken around it. It ends once
  // the AUQ has drained the phase's index work.
  const std::vector<Op> ops =
      GenerateOps(*w, static_cast<uint64_t>(w->rate * args.seconds),
                  args.seed, 1);
  PhaseOptions options;
  options.rate = w->rate;
  options.probe = true;
  options.trace = args.trace;
  PhaseDeltas d;
  const obs::MetricsSnapshot before = cluster->metrics()->Snapshot();
  d.before = ReadProcCounters();
  PhaseResult phase = PhaseRunner(&b, &ops, options).Run();
  d.drained = WaitDrained(cluster);
  d.after_proc = ReadProcCounters();
  d.after = cluster->metrics()->Snapshot();
  d.delta = d.after.Delta(before);
  for (uint64_t k = 0; k < b.items; k++) d.live_bytes += LiveItemBytes(b, k);
  d.data_bytes = DirectoryBytes(cluster->data_root());

  // 3. Rate ladder.
  const LadderResult ladder = RunLadder(&b, *w, args, &phase);

  // 4. Correctness gate and phase accounting.
  const Status final_drain = WaitDrained(cluster);
  const Verification verification = Verify(&b, args.seed);
  const SelfCheck check = CheckPhaseAccounting(*w, phase, d);
  const uint64_t mismatches = verification.mismatches + phase.mismatches;
  const std::string first_mismatch =
      !verification.first.empty() ? verification.first : phase.first_mismatch;
  const bool correct = mismatches == 0 && check.ok && d.drained.ok() &&
                       final_drain.ok();

  Metrics m;
  printf("end-to-end (measured phase):\n");
  AddEndToEnd(phase, d, Median(setup_s), ladder.max_ok_rate, &m);
  printf("per-layer (measured-phase deltas):\n");
  AddLayers(phase, d, check.base_puts, &m);
  printf("per-layer (traced sample, mean per op):\n");
  AddTrace(phase, &m);

  JsonObject info;
  info.String("workload", w->name);
  info.String("scheme", IndexSchemeName(w->scheme));
  info.Integer("seed", args.seed);
  info.Number("seconds", args.seconds);
  info.Number("rate_ops_s", w->rate);
  info.Integer("items", w->items);
  for (int cls = 0; cls < kNumClasses; cls++) {
    uint64_t n = 0;
    for (const Record& rec : phase.records) n += ClassOf(rec.type) == cls;
    info.Integer(std::string("samples.") + kClassNames[cls], n);
  }
  info.Integer("samples.staleness", phase.staleness_us.size());
  for (int t = 0; t < kNumOpTypes; t++) {
    info.Integer(std::string("ops.") + kOpNames[t], phase.ops_by_type[t]);
  }
  info.String("setup_s_each", Joined(setup_s));
  const std::string rungs = RungLog(ladder.rungs);
  info.String("ladder", rungs);
  info.Bool("ladder_below_floor", ladder.below_ladder);
  const uint64_t lateness_p99 = DriverLatenessP99(phase);
  const bool fell_behind = lateness_p99 > kDriverLateFlagMicros;
  info.Bool("driver_fell_behind", fell_behind);
  info.Number("phase_elapsed_s", AsDouble(phase.elapsed_us) / 1e6);
  info.Integer("selfcheck.rpc_put_calls", check.rpc_puts);
  info.Integer("selfcheck.base_puts", check.base_puts);
  info.Integer("selfcheck.index_puts", check.index_puts);
  info.Integer("selfcheck.expected_index_puts", check.expected_index_puts);
  info.Integer("selfcheck.repair_deletes", check.repair_deletes);
  info.Integer("selfcheck.rpc_put_calls_before_phase",
               check.rpc_puts_before_phase);
  info.Integer("selfcheck.compactions_before_phase",
               check.compactions_before_phase);
  info.Bool("selfcheck.ok", check.ok);
  info.Integer("verify.checks", verification.checks);
  info.Integer("verify.mismatches", mismatches);
  info.String("verify.first_mismatch", first_mismatch);
  info.Integer("data_bytes", d.data_bytes);
  info.Integer("live_bytes", d.live_bytes);

  printf("ladder: %s%s\n", rungs.c_str(),
         ladder.below_ladder ? " (below the lowest rung)" : "");
  printf("selfcheck: rpc.put=%llu base=%llu index=%llu (expected %llu) "
         "repair=%llu before-phase rpc.put=%llu -> %s\n",
         static_cast<unsigned long long>(check.rpc_puts),
         static_cast<unsigned long long>(check.base_puts),
         static_cast<unsigned long long>(check.index_puts),
         static_cast<unsigned long long>(check.expected_index_puts),
         static_cast<unsigned long long>(check.repair_deletes),
         static_cast<unsigned long long>(check.rpc_puts_before_phase),
         check.ok ? "ok" : "FAILED");
  printf("verify: %llu checks, %llu mismatches %s\n",
         static_cast<unsigned long long>(verification.checks),
         static_cast<unsigned long long>(mismatches), first_mismatch.c_str());

  if (fell_behind) {
    printf("WARNING: generator lateness p99 %lluus > %lluus: the driver fell "
           "behind its schedule, so latencies include driver stalls\n",
           static_cast<unsigned long long>(lateness_p99),
           static_cast<unsigned long long>(kDriverLateFlagMicros));
  }

  JsonObject out;
  out.Bool("correct", correct);
  out.Integer("attempted",
              phase.records.size() + phase.probe_puts + ladder.attempted);
  out.Integer("failed", Failed(phase) + ladder.failed);
  out.Raw("metrics", m.str());
  out.Raw("info", info.str());
  printf("%s\n", out.str().c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace diffindex::perfbench

int main(int argc, char** argv) {
  diffindex::perfbench::Args args;
  if (!diffindex::perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> --data-dir <dir>\n",
            argv[0]);
    return 2;
  }
  return diffindex::perfbench::Run(args);
}
