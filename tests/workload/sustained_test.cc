// Sustained-load substrate tests: statistical sanity of the key choosers
// (chi-square for the flat ones, skew/mass checks for the skewed ones)
// and pacing accuracy of the closed-loop runner.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "util/histogram.h"
#include "workload/generators.h"
#include "workload/item_table.h"
#include "workload/runner.h"

namespace diffindex {
namespace {

// Pearson chi-square statistic for `draws` samples binned uniformly into
// `bins` bins over [0, num_items).
double ChiSquare(KeyChooser* chooser, uint64_t num_items, int bins,
                 int draws) {
  std::vector<int> observed(bins, 0);
  for (int i = 0; i < draws; i++) {
    const uint64_t key = chooser->Next();
    EXPECT_LT(key, num_items);
    observed[key * bins / num_items]++;
  }
  const double expected = static_cast<double>(draws) / bins;
  double stat = 0;
  for (int count : observed) {
    const double d = count - expected;
    stat += d * d / expected;
  }
  return stat;
}

TEST(SustainedChooserTest, UniformPassesChiSquare) {
  auto chooser = KeyChooser::Create(KeyDistribution::kUniform, 10000, 17);
  // 20 bins -> 19 dof; chi-square critical value at alpha=0.001 is 43.8.
  EXPECT_LT(ChiSquare(chooser.get(), 10000, 20, 20000), 43.8);
}

TEST(SustainedChooserTest, ZipfianFailsChiSquareAndIsHeadHeavy) {
  auto chooser = KeyChooser::Create(KeyDistribution::kZipfian, 10000, 17);
  // The same test a uniform stream passes must reject zipfian decisively.
  EXPECT_GT(ChiSquare(chooser.get(), 10000, 20, 20000), 1000.0);
  // And the skew is head-heavy the YCSB way: the single most popular key
  // owns a few percent of all draws.
  std::map<uint64_t, int> counts;
  auto skewed = KeyChooser::Create(KeyDistribution::kZipfian, 10000, 18);
  for (int i = 0; i < 20000; i++) counts[skewed->Next()]++;
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 20000 / 100);
}

TEST(SustainedChooserTest, HotspotSplitsMassPerKnobs) {
  KeyChooserParams params;
  params.hotspot_set_fraction = 0.1;   // keys [0, 1000) are hot
  params.hotspot_op_fraction = 0.9;    // and take 90% of operations
  auto chooser =
      KeyChooser::Create(KeyDistribution::kHotspot, 10000, 23, params);
  const int draws = 30000;
  int hot = 0;
  std::vector<int> hot_bins(10, 0);
  for (int i = 0; i < draws; i++) {
    const uint64_t key = chooser->Next();
    ASSERT_LT(key, 10000u);
    if (key < 1000) {
      hot++;
      hot_bins[key / 100]++;
    }
  }
  const double hot_share = static_cast<double>(hot) / draws;
  EXPECT_GT(hot_share, 0.87);
  EXPECT_LT(hot_share, 0.93);
  // Within the hot set draws are uniform: chi-square over 10 bins
  // (9 dof, critical value 27.9 at alpha=0.001).
  const double expected = static_cast<double>(hot) / 10;
  double stat = 0;
  for (int count : hot_bins) {
    const double d = count - expected;
    stat += d * d / expected;
  }
  EXPECT_LT(stat, 27.9);
}

TEST(SustainedChooserTest, LatestConcentratesBehindRecencyCursor) {
  std::atomic<uint64_t> recency{0};
  KeyChooserParams params;
  params.recency = &recency;
  auto chooser =
      KeyChooser::Create(KeyDistribution::kLatest, 10000, 31, params);

  auto mass_within = [&](uint64_t edge, uint64_t radius) {
    int near = 0;
    for (int i = 0; i < 5000; i++) {
      const uint64_t key = chooser->Next();
      EXPECT_LT(key, 10000u);
      // distance backwards from the cursor, with wraparound
      const uint64_t back = (edge + 10000 - key) % 10000;
      if (back < radius) near++;
    }
    return static_cast<double>(near) / 5000;
  };

  // With the cursor parked at 4000, most draws land just behind it...
  recency.store(4000);
  EXPECT_GT(mass_within(4000, 100), 0.5);
  // ...and the hot region follows the cursor when it advances.
  recency.store(9990);  // wraps: hot region straddles the 0 boundary
  EXPECT_GT(mass_within(9990, 100), 0.5);
  EXPECT_LT(mass_within(4000, 100), 0.2);
}

class SustainedRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 2;
    options.regions_per_table = 4;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(SustainedRunnerTest, PacingHoldsTargetWithinTolerance) {
  ItemTableOptions item_options;
  item_options.num_items = 200;
  ItemTable items(cluster_.get(), item_options);
  ASSERT_TRUE(items.Create().ok());

  RunnerOptions options;
  options.op = WorkloadOp::kUpdateTitle;
  options.threads = 4;
  options.total_operations = 0;
  options.max_duration_ms = 1000;
  options.target_tps = 500;
  WorkloadRunner runner(cluster_.get(), &items, options);
  ASSERT_TRUE(runner.LoadItems(4).ok());

  // Count completed ops per 250 ms interval from the runner's registry
  // histogram while the run is in flight; the interval that straddles
  // the end of the run is partial and not judged below.
  const Histogram* ops =
      cluster_->metrics()->GetHistogram("workload.update_title_micros");
  std::atomic<bool> done{false};
  std::vector<uint64_t> intervals;
  std::thread sampler([&] {
    auto tick = std::chrono::steady_clock::now();
    uint64_t seen = ops->Count();
    for (;;) {
      tick += std::chrono::milliseconds(250);
      std::this_thread::sleep_until(tick);
      const uint64_t count = ops->Count();
      intervals.push_back(count - seen);
      seen = count;
      if (done.load()) return;
    }
  });
  RunnerResult result;
  const Status run = runner.Run(&result);
  done.store(true);
  sampler.join();
  ASSERT_TRUE(run.ok());
  // +-30%: generous for CI noise, tight enough to catch a broken pacer
  // (unpaced this cluster does tens of thousands of TPS).
  EXPECT_GT(result.tps, 350.0);
  EXPECT_LT(result.tps, 650.0);
  // And the pacing is steady per interval, not front-loaded.
  ASSERT_GE(intervals.size(), 3u);
  for (size_t w = 0; w + 1 < intervals.size(); w++) {
    EXPECT_GT(intervals[w], 60u) << "interval " << w;
    EXPECT_LT(intervals[w], 250u) << "interval " << w;
  }
}


}  // namespace
}  // namespace diffindex
