// Unit tests for the benchmark's own logic: the tail-percentile rule, the
// open-loop arrival schedule and the exactly-once budget reconciliation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {
namespace {

TEST(TailPercentile, PicksHighestWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(10000), 99.9);  // 10 beyond
  EXPECT_EQ(TailPercentileFor(9999), 99.0);   // p99.9 leaves 9
  EXPECT_EQ(TailPercentileFor(1000), 99.0);
  EXPECT_EQ(TailPercentileFor(999), 95.0);
  EXPECT_EQ(TailPercentileFor(200), 95.0);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(40), 75.0);
  EXPECT_EQ(TailPercentileFor(39), 50.0);
  EXPECT_EQ(TailPercentileFor(3), 50.0);
}

TEST(TailPercentile, EverySelectionLeavesAtLeastTenBeyond) {
  for (size_t n = 20; n < 30000; n += 7) {
    EXPECT_GE(SamplesBeyond(n, TailPercentileFor(n)), kTailBeyond) << n;
  }
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 90.0), 90.0);
  EXPECT_EQ(Percentile(v, 99.9), 100.0);
  EXPECT_EQ(Percentile({7.0}, 50.0), 7.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 50.0)));
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_EQ(s.tail, 90.0);
}

TEST(Arrivals, SameSeedSameSchedule) {
  const auto a = MakeArrivals(42, 1000.0, 4000);
  const auto b = MakeArrivals(42, 1000.0, 4000);
  const auto c = MakeArrivals(43, 1000.0, 4000);
  ASSERT_EQ(a.size(), 4000u);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].is_train, b[i].is_train);
    EXPECT_EQ(a[i].pick, b[i].pick);
    differs |= a[i].due_s != c[i].due_s;
  }
  EXPECT_TRUE(differs);
}

TEST(Arrivals, IncreasingAtTheOfferedRate) {
  const double rate = 1600.0;
  const auto a = MakeArrivals(7, rate, 40000);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i].due_s, a[i - 1].due_s);
  const double observed = a.size() / a.back().due_s;
  EXPECT_NEAR(observed, rate, rate * 0.02);
}

TEST(Arrivals, ExactlyOneTrainPerGroup) {
  for (uint64_t seed : {1ull, 2ull, 99ull}) {
    const auto a = MakeArrivals(seed, 500.0, 400);
    for (size_t g = 0; g < a.size(); g += kMixGroup) {
      int trains = 0;
      for (size_t i = g; i < g + kMixGroup; ++i) trains += a[i].is_train;
      EXPECT_EQ(trains, 1);
    }
  }
}

TEST(Reconcile, ExactSpendPasses) {
  const std::map<std::string, size_t> trains = {{"t0", 3}, {"t1", 1000}};
  std::map<std::string, TenantSpend> accounts;
  accounts["t0"].spent_epsilon = 0.03;
  // A thousand 0.01 charges summed in floating point.
  for (int i = 0; i < 1000; ++i) accounts["t1"].spent_epsilon += 0.01;
  accounts["t2"] = TenantSpend();  // untouched tenant
  EXPECT_TRUE(ReconcileBudget(trains, 0.01, accounts).empty());
}

TEST(Reconcile, DoubleChargeFails) {
  std::map<std::string, TenantSpend> accounts;
  accounts["t0"].spent_epsilon = 0.04;
  const auto problems = ReconcileBudget({{"t0", 3}}, 0.01, accounts);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("t0"), std::string::npos);
}

TEST(Reconcile, LeftoverReserveFails) {
  std::map<std::string, TenantSpend> accounts;
  accounts["t0"].spent_epsilon = 0.03;
  accounts["t0"].reserved_epsilon = 0.01;
  EXPECT_EQ(ReconcileBudget({{"t0", 3}}, 0.01, accounts).size(), 1u);
}

TEST(Reconcile, MissingAccountAndUnexplainedSpendFail) {
  std::map<std::string, TenantSpend> accounts;
  accounts["t9"].spent_epsilon = 0.01;
  EXPECT_EQ(ReconcileBudget({{"t0", 1}}, 0.01, accounts).size(), 2u);
}

TEST(Slope, RecoversLinearGrowth) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(250.0 * i);
    y.push_back(9000.0 + 1.5 * 250.0 * i);
  }
  EXPECT_NEAR(Slope(x, y), 1.5, 1e-9);
  EXPECT_EQ(Slope({1.0}, {2.0}), 0.0);
}

}  // namespace
}  // namespace perfbench
