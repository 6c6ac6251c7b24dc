#include "data/transforms.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace bolton {
namespace {

Dataset MakeRaw() {
  // Feature 0 spans hundreds, feature 1 is tiny, feature 2 is constant.
  Dataset ds(3, 2);
  ds.Add(Vector{100.0, 0.01, 5.0}, +1);
  ds.Add(Vector{300.0, 0.03, 5.0}, -1);
  ds.Add(Vector{200.0, 0.02, 5.0}, +1);
  return ds;
}

TEST(StandardizerTest, FittedMomentsAreCorrect) {
  auto standardizer = Standardizer::Fit(MakeRaw());
  ASSERT_TRUE(standardizer.ok());
  EXPECT_NEAR(standardizer.value().means()[0], 200.0, 1e-9);
  EXPECT_NEAR(standardizer.value().means()[1], 0.02, 1e-12);
  // Population stddev of {100,200,300} is sqrt(20000/3).
  EXPECT_NEAR(standardizer.value().stddevs()[0],
              std::sqrt(20000.0 / 3.0), 1e-9);
  // Constant features get stddev 1.
  EXPECT_DOUBLE_EQ(standardizer.value().stddevs()[2], 1.0);
}

TEST(StandardizerTest, TransformedDataHasZeroMeanUnitVariance) {
  Dataset ds = MakeRaw();
  auto standardizer = Standardizer::Fit(ds).MoveValue();
  Dataset transformed = standardizer.Apply(ds).MoveValue();
  for (size_t j = 0; j < 2; ++j) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < transformed.size(); ++i) {
      mean += transformed[i].x[j];
    }
    mean /= transformed.size();
    for (size_t i = 0; i < transformed.size(); ++i) {
      var += (transformed[i].x[j] - mean) * (transformed[i].x[j] - mean);
    }
    var /= transformed.size();
    EXPECT_NEAR(mean, 0.0, 1e-9) << "feature " << j;
    EXPECT_NEAR(var, 1.0, 1e-9) << "feature " << j;
  }
  // Labels untouched.
  EXPECT_EQ(transformed[1].label, -1);
}

TEST(StandardizerTest, TrainFitAppliesToTest) {
  Dataset train = MakeRaw();
  auto standardizer = Standardizer::Fit(train).MoveValue();
  // A test point transformed with TRAIN statistics.
  Vector test_point{250.0, 0.025, 5.0};
  Vector transformed = standardizer.Apply(test_point);
  EXPECT_NEAR(transformed[0], 50.0 / std::sqrt(20000.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(transformed[2], 0.0);  // centered constant feature
}

TEST(StandardizerTest, Validation) {
  EXPECT_FALSE(Standardizer::Fit(Dataset(3, 2)).ok());
  auto standardizer = Standardizer::Fit(MakeRaw()).MoveValue();
  Dataset wrong_dim(2, 2);
  wrong_dim.Add(Vector{1.0, 2.0}, +1);
  EXPECT_FALSE(standardizer.Apply(wrong_dim).ok());
}

TEST(ClassCountsTest, CountsPerLabel) {
  SyntheticConfig config;
  config.num_examples = 1000;
  config.dim = 3;
  config.num_classes = 4;
  config.seed = 221;
  Dataset ds = GenerateSynthetic(config).MoveValue();
  auto counts = ClassCounts(ds);
  ASSERT_EQ(counts.size(), 4u);
  size_t total = 0;
  for (const auto& [label, count] : counts) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
    total += count;
  }
  EXPECT_EQ(total, ds.size());
}

TEST(StratifiedSplitTest, PreservesClassRatios) {
  // An imbalanced binary set: 90 positives, 10 negatives.
  Dataset ds(1, 2);
  for (int i = 0; i < 90; ++i) {
    ds.Add(Vector{static_cast<double>(i)}, +1);
  }
  for (int i = 0; i < 10; ++i) {
    ds.Add(Vector{static_cast<double>(-i)}, -1);
  }
  Rng rng(1);
  auto split = StratifiedSplit(ds, 0.2, &rng);
  ASSERT_TRUE(split.ok());
  auto [train, test] = split.value();
  auto train_counts = ClassCounts(train);
  auto test_counts = ClassCounts(test);
  EXPECT_EQ(test_counts[+1], 18u);  // 20% of each class exactly
  EXPECT_EQ(test_counts[-1], 2u);
  EXPECT_EQ(train_counts[+1], 72u);
  EXPECT_EQ(train_counts[-1], 8u);
}

TEST(StratifiedSplitTest, Validation) {
  Dataset ds(1, 2);
  ds.Add(Vector{1.0}, +1);
  Rng rng(2);
  EXPECT_FALSE(StratifiedSplit(Dataset(1, 2), 0.2, &rng).ok());
  EXPECT_FALSE(StratifiedSplit(ds, 0.0, &rng).ok());
  EXPECT_FALSE(StratifiedSplit(ds, 1.0, &rng).ok());
}

TEST(DownsampleMajorityTest, CapsImbalance) {
  Dataset ds(1, 2);
  for (int i = 0; i < 100; ++i) {
    ds.Add(Vector{static_cast<double>(i)}, +1);
  }
  for (int i = 0; i < 10; ++i) {
    ds.Add(Vector{static_cast<double>(-i)}, -1);
  }
  Rng rng(3);
  auto balanced = DownsampleMajority(ds, 2.0, &rng);
  ASSERT_TRUE(balanced.ok());
  auto counts = ClassCounts(balanced.value());
  EXPECT_EQ(counts[-1], 10u);          // minority untouched
  EXPECT_EQ(counts[+1], 20u);          // majority capped at 2x
}

TEST(DownsampleMajorityTest, AlreadyBalancedUnchangedInSize) {
  Dataset ds(1, 2);
  for (int i = 0; i < 10; ++i) {
    ds.Add(Vector{static_cast<double>(i)}, i % 2 == 0 ? +1 : -1);
  }
  Rng rng(4);
  auto balanced = DownsampleMajority(ds, 2.0, &rng);
  ASSERT_TRUE(balanced.ok());
  EXPECT_EQ(balanced.value().size(), 10u);
}

TEST(DownsampleMajorityTest, Validation) {
  Dataset ds(1, 2);
  ds.Add(Vector{1.0}, +1);
  Rng rng(5);
  EXPECT_FALSE(DownsampleMajority(ds, 0.5, &rng).ok());
  EXPECT_FALSE(DownsampleMajority(ds, 2.0, &rng).ok());  // one class only
}

}  // namespace
}  // namespace bolton
