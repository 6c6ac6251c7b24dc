#include "data/dataset.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "random/distributions.h"
#include "random/permutation.h"
#include "random/rng.h"

namespace bolton {
namespace {

Dataset MakeSmall() {
  Dataset ds(2, 2);
  ds.Add(Vector{1.0, 0.0}, +1);
  ds.Add(Vector{0.0, 2.0}, -1);
  ds.Add(Vector{3.0, 4.0}, +1);
  return ds;
}

TEST(DatasetTest, BasicAccess) {
  Dataset ds = MakeSmall();
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds[0].label, +1);
  EXPECT_EQ(ds[1].x, (Vector{0.0, 2.0}));
  EXPECT_FALSE(ds.empty());
  EXPECT_TRUE(Dataset(2, 2).empty());
}

TEST(DatasetTest, ReplaceSwapsOneExample) {
  Dataset ds = MakeSmall();
  ds.Replace(1, Vector{9.0, 9.0}, +1);
  EXPECT_EQ(ds[1].x, (Vector{9.0, 9.0}));
  EXPECT_EQ(ds[1].label, +1);
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds[0].x, (Vector{1.0, 0.0}));  // others untouched
}

TEST(DatasetTest, NormalizeToUnitBall) {
  Dataset ds = MakeSmall();
  ds.NormalizeToUnitBall();
  EXPECT_LE(ds.MaxFeatureNorm(), 1.0 + 1e-12);
  // Vectors already inside the ball are left alone.
  EXPECT_EQ(ds[0].x, (Vector{1.0, 0.0}));
  // The (3,4) vector is scaled to norm 1, direction preserved.
  EXPECT_NEAR(ds[2].x.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(ds[2].x[0] / ds[2].x[1], 0.75, 1e-12);
}

TEST(DatasetTest, SubsetSelectsInOrder) {
  Dataset ds = MakeSmall();
  Dataset sub = ds.Subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].x, (Vector{3.0, 4.0}));
  EXPECT_EQ(sub[1].x, (Vector{1.0, 0.0}));
}

TEST(DatasetTest, SplitAtPartitions) {
  Dataset ds = MakeSmall();
  auto [head, tail] = ds.SplitAt(1);
  EXPECT_EQ(head.size(), 1u);
  EXPECT_EQ(tail.size(), 2u);
  EXPECT_EQ(head[0].label, +1);
  EXPECT_EQ(tail[0].label, -1);
}

TEST(DatasetTest, SplitEvenBalances) {
  Dataset ds(1, 2);
  for (int i = 0; i < 10; ++i) {
    ds.Add(Vector{static_cast<double>(i)}, +1);
  }
  std::vector<Dataset> parts = ds.SplitEven(3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);  // 10 = 4 + 3 + 3
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  // Order preserved across the split.
  EXPECT_EQ(parts[1][0].x[0], 4.0);
  EXPECT_EQ(parts[2][2].x[0], 9.0);
}

TEST(DatasetTest, OneVsAllViewMapsLabels) {
  Dataset ds(1, 3);
  ds.Add(Vector{0.0}, 0);
  ds.Add(Vector{1.0}, 1);
  ds.Add(Vector{2.0}, 2);
  Dataset view = ds.OneVsAllView(1);
  EXPECT_EQ(view.num_classes(), 2);
  EXPECT_EQ(view[0].label, -1);
  EXPECT_EQ(view[1].label, +1);
  EXPECT_EQ(view[2].label, -1);
  // The original is untouched.
  EXPECT_EQ(ds[1].label, 1);
}

TEST(DatasetTest, ShuffleKeepsContents) {
  Rng rng(51);
  Dataset ds(1, 2);
  for (int i = 0; i < 100; ++i) {
    ds.Add(Vector{static_cast<double>(i)}, i % 2 == 0 ? 1 : -1);
  }
  double sum_before = 0.0;
  for (size_t i = 0; i < ds.size(); ++i) sum_before += ds[i].x[0];
  ds.Shuffle(&rng);
  double sum_after = 0.0;
  bool order_changed = false;
  for (size_t i = 0; i < ds.size(); ++i) {
    sum_after += ds[i].x[0];
    if (ds[i].x[0] != static_cast<double>(i)) order_changed = true;
  }
  EXPECT_DOUBLE_EQ(sum_before, sum_after);
  EXPECT_TRUE(order_changed);
}

// The row-per-heap-vector semantics the contiguous block must reproduce:
// each operation below is applied to a vector of owning rows exactly as the
// heap layout did (ShuffleInPlace over the rows, `x *= 1/‖x‖`, copies), and
// the block must then hold the same bits and labels in every row.
struct HeapRow {
  Vector x;
  int label;
};
using HeapRows = std::vector<HeapRow>;

void ExpectSameRows(const Dataset& ds, const HeapRows& want) {
  ASSERT_EQ(ds.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(ds[i].x.dim(), want[i].x.dim());
    EXPECT_EQ(std::memcmp(ds[i].x.data(), want[i].x.data(),
                          want[i].x.dim() * sizeof(double)),
              0)
        << "row " << i;
    EXPECT_EQ(ds[i].label, want[i].label) << "row " << i;
  }
}

// 37 rows at d = 7 (an odd width, so rows straddle SIMD lanes and cache
// lines), norms on both sides of 1, multiclass labels.
std::pair<Dataset, HeapRows> MakeRandomRows(uint64_t seed) {
  Rng rng(seed);
  Dataset ds(7, 3);
  HeapRows rows;
  for (int i = 0; i < 37; ++i) {
    Vector x = SampleGaussianVector(7, 0.6, &rng);
    int label = static_cast<int>(rng.UniformInt(3));
    ds.Add(x, label);
    rows.push_back({x, label});
  }
  return {std::move(ds), std::move(rows)};
}

TEST(DatasetLayoutTest, AddAndReplaceMatchHeapRows) {
  auto [ds, rows] = MakeRandomRows(3);
  ExpectSameRows(ds, rows);
  Rng rng(4);
  const Vector fresh = SampleGaussianVector(7, 1.0, &rng);
  ds.Replace(5, fresh, 2);
  rows[5] = {fresh, 2};
  // A row replaced by (a view of) another row of the same block.
  ds.Replace(9, ds[30].x, ds[30].label);
  rows[9] = rows[30];
  ds.Replace(11, ds[11].x, 0);
  rows[11].label = 0;
  ExpectSameRows(ds, rows);
}

TEST(DatasetLayoutTest, AddOfOwnRowSurvivesGrowth) {
  Dataset ds(3, 2);
  HeapRows rows;
  ds.Add(Vector{1.0, 2.0, 3.0}, +1);
  rows.push_back({Vector{1.0, 2.0, 3.0}, +1});
  // Each append may reallocate the block the source view points into.
  for (int i = 0; i < 40; ++i) {
    const size_t src = static_cast<size_t>(i) % ds.size();
    ds.Add(ds[src].x, -ds[src].label);
    rows.push_back({rows[src].x, -rows[src].label});
  }
  ExpectSameRows(ds, rows);
}

TEST(DatasetLayoutTest, NormalizeMatchesHeapRows) {
  auto [ds, rows] = MakeRandomRows(5);
  ds.NormalizeToUnitBall();
  for (HeapRow& r : rows) {
    double n = r.x.Norm();
    if (n > 1.0) r.x *= (1.0 / n);
  }
  ExpectSameRows(ds, rows);
}

TEST(DatasetLayoutTest, ShuffleMatchesHeapRows) {
  auto [ds, rows] = MakeRandomRows(6);
  Rng a(77), b(77);
  ds.Shuffle(&a);
  ShuffleInPlace(&rows, &b);
  ExpectSameRows(ds, rows);
  EXPECT_EQ(a.Next(), b.Next());  // same rng consumption
}

TEST(DatasetLayoutTest, CopiesMatchHeapRows) {
  auto [ds, rows] = MakeRandomRows(7);
  const std::vector<size_t> pick = {36, 0, 5, 5, 17, 1};
  HeapRows picked;
  for (size_t i : pick) picked.push_back(rows[i]);
  Dataset sub = ds.Subset(pick);
  ExpectSameRows(sub, picked);
  EXPECT_EQ(sub.num_classes(), 3);

  auto [head, tail] = ds.SplitAt(10);
  ExpectSameRows(head, HeapRows(rows.begin(), rows.begin() + 10));
  ExpectSameRows(tail, HeapRows(rows.begin() + 10, rows.end()));

  std::vector<Dataset> parts = ds.SplitEven(4);  // 37 = 10 + 9 + 9 + 9
  size_t begin = 0;
  for (const Dataset& part : parts) {
    ExpectSameRows(part, HeapRows(rows.begin() + begin,
                                  rows.begin() + begin + part.size()));
    begin += part.size();
  }
  EXPECT_EQ(begin, rows.size());

  Dataset binary = ds.OneVsAllView(2);
  for (HeapRow& r : rows) r.label = r.label == 2 ? +1 : -1;
  ExpectSameRows(binary, rows);
}

TEST(DatasetLayoutTest, WrongDimensionAddFailsItsCheck) {
  Dataset ds(2, 2);
  EXPECT_DEATH(ds.Add(Vector{1.0, 2.0, 3.0}, +1), "check failed");
}

TEST(DatasetTest, SummaryMentionsShape) {
  Dataset ds = MakeSmall();
  std::string summary = ds.Summary("tiny");
  EXPECT_NE(summary.find("tiny"), std::string::npos);
  EXPECT_NE(summary.find("m=3"), std::string::npos);
  EXPECT_NE(summary.find("d=2"), std::string::npos);
}

}  // namespace
}  // namespace bolton
