#include "data/projection.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "random/distributions.h"

namespace bolton {
namespace {

TEST(RandomProjectionTest, DimensionsCorrect) {
  auto projection = GaussianRandomProjection::Create(784, 50, 1);
  ASSERT_TRUE(projection.ok());
  EXPECT_EQ(projection.value().input_dim(), 784u);
  EXPECT_EQ(projection.value().output_dim(), 50u);
  Rng rng(2);
  Vector x = SampleUnitSphere(784, &rng);
  EXPECT_EQ(projection.value().Apply(x).dim(), 50u);
}

TEST(RandomProjectionTest, InvalidDimensionsRejected) {
  EXPECT_FALSE(GaussianRandomProjection::Create(0, 50, 1).ok());
  EXPECT_FALSE(GaussianRandomProjection::Create(784, 0, 1).ok());
}

TEST(RandomProjectionTest, ApproximatelyPreservesNorms) {
  // Johnson–Lindenstrauss: with T entries N(0, 1/k), E‖Tx‖² = ‖x‖². Check
  // the average over many unit vectors is near 1.
  auto projection = GaussianRandomProjection::Create(200, 50, 3);
  ASSERT_TRUE(projection.ok());
  Rng rng(4);
  const int n = 2000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    Vector x = SampleUnitSphere(200, &rng);
    sum += projection.value().Apply(x).SquaredNorm();
  }
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(RandomProjectionTest, SameSeedSameMap) {
  auto a = GaussianRandomProjection::Create(20, 5, 42);
  auto b = GaussianRandomProjection::Create(20, 5, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(5);
  Vector x = SampleUnitSphere(20, &rng);
  EXPECT_EQ(a.value().Apply(x), b.value().Apply(x));
}

TEST(RandomProjectionTest, DatasetProjectionKeepsLabelsAndNormalizes) {
  SyntheticConfig config;
  config.num_examples = 100;
  config.dim = 100;
  config.seed = 6;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  auto projection = GaussianRandomProjection::Create(100, 10, 7);
  ASSERT_TRUE(projection.ok());
  auto projected = projection.value().Apply(ds.value());
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected.value().dim(), 10u);
  EXPECT_EQ(projected.value().size(), ds.value().size());
  EXPECT_LE(projected.value().MaxFeatureNorm(), 1.0 + 1e-12);
  for (size_t i = 0; i < ds.value().size(); ++i) {
    EXPECT_EQ(projected.value()[i].label, ds.value()[i].label);
  }
}

TEST(RandomProjectionTest, DimensionMismatchRejected) {
  SyntheticConfig config;
  config.num_examples = 10;
  config.dim = 30;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  auto projection = GaussianRandomProjection::Create(100, 10, 7);
  ASSERT_TRUE(projection.ok());
  EXPECT_FALSE(projection.value().Apply(ds.value()).ok());
}

// Neighboring datasets stay neighboring under a data-independent T — the
// privacy-preservation property of §2 ("Random Projection").
TEST(RandomProjectionTest, NeighboringDatasetsStayNeighboring) {
  SyntheticConfig config;
  config.num_examples = 50;
  config.dim = 40;
  config.seed = 8;
  auto base = GenerateSynthetic(config);
  ASSERT_TRUE(base.ok());
  Dataset neighbor = base.value();
  Rng rng(9);
  neighbor.Replace(7, SampleUnitSphere(40, &rng), -1);

  auto projection = GaussianRandomProjection::Create(40, 8, 10);
  ASSERT_TRUE(projection.ok());
  auto pa = projection.value().Apply(base.value());
  auto pb = projection.value().Apply(neighbor);
  ASSERT_TRUE(pa.ok() && pb.ok());
  size_t differing = 0;
  for (size_t i = 0; i < pa.value().size(); ++i) {
    if (!(pa.value()[i].x == pb.value()[i].x)) ++differing;
  }
  EXPECT_EQ(differing, 1u);
}

}  // namespace
}  // namespace bolton
