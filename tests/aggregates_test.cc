#include "engine/aggregates.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/catalog.h"

namespace bolton {
namespace {

Dataset MakeTiny() {
  Dataset ds(2, 2);
  ds.Add(Vector{1.0, 0.0}, +1);
  ds.Add(Vector{0.0, 1.0}, -1);
  ds.Add(Vector{0.5, 0.5}, +1);
  return ds;
}

TEST(AvgUdaTest, ComputesFeatureMeans) {
  Dataset ds = MakeTiny();
  auto table = MakeTable(ds, StorageMode::kMemory).MoveValue();
  auto means = TableFeatureMeans(*table);
  ASSERT_TRUE(means.ok());
  EXPECT_NEAR(means.value()[0], 0.5, 1e-12);
  EXPECT_NEAR(means.value()[1], 0.5, 1e-12);
}

TEST(AvgUdaTest, StateCarriesAcrossInvocations) {
  // Feed two scans through the same UDA by passing the raw state back in —
  // the aggregation-state contract the SGD UDA also relies on.
  Dataset ds = MakeTiny();
  auto table = MakeTable(ds, StorageMode::kMemory).MoveValue();
  AvgUda uda(2);
  uda.Initialize(Vector(3));
  table->Scan([&uda](const Example& row) { uda.Transition(row); }).CheckOK();
  table->Scan([&uda](const Example& row) { uda.Transition(row); }).CheckOK();
  Vector means = uda.Terminate();
  // Doubled rows, same means.
  EXPECT_NEAR(means[0], 0.5, 1e-12);
}

TEST(LabelCountUdaTest, CountsPerSign) {
  Dataset ds = MakeTiny();
  auto table = MakeTable(ds, StorageMode::kMemory).MoveValue();
  LabelCountUda uda;
  auto counts = RunAggregate(*table, &uda, Vector(2));
  ASSERT_TRUE(counts.ok());
  EXPECT_DOUBLE_EQ(counts.value()[0], 1.0);  // negatives
  EXPECT_DOUBLE_EQ(counts.value()[1], 2.0);  // positives
}

TEST(NormStatsUdaTest, MinMaxMean) {
  Dataset ds(1, 2);
  ds.Add(Vector{3.0}, +1);
  ds.Add(Vector{-1.0}, -1);
  ds.Add(Vector{2.0}, +1);
  auto table = MakeTable(ds, StorageMode::kMemory).MoveValue();
  auto stats = TableNormStats(*table);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.value()[0], 1.0);  // min
  EXPECT_DOUBLE_EQ(stats.value()[1], 3.0);  // max
  EXPECT_DOUBLE_EQ(stats.value()[2], 2.0);  // mean
}

TEST(NormStatsUdaTest, AuditsUnitBallPreprocessing) {
  SyntheticConfig config;
  config.num_examples = 200;
  config.dim = 6;
  config.seed = 211;
  Dataset ds = GenerateSynthetic(config).MoveValue();
  auto table = MakeTable(ds, StorageMode::kMemory).MoveValue();
  auto stats = TableNormStats(*table);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats.value()[1], 1.0 + 1e-12);  // generator normalizes
}

TEST(RunAggregateTest, NullUdaRejected) {
  Dataset ds = MakeTiny();
  auto table = MakeTable(ds, StorageMode::kMemory).MoveValue();
  EXPECT_FALSE(RunAggregate(*table, nullptr, Vector()).ok());
}

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

TEST(CatalogTest, RegisterGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("train", MakeTiny(), StorageMode::kMemory).ok());
  EXPECT_TRUE(catalog.Contains("train"));
  EXPECT_EQ(catalog.size(), 1u);

  auto table = catalog.Get("train");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), 3u);

  EXPECT_TRUE(catalog.Drop("train").ok());
  EXPECT_FALSE(catalog.Contains("train"));
  EXPECT_EQ(catalog.Get("train").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.Drop("train").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("t", MakeTiny(), StorageMode::kMemory).ok());
  EXPECT_EQ(catalog.CreateTable("t", MakeTiny(), StorageMode::kMemory).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CatalogTest, ListTablesSorted) {
  Catalog catalog;
  catalog.CreateTable("zeta", MakeTiny(), StorageMode::kMemory).CheckOK();
  catalog.CreateTable("alpha", MakeTiny(), StorageMode::kMemory).CheckOK();
  EXPECT_EQ(catalog.ListTables(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(CatalogTest, RejectsBadRegistrations) {
  Catalog catalog;
  EXPECT_FALSE(catalog.Register("x", nullptr).ok());
  auto table = MakeTable(MakeTiny(), StorageMode::kMemory);
  EXPECT_FALSE(catalog.Register("", table.MoveValue()).ok());
}

}  // namespace
}  // namespace bolton
