#include "ml/metrics.h"

#include <gtest/gtest.h>

namespace bolton {
namespace {

TEST(BinaryAccuracyTest, CountsCorrectSigns) {
  Dataset test(2, 2);
  test.Add(Vector{1.0, 0.0}, +1);   // score +1 -> correct
  test.Add(Vector{-1.0, 0.0}, -1);  // score -1 -> correct
  test.Add(Vector{1.0, 0.0}, -1);   // score +1 -> wrong
  test.Add(Vector{0.0, 1.0}, +1);   // score 0 -> predicts +1, correct
  Vector model{1.0, 0.0};
  EXPECT_DOUBLE_EQ(BinaryAccuracy(model, test), 0.75);
}

TEST(BinaryAccuracyTest, EmptySetIsZero) {
  EXPECT_DOUBLE_EQ(BinaryAccuracy(Vector{1.0}, Dataset(1, 2)), 0.0);
}

TEST(MulticlassAccuracyTest, ArgmaxScoring) {
  MulticlassModel model;
  model.weights = {Vector{1.0, 0.0}, Vector{0.0, 1.0}};
  Dataset test(2, 2);
  test.Add(Vector{1.0, 0.1}, 0);
  test.Add(Vector{0.1, 1.0}, 1);
  test.Add(Vector{1.0, 0.0}, 1);  // wrong
  EXPECT_NEAR(MulticlassAccuracy(model, test), 2.0 / 3.0, 1e-12);
}

TEST(ConfusionMatrixTest, RecordsAndSummarizes) {
  ConfusionMatrix confusion(3);
  confusion.Record(0, 0);
  confusion.Record(0, 0);
  confusion.Record(0, 1);
  confusion.Record(1, 1);
  confusion.Record(2, 0);
  EXPECT_EQ(confusion.At(0, 0), 2u);
  EXPECT_EQ(confusion.At(0, 1), 1u);
  EXPECT_EQ(confusion.At(2, 0), 1u);
  EXPECT_EQ(confusion.At(2, 2), 0u);
  EXPECT_NEAR(confusion.Accuracy(), 3.0 / 5.0, 1e-12);
  std::string table = confusion.ToString();
  EXPECT_NE(table.find("true\\pred"), std::string::npos);
}

TEST(ConfusionMatrixTest, EmptyAccuracyIsZero) {
  EXPECT_DOUBLE_EQ(ConfusionMatrix(2).Accuracy(), 0.0);
}

TEST(ComputeConfusionTest, MatchesAccuracy) {
  MulticlassModel model;
  model.weights = {Vector{1.0, 0.0}, Vector{0.0, 1.0}};
  Dataset test(2, 2);
  test.Add(Vector{1.0, 0.1}, 0);
  test.Add(Vector{0.1, 1.0}, 1);
  test.Add(Vector{1.0, 0.0}, 1);
  ConfusionMatrix confusion = ComputeConfusion(model, test);
  EXPECT_DOUBLE_EQ(confusion.Accuracy(), MulticlassAccuracy(model, test));
  EXPECT_EQ(confusion.At(1, 0), 1u);
}

}  // namespace
}  // namespace bolton
