#include "ml/binary_stats.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/trainer.h"

namespace bolton {
namespace {

Dataset MakeScored() {
  // Model w = (1) scores x directly; construct known confusion counts.
  Dataset test(1, 2);
  test.Add(Vector{2.0}, +1);   // TP
  test.Add(Vector{1.0}, +1);   // TP
  test.Add(Vector{0.5}, -1);   // FP
  test.Add(Vector{-1.0}, -1);  // TN
  test.Add(Vector{-2.0}, +1);  // FN
  return test;
}

TEST(BinaryStatsTest, CountsMatchHandConstruction) {
  BinaryStats stats = ComputeBinaryStats(Vector{1.0}, MakeScored());
  EXPECT_EQ(stats.true_positives, 2u);
  EXPECT_EQ(stats.false_positives, 1u);
  EXPECT_EQ(stats.true_negatives, 1u);
  EXPECT_EQ(stats.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(stats.Accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(stats.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.Recall(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.F1(), 2.0 / 3.0);
}

TEST(BinaryStatsTest, AccuracyAgreesWithMetricsModule) {
  Dataset test = MakeScored();
  Vector model{1.0};
  EXPECT_DOUBLE_EQ(ComputeBinaryStats(model, test).Accuracy(),
                   BinaryAccuracy(model, test));
}

TEST(BinaryStatsTest, DegenerateCases) {
  BinaryStats empty;
  EXPECT_DOUBLE_EQ(empty.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Precision(), 1.0);  // no positive predictions
  EXPECT_DOUBLE_EQ(empty.Recall(), 1.0);     // no positives
  EXPECT_DOUBLE_EQ(empty.F1(), 1.0);

  BinaryStats all_wrong;
  all_wrong.false_positives = 3;
  all_wrong.false_negatives = 2;
  EXPECT_DOUBLE_EQ(all_wrong.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(all_wrong.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(all_wrong.F1(), 0.0);
}

TEST(BinaryStatsTest, ToStringMentionsEverything) {
  std::string s = ComputeBinaryStats(Vector{1.0}, MakeScored()).ToString();
  EXPECT_NE(s.find("tp=2"), std::string::npos);
  EXPECT_NE(s.find("f1="), std::string::npos);
}

TEST(RocAucTest, PerfectSeparationIsOne) {
  Dataset test(1, 2);
  test.Add(Vector{3.0}, +1);
  test.Add(Vector{2.0}, +1);
  test.Add(Vector{-1.0}, -1);
  test.Add(Vector{-2.0}, -1);
  EXPECT_DOUBLE_EQ(RocAuc(Vector{1.0}, test).value(), 1.0);
  // An anti-model gets AUC 0.
  EXPECT_DOUBLE_EQ(RocAuc(Vector{-1.0}, test).value(), 0.0);
}

TEST(RocAucTest, TiesGetHalfCredit) {
  // All scores identical: AUC must be exactly 0.5 via midranks.
  Dataset test(1, 2);
  test.Add(Vector{1.0}, +1);
  test.Add(Vector{1.0}, -1);
  test.Add(Vector{1.0}, +1);
  test.Add(Vector{1.0}, -1);
  EXPECT_DOUBLE_EQ(RocAuc(Vector{1.0}, test).value(), 0.5);
}

TEST(RocAucTest, HandComputedMixedCase) {
  // Scores: +1 examples at {3, 1}, −1 examples at {2, 0}.
  // Pairs: (3>2, 3>0, 1<2, 1>0) → 3 of 4 → AUC 0.75.
  Dataset test(1, 2);
  test.Add(Vector{3.0}, +1);
  test.Add(Vector{1.0}, +1);
  test.Add(Vector{2.0}, -1);
  test.Add(Vector{0.0}, -1);
  EXPECT_DOUBLE_EQ(RocAuc(Vector{1.0}, test).value(), 0.75);
}

TEST(RocAucTest, SingleClassRejected) {
  Dataset test(1, 2);
  test.Add(Vector{1.0}, +1);
  test.Add(Vector{2.0}, +1);
  EXPECT_FALSE(RocAuc(Vector{1.0}, test).ok());
}

TEST(RocAucTest, TrainedModelBeatsChance) {
  SyntheticConfig config;
  config.num_examples = 600;
  config.dim = 8;
  config.margin = 2.0;
  config.noise_stddev = 0.6;
  config.seed = 201;
  Dataset data = GenerateSynthetic(config).MoveValue();
  TrainerConfig trainer;
  trainer.passes = 5;
  trainer.batch_size = 10;
  Rng rng(1);
  Vector model = TrainBinary(data, trainer, &rng).MoveValue();
  EXPECT_GT(RocAuc(model, data).value(), 0.9);
}

// ---------------------------------------------------------------------------
// Cross-validation.
// ---------------------------------------------------------------------------

TEST(KFoldSplitTest, FoldsPartitionTheData) {
  SyntheticConfig config;
  config.num_examples = 103;  // not divisible by k
  config.dim = 4;
  config.seed = 202;
  Dataset data = GenerateSynthetic(config).MoveValue();
  Rng rng(2);
  auto folds = KFoldSplit(data, 5, &rng);
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds.value().size(), 5u);
  size_t total_validation = 0;
  for (const Fold& fold : folds.value()) {
    EXPECT_EQ(fold.train.size() + fold.validation.size(), data.size());
    total_validation += fold.validation.size();
  }
  EXPECT_EQ(total_validation, data.size());
}

TEST(KFoldSplitTest, Validation) {
  SyntheticConfig config;
  config.num_examples = 10;
  config.dim = 2;
  Dataset data = GenerateSynthetic(config).MoveValue();
  Rng rng(3);
  EXPECT_FALSE(KFoldSplit(data, 1, &rng).ok());
  EXPECT_FALSE(KFoldSplit(data, 11, &rng).ok());
  EXPECT_TRUE(KFoldSplit(data, 10, &rng).ok());
}

TEST(CrossValidateTest, ScoresEveryFold) {
  SyntheticConfig config;
  config.num_examples = 500;
  config.dim = 6;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = 203;
  Dataset data = GenerateSynthetic(config).MoveValue();

  FoldTrainFn train = [](const Dataset& train_data,
                         Rng* rng) -> Result<Vector> {
    TrainerConfig trainer;
    trainer.passes = 5;
    trainer.batch_size = 10;
    return TrainBinary(train_data, trainer, rng);
  };
  FoldScoreFn score = [](const Vector& model, const Dataset& validation) {
    return BinaryAccuracy(model, validation);
  };
  Rng rng(4);
  auto result = CrossValidate(data, 5, train, score, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().fold_scores.size(), 5u);
  EXPECT_GT(result.value().mean, 0.85);
  EXPECT_GE(result.value().stddev, 0.0);
  EXPECT_LT(result.value().stddev, 0.2);
}

TEST(CrossValidateTest, NullFunctionsRejected) {
  SyntheticConfig config;
  config.num_examples = 20;
  config.dim = 2;
  Dataset data = GenerateSynthetic(config).MoveValue();
  Rng rng(5);
  FoldScoreFn score = [](const Vector&, const Dataset&) { return 0.0; };
  EXPECT_FALSE(CrossValidate(data, 2, nullptr, score, &rng).ok());
}

}  // namespace
}  // namespace bolton
