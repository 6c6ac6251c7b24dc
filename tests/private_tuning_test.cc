#include "core/private_tuning.h"

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/trainer.h"

namespace bolton {
namespace {

Dataset MakeData(size_t m = 600, uint64_t seed = 141) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 8;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

// A fake trainer that returns a fixed model per candidate index, letting the
// tests control validation error exactly: candidate i returns the vector
// quality_i · w*, where w* classifies perfectly and quality 0 is a zero
// model (50% error).
class FixedModels {
 public:
  explicit FixedModels(std::vector<Vector> models) : models_(std::move(models)) {}

  TuningTrainFn AsTrainFn(const std::vector<TuningCandidate>& grid) {
    return [this, &grid](const Dataset&, const TuningCandidate& candidate,
                         Rng*) -> Result<Vector> {
      // Identify the candidate by pointer arithmetic over the grid.
      for (size_t i = 0; i < grid.size(); ++i) {
        if (&grid[i] == &candidate) return models_[i];
      }
      // Fall back to matching by value.
      for (size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].passes == candidate.passes &&
            grid[i].batch_size == candidate.batch_size &&
            grid[i].lambda == candidate.lambda) {
          return models_[i];
        }
      }
      return Status::Internal("unknown candidate");
    };
  }

 private:
  std::vector<Vector> models_;
};

TEST(MakeTuningGridTest, CartesianProduct) {
  auto grid = MakeTuningGrid({5, 10}, {50}, {1e-4, 1e-3, 1e-2});
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].passes, 5u);
  EXPECT_EQ(grid[0].batch_size, 50u);
  EXPECT_DOUBLE_EQ(grid[0].lambda, 1e-4);
  EXPECT_EQ(grid[5].passes, 10u);
  EXPECT_DOUBLE_EQ(grid[5].lambda, 1e-2);
}

TEST(PrivateTuningTest, SelectsGoodCandidateWithLargeEpsilon) {
  // One candidate is a strong model, the others are anti-models. With a
  // large ε the exponential mechanism must pick the good one almost surely.
  Dataset data = MakeData();
  // Train a decent reference model to use as the "good" candidate.
  TrainerConfig ref_config;
  ref_config.passes = 5;
  ref_config.batch_size = 10;
  Rng ref_rng(1);
  Vector good = TrainBinary(data, ref_config, &ref_rng).MoveValue();
  Vector bad = -1.0 * good;

  auto grid = MakeTuningGrid({5, 10, 20}, {50}, {1e-4});
  FixedModels models({bad, good, bad});
  Rng rng(2);
  auto out = PrivatelyTunedSgd(data, grid, PrivacyParams{50.0, 0.0},
                               models.AsTrainFn(grid), &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().selected_index, 1u);
  ASSERT_EQ(out.value().error_counts.size(), 3u);
  EXPECT_LT(out.value().error_counts[1], out.value().error_counts[0]);
}

TEST(PrivateTuningTest, SmallEpsilonRandomizesSelection) {
  // With ε → 0 the exponential mechanism is near-uniform; across repeats we
  // must see more than one index selected.
  Dataset data = MakeData(300, 142);
  auto grid = MakeTuningGrid({5, 10, 20}, {50}, {1e-4});
  Vector w_a(data.dim()), w_b(data.dim()), w_c(data.dim());
  w_a[0] = 1.0;
  w_b[1] = 1.0;
  w_c[2] = 1.0;
  FixedModels models({w_a, w_b, w_c});

  std::set<size_t> selected;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    auto out = PrivatelyTunedSgd(data, grid, PrivacyParams{1e-4, 0.0},
                                 models.AsTrainFn(grid), &rng);
    ASSERT_TRUE(out.ok());
    selected.insert(out.value().selected_index);
  }
  EXPECT_GT(selected.size(), 1u);
}

TEST(PrivateTuningTest, EndToEndWithRealTrainer) {
  Dataset data = MakeData(900, 143);
  auto grid = MakeTuningGrid({5, 10}, {20}, {1e-4, 1e-3, 1e-2});
  TuningTrainFn train = [](const Dataset& portion,
                           const TuningCandidate& candidate,
                           Rng* rng) -> Result<Vector> {
    TrainerConfig config;
    config.algorithm = Algorithm::kBoltOn;
    config.lambda = candidate.lambda;
    config.passes = candidate.passes;
    config.batch_size = std::min(candidate.batch_size, portion.size());
    config.privacy = PrivacyParams{4.0, 0.0};
    return TrainBinary(portion, config, rng);
  };
  Rng rng(3);
  auto out =
      PrivatelyTunedSgd(data, grid, PrivacyParams{4.0, 0.0}, train, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().error_counts.size(), grid.size());
  EXPECT_EQ(out.value().model.dim(), data.dim());
}

TEST(PrivateTuningTest, Validation) {
  Dataset data = MakeData(100, 144);
  auto grid = MakeTuningGrid({5}, {10}, {1e-4});
  TuningTrainFn train = [](const Dataset&, const TuningCandidate&,
                           Rng*) -> Result<Vector> { return Vector(8); };
  Rng rng(4);
  // Empty grid.
  EXPECT_FALSE(
      PrivatelyTunedSgd(data, {}, PrivacyParams{1.0, 0.0}, train, &rng).ok());
  // Null train fn.
  EXPECT_FALSE(
      PrivatelyTunedSgd(data, grid, PrivacyParams{1.0, 0.0}, nullptr, &rng)
          .ok());
  // Bad budget.
  EXPECT_FALSE(
      PrivatelyTunedSgd(data, grid, PrivacyParams{0.0, 0.0}, train, &rng)
          .ok());
  // Too little data for the grid size.
  Dataset tiny(8, 2);
  tiny.Add(Vector(8), +1);
  auto big_grid = MakeTuningGrid({1, 2}, {1}, {1e-4});
  EXPECT_FALSE(PrivatelyTunedSgd(tiny, big_grid, PrivacyParams{1.0, 0.0},
                                 train, &rng)
                   .ok());
}

TEST(PublicGridSearchTest, PicksArgminErrors) {
  Dataset train_data = MakeData(200, 145);
  Dataset validation = MakeData(200, 146);
  TrainerConfig ref_config;
  ref_config.passes = 5;
  ref_config.batch_size = 10;
  Rng ref_rng(5);
  Vector good = TrainBinary(train_data, ref_config, &ref_rng).MoveValue();
  Vector bad = -1.0 * good;

  auto grid = MakeTuningGrid({5, 10}, {50}, {1e-4});
  FixedModels models({bad, good});
  Rng rng(6);
  auto out = PublicGridSearch(train_data, validation, grid,
                              models.AsTrainFn(grid), &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().selected_index, 1u);
  EXPECT_EQ(out.value().model, good);
}

TEST(PublicGridSearchTest, Validation) {
  Dataset data = MakeData(50, 147);
  Dataset empty(8, 2);
  auto grid = MakeTuningGrid({5}, {10}, {1e-4});
  TuningTrainFn train = [](const Dataset&, const TuningCandidate&,
                           Rng*) -> Result<Vector> { return Vector(8); };
  Rng rng(7);
  EXPECT_FALSE(PublicGridSearch(data, empty, grid, train, &rng).ok());
  EXPECT_FALSE(PublicGridSearch(data, data, {}, train, &rng).ok());
}

}  // namespace
}  // namespace bolton
