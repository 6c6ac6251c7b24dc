#include "optim/psgd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/metrics.h"
#include "optim/schedule.h"
#include "random/permutation.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeTrainingSet(size_t m = 400, uint64_t seed = 81) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 10;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

TEST(PsgdTest, ReducesEmpiricalRisk) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule =
      MakeConstantStep(1.0 / std::sqrt(static_cast<double>(data.size())))
          .MoveValue();
  PsgdOptions options;
  options.passes = 5;
  Rng rng(1);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  double trained_risk = loss->EmpiricalRisk(run.value().model, data);
  double zero_risk = loss->EmpiricalRisk(Vector(data.dim()), data);
  EXPECT_LT(trained_risk, zero_risk);
}

TEST(PsgdTest, LearnsSeparableData) {
  Dataset data = MakeTrainingSet(1000);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 10;
  options.batch_size = 10;
  Rng rng(2);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(BinaryAccuracy(run.value().model, data), 0.9);
}

TEST(PsgdTest, StatsCountCorrectly) {
  Dataset data = MakeTrainingSet(100);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 3;
  options.batch_size = 7;  // 100 = 14*7 + 2: 15 updates per pass
  Rng rng(3);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.gradient_evaluations, 300u);
  EXPECT_EQ(run.value().stats.updates, 45u);
  EXPECT_EQ(run.value().stats.noise_samples, 0u);
}

TEST(PsgdTest, ProjectionKeepsIterateInBall) {
  Dataset data = MakeTrainingSet(200);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeConstantStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 5;
  options.radius = 0.05;  // tiny ball; unconstrained training would escape
  Rng rng(4);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_LE(run.value().model.Norm(), 0.05 + 1e-12);
}

TEST(PsgdTest, DeterministicForFixedSeed) {
  Dataset data = MakeTrainingSet(150);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.2).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  Rng rng_a(5), rng_b(5);
  auto a = RunPsgd(data, *loss, *schedule, options, &rng_a);
  auto b = RunPsgd(data, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().model, b.value().model);
}

TEST(PsgdTest, AveragingChangesOutput) {
  Dataset data = MakeTrainingSet(150);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.2).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  Rng rng_a(6), rng_b(6);
  options.output = OutputMode::kLastIterate;
  auto last = RunPsgd(data, *loss, *schedule, options, &rng_a);
  options.output = OutputMode::kAverageAll;
  auto averaged = RunPsgd(data, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(last.ok() && averaged.ok());
  EXPECT_GT(Distance(last.value().model, averaged.value().model), 0.0);
  // The average of iterates has smaller norm than the last (we start at 0
  // and move outward on this data).
  EXPECT_LT(averaged.value().model.Norm(), last.value().model.Norm());
}

TEST(PsgdTest, FullBatchEqualsGradientDescent) {
  // With b = m, each pass is one full-gradient step — verify the single
  // update against a hand-computed one.
  Dataset data = MakeTrainingSet(50);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.3).MoveValue();
  PsgdOptions options;
  options.passes = 1;
  options.batch_size = data.size();
  Rng rng(7);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.updates, 1u);

  Vector w(data.dim());
  Vector grad(data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    loss->AddGradient(w, data[i], 1.0 / data.size(), &grad);
  }
  w.Axpy(-0.3, grad);
  EXPECT_NEAR(Distance(run.value().model, w), 0.0, 1e-12);
}

TEST(PsgdTest, PassCallbackFiresPerPass) {
  Dataset data = MakeTrainingSet(60);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 4;
  Rng rng(8);
  std::vector<size_t> passes_seen;
  auto run = RunPsgd(data, *loss, *schedule, options, &rng, nullptr,
                     [&](size_t pass, const Vector& w) {
                       passes_seen.push_back(pass);
                       EXPECT_EQ(w.dim(), data.dim());
                     });
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(passes_seen, (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(PsgdTest, WithReplacementSamplingRuns) {
  Dataset data = MakeTrainingSet(200);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeInverseSqrtStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 3;
  options.batch_size = 10;
  options.sampling = SamplingMode::kWithReplacement;
  Rng rng(9);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.updates, 60u);
  EXPECT_GT(BinaryAccuracy(run.value().model, data), 0.8);
}

TEST(PsgdTest, FreshPermutationStillLearns) {
  Dataset data = MakeTrainingSet(300);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.3).MoveValue();
  PsgdOptions options;
  options.passes = 5;
  options.fresh_permutation_each_pass = true;
  Rng rng(10);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(BinaryAccuracy(run.value().model, data), 0.9);
}

// A per-step noise hook must be sampled once per update and added to the
// gradient; a deterministic "noise" of zero must not change the output.
class CountingNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t dim, Rng*) override {
    ++calls_;
    return Vector(dim);
  }
  size_t calls() const { return calls_; }

 private:
  size_t calls_ = 0;
};

TEST(PsgdTest, NoiseHookSampledPerUpdate) {
  Dataset data = MakeTrainingSet(100);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 10;
  CountingNoise noise;
  Rng rng_a(11), rng_b(11);
  auto noisy = RunPsgd(data, *loss, *schedule, options, &rng_a, &noise);
  auto clean = RunPsgd(data, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(noisy.ok() && clean.ok());
  EXPECT_EQ(noise.calls(), 20u);
  EXPECT_EQ(noisy.value().stats.noise_samples, 20u);
  EXPECT_EQ(noisy.value().model, clean.value().model);
}

class FailingNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t, Rng*) override {
    return Status::Internal("noise sampler broke");
  }
};

TEST(PsgdTest, NoiseErrorPropagates) {
  Dataset data = MakeTrainingSet(50);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  FailingNoise noise;
  Rng rng(12);
  EXPECT_EQ(RunPsgd(data, *loss, *schedule, options, &rng, &noise)
                .status()
                .code(),
            StatusCode::kInternal);
}

TEST(PsgdTest, ValidationErrors) {
  Dataset data = MakeTrainingSet(50);
  Dataset empty(10, 2);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  Rng rng(13);

  PsgdOptions options;
  EXPECT_FALSE(RunPsgd(empty, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.passes = 0;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.batch_size = 0;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.batch_size = data.size() + 1;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.radius = 0.0;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());
}

// Algorithm 1's loop written out with the same kernel calls in the same
// order as RunPsgd, but with no row-access policy and no prefetch: the
// model RunPsgd must reproduce bit for bit.
Vector ReferencePsgd(const Dataset& data, const LossFunction& loss,
                     const StepSizeSchedule& schedule,
                     const PsgdOptions& options, Rng* rng) {
  const size_t m = data.size();
  Vector w(data.dim());
  Vector grad(data.dim());
  std::vector<size_t> order = RandomPermutation(m, rng);
  size_t step = 0;
  for (size_t pass = 1; pass <= options.passes; ++pass) {
    if (pass > 1 && options.fresh_permutation_each_pass) {
      order = RandomPermutation(m, rng);
    }
    for (size_t begin = 0; begin < m; begin += options.batch_size) {
      const size_t len = std::min(options.batch_size, m - begin);
      const double scale = 1.0 / static_cast<double>(len);
      for (size_t j = 0; j < len; ++j) {
        loss.AddGradient(w, data[order.at(begin + j)], scale, &grad);
      }
      w.Axpy(-schedule.StepSize(++step), grad);
      if (std::isfinite(options.radius)) {
        ProjectToL2BallInPlace(&w, options.radius);
      }
      grad.SetZero();
    }
  }
  return w;
}

bool BitIdentical(const Vector& a, const Vector& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.data(), b.data(), a.dim() * sizeof(double)) == 0;
}

// The loop prefetches the row a fixed distance ahead in the permutation.
// Near the end of `order` — fewer rows than that distance, a single row, a
// partial last batch — it must neither read past `order` (bounds-checked
// builds abort on that) nor change a single bit of the model.
TEST(PsgdTest, PrefetchNearEndOfOrderKeepsModelBitIdentical) {
  struct Case {
    size_t m, b, passes;
    bool fresh;
  };
  for (const Case& c : {Case{1, 1, 2, false}, Case{3, 1, 2, true},
                        Case{7, 1, 3, false}, Case{7, 3, 2, true},
                        Case{9, 4, 2, false}, Case{40, 6, 2, true}}) {
    Dataset data = MakeTrainingSet(c.m, 90 + c.m);
    auto loss = MakeLogisticLoss(0.05, 20.0).MoveValue();
    auto schedule = MakeInverseTimeStep(0.05, 1.05).MoveValue();
    PsgdOptions options;
    options.passes = c.passes;
    options.batch_size = c.b;
    options.radius = 20.0;
    options.fresh_permutation_each_pass = c.fresh;
    Rng run_rng(31), reference_rng(31);
    auto run = RunPsgd(data, *loss, *schedule, options, &run_rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(BitIdentical(
        run.value().model,
        ReferencePsgd(data, *loss, *schedule, options, &reference_rng)))
        << "m=" << c.m << " b=" << c.b;
    EXPECT_EQ(run_rng.Next(), reference_rng.Next());
  }
}

TEST(PsgdTest, RunOnRowsMatchesRunOnSubsetCopy) {
  Dataset data = MakeTrainingSet(60);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeInverseTimeStep(0.1, 1.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 3;
  options.radius = 10.0;
  Rng pick_rng(5);
  std::vector<size_t> rows = RandomPermutation(data.size(), &pick_rng);
  rows.resize(23);
  Rng view_rng(9), copy_rng(9);
  auto view = RunPsgdOnRows(data, rows, *loss, *schedule, options, &view_rng);
  auto copy =
      RunPsgd(data.Subset(rows), *loss, *schedule, options, &copy_rng);
  ASSERT_TRUE(view.ok() && copy.ok());
  EXPECT_TRUE(BitIdentical(view.value().model, copy.value().model));
  EXPECT_EQ(view.value().stats.gradient_evaluations, 2u * 23u);

  std::vector<size_t> bad = {0, data.size()};
  EXPECT_EQ(RunPsgdOnRows(data, bad, *loss, *schedule, options, &view_rng)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(
      RunPsgdOnRows(data, {}, *loss, *schedule, options, &view_rng).ok());
}

}  // namespace
}  // namespace bolton
