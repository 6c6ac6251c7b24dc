#include "optim/gradient_ops.h"

#include <limits>

#include <gtest/gtest.h>

#include "random/distributions.h"
#include "random/rng.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GradientUpdateTest, MatchesManualStep) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  Vector w{0.5, -0.5};
  const Vector e_x{1.0, 0.0};
  Example e{e_x, +1};
  double eta = 0.1;
  Vector updated = GradientUpdate(*loss, e, eta, w);
  Vector expected = w - eta * loss->Gradient(w, e);
  EXPECT_NEAR(Distance(updated, expected), 0.0, 1e-12);
}

// Lemma 1.1: convex + η ≤ 2/β ⇒ the update operator is 1-expansive.
// Verified empirically on random hypothesis pairs.
TEST(ExpansivenessTest, ConvexOperatorIsOneExpansive) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto rho = ExpansivenessBound(*loss, 1.0);  // η = 1 ≤ 2/β = 2
  ASSERT_TRUE(rho.ok());
  EXPECT_DOUBLE_EQ(rho.value(), 1.0);

  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    Vector u = SampleGaussianVector(4, 2.0, &rng);
    Vector v = SampleGaussianVector(4, 2.0, &rng);
    const Vector e_x = SampleUnitSphere(4, &rng);
    Example e{e_x, (trial % 2 == 0) ? +1 : -1};
    double before = Distance(u, v);
    double after = Distance(GradientUpdate(*loss, e, 1.0, u),
                            GradientUpdate(*loss, e, 1.0, v));
    EXPECT_LE(after, before + 1e-9);
  }
}

// Lemma 2: γ-strongly convex + η ≤ 1/β ⇒ (1 − ηγ)-expansive; the operator
// contracts.
TEST(ExpansivenessTest, StronglyConvexOperatorContracts) {
  const double lambda = 0.1;
  auto loss = MakeLogisticLoss(lambda, 10.0).MoveValue();
  const double eta = 0.5 / loss->smoothness();
  auto rho = ExpansivenessBound(*loss, eta);
  ASSERT_TRUE(rho.ok());
  EXPECT_DOUBLE_EQ(rho.value(), 1.0 - eta * lambda);
  EXPECT_LT(rho.value(), 1.0);

  Rng rng(72);
  for (int trial = 0; trial < 200; ++trial) {
    Vector u = SampleGaussianVector(4, 2.0, &rng);
    Vector v = SampleGaussianVector(4, 2.0, &rng);
    const Vector e_x = SampleUnitSphere(4, &rng);
    Example e{e_x, (trial % 2 == 0) ? +1 : -1};
    double before = Distance(u, v);
    double after = Distance(GradientUpdate(*loss, e, eta, u),
                            GradientUpdate(*loss, e, eta, v));
    EXPECT_LE(after, rho.value() * before + 1e-9);
  }
}

TEST(ExpansivenessTest, IntermediateEtaUsesLemma12Bound) {
  const double lambda = 0.5;
  auto loss = MakeLogisticLoss(lambda, 2.0).MoveValue();
  const double beta = loss->smoothness();
  const double gamma = loss->strong_convexity();
  // Pick η between 1/β and 2/(β+γ).
  const double eta = 0.5 * (1.0 / beta + 2.0 / (beta + gamma));
  auto rho = ExpansivenessBound(*loss, eta);
  ASSERT_TRUE(rho.ok());
  EXPECT_DOUBLE_EQ(rho.value(), 1.0 - 2.0 * eta * beta * gamma / (beta + gamma));
}

TEST(ExpansivenessTest, RejectsOutOfRegimeEta) {
  auto convex = MakeLogisticLoss(0.0, kInf).MoveValue();
  EXPECT_FALSE(ExpansivenessBound(*convex, 2.1).ok());  // > 2/β = 2
  EXPECT_FALSE(ExpansivenessBound(*convex, 0.0).ok());

  auto strong = MakeLogisticLoss(0.1, 10.0).MoveValue();
  double too_big = 2.0 / (strong->smoothness() + strong->strong_convexity()) +
                   0.01;
  EXPECT_FALSE(ExpansivenessBound(*strong, too_big).ok());
}

// Lemma 3: G is (ηL)-bounded — ‖G(w) − w‖ ≤ ηL.
TEST(BoundednessTest, UpdateDisplacementWithinEtaL) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  const double eta = 0.7;
  const double sigma = BoundednessBound(*loss, eta);
  EXPECT_DOUBLE_EQ(sigma, eta * loss->lipschitz());

  Rng rng(73);
  for (int trial = 0; trial < 200; ++trial) {
    Vector w = SampleGaussianVector(5, 3.0, &rng);
    const Vector e_x = SampleUnitSphere(5, &rng);
    Example e{e_x, (trial % 2 == 0) ? +1 : -1};
    Vector updated = GradientUpdate(*loss, e, eta, w);
    EXPECT_LE(Distance(updated, w), sigma + 1e-9);
  }
}

TEST(GrowthRecursionTest, MatchesLemma4Cases) {
  // Same operator: δ_t ≤ ρ δ_{t−1}.
  EXPECT_DOUBLE_EQ(GrowthRecursionStep(2.0, 0.9, 0.1, /*same_operator=*/true),
                   1.8);
  // Different operators: δ_t ≤ min(ρ,1) δ_{t−1} + 2σ.
  EXPECT_DOUBLE_EQ(GrowthRecursionStep(2.0, 0.9, 0.1, /*same_operator=*/false),
                   1.8 + 0.2);
  // Expansive ρ > 1 is clamped by min(ρ, 1) in the differing case.
  EXPECT_DOUBLE_EQ(GrowthRecursionStep(2.0, 1.5, 0.1, /*same_operator=*/false),
                   2.0 + 0.2);
  EXPECT_DOUBLE_EQ(GrowthRecursionStep(0.0, 1.0, 0.5, false), 1.0);
}

// Unrolling Lemma 4 over a 1-pass trajectory reproduces Corollary 1's 2Lη.
TEST(GrowthRecursionTest, UnrollingGivesTwoLEta) {
  const double rho = 1.0, eta = 0.25, L = 1.0;
  const size_t m = 50, differing = 20;
  double delta = 0.0;
  for (size_t t = 0; t < m; ++t) {
    delta = GrowthRecursionStep(delta, rho, eta * L, t != differing);
  }
  EXPECT_DOUBLE_EQ(delta, 2.0 * L * eta);
}

}  // namespace
}  // namespace bolton
