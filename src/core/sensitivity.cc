#include "core/sensitivity.h"

#include <cmath>

#include "util/strings.h"

namespace bolton {

namespace {

Status ValidateSetup(const SensitivitySetup& setup) {
  if (setup.passes < 1) return Status::InvalidArgument("passes must be >= 1");
  if (setup.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (setup.num_examples < 1) {
    return Status::InvalidArgument("num_examples must be >= 1");
  }
  return Status::OK();
}

Status RequireConvexOnly(const LossFunction& loss) {
  if (loss.IsStronglyConvex()) {
    return Status::FailedPrecondition(
        "loss '" + loss.name() +
        "' is strongly convex; use the strongly convex sensitivity bounds "
        "(they are tighter)");
  }
  return Status::OK();
}

Status RequireStronglyConvex(const LossFunction& loss) {
  if (!loss.IsStronglyConvex()) {
    return Status::FailedPrecondition(
        "loss '" + loss.name() + "' is not strongly convex (gamma == 0)");
  }
  return Status::OK();
}

}  // namespace

Result<double> ConvexConstantStepSensitivity(const LossFunction& loss,
                                             double eta,
                                             const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireConvexOnly(loss));
  if (eta <= 0.0) return Status::InvalidArgument("eta must be > 0");
  if (eta > 2.0 / loss.smoothness()) {
    return Status::InvalidArgument(StrFormat(
        "eta=%g exceeds 2/beta=%g; 1-expansiveness (Lemma 1.1) fails and "
        "Corollary 1 does not apply",
        eta, 2.0 / loss.smoothness()));
  }
  double delta2 = 2.0 * static_cast<double>(setup.passes) * loss.lipschitz() *
                  eta;
  return delta2 / static_cast<double>(setup.batch_size);
}

Result<double> ConvexDecreasingStepSensitivity(const LossFunction& loss,
                                               double c,
                                               const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireConvexOnly(loss));
  if (c < 0.0 || c >= 1.0) {
    return Status::InvalidArgument("c must be in [0, 1)");
  }
  const double L = loss.lipschitz();
  const double beta = loss.smoothness();
  const double m = static_cast<double>(setup.num_examples);
  const double mc = std::pow(m, c);
  double sum = 0.0;
  for (size_t j = 0; j < setup.passes; ++j) {
    sum += 1.0 / (mc + static_cast<double>(j) * m + 1.0);
  }
  return (4.0 * L / beta) * sum / static_cast<double>(setup.batch_size);
}

Result<double> ConvexDecreasingStepSensitivityClosedForm(
    const LossFunction& loss, double c, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireConvexOnly(loss));
  if (c < 0.0 || c >= 1.0) {
    return Status::InvalidArgument("c must be in [0, 1)");
  }
  const double L = loss.lipschitz();
  const double beta = loss.smoothness();
  const double m = static_cast<double>(setup.num_examples);
  const double k = static_cast<double>(setup.passes);
  double bound = (4.0 * L / beta) * (1.0 / std::pow(m, c) + std::log(k) / m);
  return bound / static_cast<double>(setup.batch_size);
}

Result<double> ConvexSqrtStepSensitivity(const LossFunction& loss, double c,
                                         const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireConvexOnly(loss));
  if (c < 0.0 || c >= 1.0) {
    return Status::InvalidArgument("c must be in [0, 1)");
  }
  const double L = loss.lipschitz();
  const double beta = loss.smoothness();
  const double m = static_cast<double>(setup.num_examples);
  const double mc = std::pow(m, c);
  double sum = 0.0;
  for (size_t j = 0; j < setup.passes; ++j) {
    sum += 1.0 / (std::sqrt(static_cast<double>(j) * m + 1.0) + mc);
  }
  return (4.0 * L / beta) * sum / static_cast<double>(setup.batch_size);
}

Result<double> StronglyConvexConstantStepSensitivity(
    const LossFunction& loss, double eta, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireStronglyConvex(loss));
  if (eta <= 0.0) return Status::InvalidArgument("eta must be > 0");
  if (eta > 1.0 / loss.smoothness()) {
    return Status::InvalidArgument(StrFormat(
        "eta=%g exceeds 1/beta=%g; (1-eta*gamma)-expansiveness (Lemma 2) "
        "fails and Lemma 7 does not apply",
        eta, 1.0 / loss.smoothness()));
  }
  const double L = loss.lipschitz();
  const double gamma = loss.strong_convexity();
  const double m = static_cast<double>(setup.num_examples);
  const double contraction = 1.0 - eta * gamma;
  // 1 − (1−ηγ)^m, computed via expm1 for small ηγ·m where the naive form
  // cancels catastrophically.
  const double denom = -std::expm1(m * std::log1p(-eta * gamma));
  if (denom <= 0.0 || contraction >= 1.0) {
    return Status::InvalidArgument("eta * gamma must be in (0, 1)");
  }
  return (2.0 * eta * L / denom) / static_cast<double>(setup.batch_size);
}

Result<double> StronglyConvexDecreasingStepSensitivity(
    const LossFunction& loss, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireStronglyConvex(loss));
  const double L = loss.lipschitz();
  const double gamma = loss.strong_convexity();
  const double m = static_cast<double>(setup.num_examples);
  return (2.0 * L / (gamma * m)) / static_cast<double>(setup.batch_size);
}

Result<double> StronglyConvexDecreasingStepSensitivityCorrected(
    const LossFunction& loss, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireStronglyConvex(loss));
  const double L = loss.lipschitz();
  const double gamma = loss.strong_convexity();
  const double m = static_cast<double>(setup.num_examples);
  // Per-pass telescoping with U = km/b updates: the differing batch in pass
  // j contributes (2Lη_{u*}/b)·Π(1−η_u γ) = 2L/(γUb) = 2L/(γkm); the b and
  // k factors cancel when summed over the k passes.
  return 2.0 * L / (gamma * m);
}

Result<double> StronglyConvexConstantStepSensitivityCorrected(
    const LossFunction& loss, double eta, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireStronglyConvex(loss));
  if (eta <= 0.0) return Status::InvalidArgument("eta must be > 0");
  if (eta > 1.0 / loss.smoothness()) {
    return Status::InvalidArgument(
        "eta exceeds 1/beta; Lemma 2's contraction does not apply");
  }
  const double L = loss.lipschitz();
  const double gamma = loss.strong_convexity();
  const double updates_per_pass = std::floor(
      static_cast<double>(setup.num_examples) /
      static_cast<double>(setup.batch_size));
  const double denom =
      -std::expm1(updates_per_pass * std::log1p(-eta * gamma));
  if (denom <= 0.0) {
    return Status::InvalidArgument("eta * gamma must be in (0, 1)");
  }
  return (2.0 * eta * L / static_cast<double>(setup.batch_size)) / denom;
}

Result<double> ConvexDecreasingStepSensitivityCorrected(
    const LossFunction& loss, double c, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireConvexOnly(loss));
  if (c < 0.0 || c >= 1.0) {
    return Status::InvalidArgument("c must be in [0, 1)");
  }
  const double L = loss.lipschitz();
  const double beta = loss.smoothness();
  const double m = static_cast<double>(setup.num_examples);
  const double b = static_cast<double>(setup.batch_size);
  const double mc = std::pow(m, c);
  double sum = 0.0;
  for (size_t j = 0; j < setup.passes; ++j) {
    sum += 1.0 / (mc + static_cast<double>(j) * (m / b) + 1.0);
  }
  return (4.0 * L / (b * beta)) * sum;
}

Result<double> ConvexSqrtStepSensitivityCorrected(
    const LossFunction& loss, double c, const SensitivitySetup& setup) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  BOLTON_RETURN_IF_ERROR(RequireConvexOnly(loss));
  if (c < 0.0 || c >= 1.0) {
    return Status::InvalidArgument("c must be in [0, 1)");
  }
  const double L = loss.lipschitz();
  const double beta = loss.smoothness();
  const double m = static_cast<double>(setup.num_examples);
  const double b = static_cast<double>(setup.batch_size);
  const double mc = std::pow(m, c);
  double sum = 0.0;
  for (size_t j = 0; j < setup.passes; ++j) {
    sum += 1.0 /
           (std::sqrt(static_cast<double>(j) * (m / b) + 1.0) + mc);
  }
  return (4.0 * L / (b * beta)) * sum;
}

Result<size_t> MinShardSize(size_t num_examples, size_t shards) {
  if (shards < 1) return Status::InvalidArgument("shards must be >= 1");
  if (shards > num_examples) {
    return Status::InvalidArgument(
        StrFormat("shards %zu exceeds num_examples %zu", shards,
                  num_examples));
  }
  return num_examples / shards;
}

Result<double> ShardedMaxSensitivity(
    const SensitivitySetup& setup, size_t shards,
    const std::function<Result<double>(const SensitivitySetup&)>&
        serial_bound) {
  BOLTON_RETURN_IF_ERROR(ValidateSetup(setup));
  if (!serial_bound) return Status::InvalidArgument("null serial bound");
  BOLTON_ASSIGN_OR_RETURN(size_t min_shard,
                          MinShardSize(setup.num_examples, shards));
  SensitivitySetup shard_setup = setup;
  shard_setup.num_examples = min_shard;
  return serial_bound(shard_setup);
}

Result<double> ShardedConvexConstantStepSensitivity(
    const LossFunction& loss, double eta, const SensitivitySetup& setup,
    size_t shards) {
  return ShardedMaxSensitivity(
      setup, shards, [&](const SensitivitySetup& shard_setup) {
        return ConvexConstantStepSensitivity(loss, eta, shard_setup);
      });
}

Result<double> ShardedStronglyConvexDecreasingStepSensitivity(
    const LossFunction& loss, const SensitivitySetup& setup, size_t shards,
    bool use_corrected_minibatch) {
  return ShardedMaxSensitivity(
      setup, shards, [&](const SensitivitySetup& shard_setup) {
        return use_corrected_minibatch
                   ? StronglyConvexDecreasingStepSensitivityCorrected(
                         loss, shard_setup)
                   : StronglyConvexDecreasingStepSensitivity(loss,
                                                             shard_setup);
      });
}

Result<double> SimulateDeltaT(const Dataset& data, size_t differing_index,
                              const Example& replacement,
                              const LossFunction& loss,
                              const StepSizeSchedule& schedule,
                              const PsgdOptions& options, uint64_t seed) {
  if (differing_index >= data.size()) {
    return Status::OutOfRange("differing_index exceeds dataset size");
  }
  if (replacement.x.dim() != data.dim()) {
    return Status::InvalidArgument("replacement dimension mismatch");
  }
  Dataset neighbor = data;
  neighbor.Replace(differing_index, replacement.x, replacement.label);

  // Identical seeds make both runs draw identical permutations, so the only
  // divergence is the differing data point — exactly the sup_r coupling of
  // Lemma 5's randomness-one-at-a-time argument.
  Rng rng_a(seed);
  Rng rng_b(seed);
  BOLTON_ASSIGN_OR_RETURN(
      PsgdOutput run_a, RunPsgd(data, loss, schedule, options, &rng_a));
  BOLTON_ASSIGN_OR_RETURN(
      PsgdOutput run_b, RunPsgd(neighbor, loss, schedule, options, &rng_b));
  return Distance(run_a.model, run_b.model);
}

}  // namespace bolton
