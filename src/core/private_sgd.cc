#include "core/private_sgd.h"

#include <cmath>
#include <limits>
#include <utility>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/parallel_executor.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

NoiseMechanism MechanismFor(const PrivacyParams& privacy) {
  return privacy.IsPure() ? NoiseMechanism::kLaplace
                          : NoiseMechanism::kGaussian;
}

}  // namespace

Result<double> BoltOnSensitivity(const LossFunction& loss, double eta,
                                 const SensitivitySetup& setup, size_t shards,
                                 bool use_corrected_minibatch,
                                 const PrivacyParams& privacy) {
  BOLTON_FAILPOINT("bolton.calibrate");
  obs::ScopedSpan sensitivity_span("bolton.sensitivity");
  double sensitivity;
  if (loss.IsStronglyConvex()) {
    BOLTON_ASSIGN_OR_RETURN(
        sensitivity, ShardedStronglyConvexDecreasingStepSensitivity(
                         loss, setup, shards, use_corrected_minibatch));
  } else {
    BOLTON_ASSIGN_OR_RETURN(
        sensitivity,
        ShardedConvexConstantStepSensitivity(loss, eta, setup, shards));
  }
  if (obs::PrivacyLedger::Default().enabled()) {
    // Audit trail: the Δ₂ the single output draw below will be calibrated
    // to, including the shard count the Lemma 10 argument was applied with.
    obs::LedgerEvent event;
    event.kind = "calibration";
    event.mechanism = privacy.IsPure() ? "laplace" : "gaussian";
    event.label =
        shards > 1 ? "bolton.sharded_sensitivity" : "bolton.sensitivity";
    event.epsilon = privacy.epsilon;
    event.delta = privacy.delta;
    event.sensitivity = sensitivity;
    event.shards = shards;
    obs::PrivacyLedger::Default().Record(std::move(event));
  }
  return sensitivity;
}

Result<PrivateSgdOutput> BoltOnPerturb(const Vector& model, double sensitivity,
                                       const PrivacyParams& privacy,
                                       Rng* rng) {
  BOLTON_FAILPOINT("bolton.perturb");
  BOLTON_RETURN_IF_ERROR(privacy.Validate());
  if (sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivity must be >= 0");
  }
  if (model.empty()) return Status::InvalidArgument("empty model");
  obs::ScopedSpan perturb_span("bolton.perturb_draw");
  static obs::Counter* perturbations =
      obs::MetricsRegistry::Default().GetCounter("bolton.perturbations");
  perturbations->Increment();
  BOLTON_ASSIGN_OR_RETURN(
      Vector kappa,
      SampleDpNoise(MechanismFor(privacy), model.dim(), sensitivity,
                    privacy.epsilon, privacy.delta, rng));
  PrivateSgdOutput out;
  out.noiseless_model = model;
  out.sensitivity = sensitivity;
  out.noise_norm = kappa.Norm();
  kappa += model;
  out.model = std::move(kappa);
  return out;
}

Result<BlackBoxPlan> PlanBlackBox(const LossFunction& loss,
                                  size_t num_examples,
                                  const BoltOnOptions& options,
                                  bool private_run) {
  if (private_run) BOLTON_RETURN_IF_ERROR(options.privacy.Validate());
  if (num_examples == 0) return Status::InvalidArgument("empty training set");
  BlackBoxPlan plan;
  if (loss.IsStronglyConvex()) {
    if (private_run && !std::isfinite(loss.radius())) {
      return Status::FailedPrecondition(
          "Algorithm 2 runs constrained optimization; the loss must carry a "
          "finite radius (the paper uses R = 1/lambda)");
    }
    // Table 4: Algorithm 2, line 2 caps η_t = 1/(γt) at 1/β; the noiseless
    // baseline runs uncapped.
    BOLTON_ASSIGN_OR_RETURN(
        plan.schedule,
        MakeInverseTimeStep(loss.strong_convexity(),
                            private_run
                                ? loss.smoothness()
                                : std::numeric_limits<double>::infinity()));
  } else {
    // Table 4's default constant step: η = 1/√m.
    plan.eta = private_run && options.constant_step > 0.0
                   ? options.constant_step
                   : 1.0 / std::sqrt(static_cast<double>(num_examples));
    BOLTON_ASSIGN_OR_RETURN(plan.schedule, MakeConstantStep(plan.eta));
  }
  plan.psgd.run() = options.run();
  plan.psgd.radius = loss.radius();
  plan.psgd.sampling = SamplingMode::kPermutation;
  return plan;
}

Result<PrivateSgdOutput> RunBlackBox(const Dataset& data,
                                     const LossFunction& loss,
                                     const BoltOnOptions& options,
                                     bool private_run, Rng* rng,
                                     BlackBoxCheckpoint* checkpoint) {
  BOLTON_ASSIGN_OR_RETURN(BlackBoxPlan plan,
                          PlanBlackBox(loss, data.size(), options, private_run));
  const bool resuming =
      checkpoint != nullptr && checkpoint->plan.resume != nullptr;
  // A resume reuses the Δ₂ the interrupted run calibrated and recorded.
  double sensitivity = resuming ? checkpoint->sensitivity : 0.0;
  if (private_run && !resuming) {
    SensitivitySetup setup;
    setup.passes = options.passes;
    setup.batch_size = options.batch_size;
    setup.num_examples = data.size();
    BOLTON_ASSIGN_OR_RETURN(
        sensitivity,
        BoltOnSensitivity(loss, plan.eta, setup, options.shards,
                          options.use_corrected_minibatch_sensitivity,
                          options.privacy));
    if (checkpoint != nullptr) checkpoint->sensitivity = sensitivity;
  }

  // A fresh private run splits the caller's rng after calibrating, leaving
  // the caller's stream for the one output draw; a resumed run's box stream
  // is restored from the checkpoint before anything is drawn.
  Rng split = private_run && !resuming ? rng->Split() : Rng(0);
  Rng* box_rng = private_run ? &split : rng;
  PsgdOutput run;
  size_t shards = 1;
  if (checkpoint != nullptr) {
    BOLTON_ASSIGN_OR_RETURN(
        run, RunPsgd(data, loss, *plan.schedule, plan.psgd, box_rng,
                     /*noise=*/nullptr, /*pass_callback=*/nullptr,
                     &checkpoint->plan));
  } else {
    BOLTON_ASSIGN_OR_RETURN(
        ShardedPsgdOutput sharded,
        RunShardedPsgd(data, loss, *plan.schedule, plan.psgd, box_rng));
    run.model = std::move(sharded.model);
    run.stats = sharded.stats;
    shards = sharded.shards;
  }
  PrivateSgdOutput out;
  if (private_run) {
    BOLTON_ASSIGN_OR_RETURN(
        out, BoltOnPerturb(run.model, sensitivity, options.privacy, rng));
  } else {
    out.model = std::move(run.model);
  }
  out.stats = run.stats;
  out.shards = shards;
  return out;
}

Result<PrivateSgdOutput> PrivateConvexPsgd(const Dataset& data,
                                           const LossFunction& loss,
                                           const BoltOnOptions& options,
                                           Rng* rng) {
  if (loss.IsStronglyConvex()) {
    return Status::FailedPrecondition(
        "Algorithm 1 requires a merely convex loss; use "
        "PrivateStronglyConvexPsgd for gamma > 0");
  }
  return PrivatePsgd(data, loss, options, rng);
}

Result<PrivateSgdOutput> PrivateStronglyConvexPsgd(const Dataset& data,
                                                   const LossFunction& loss,
                                                   const BoltOnOptions& options,
                                                   Rng* rng) {
  if (!loss.IsStronglyConvex()) {
    return Status::FailedPrecondition(
        "Algorithm 2 requires a strongly convex loss (gamma > 0)");
  }
  return PrivatePsgd(data, loss, options, rng);
}

Result<PrivateSgdOutput> PrivatePsgd(const Dataset& data,
                                     const LossFunction& loss,
                                     const BoltOnOptions& options, Rng* rng) {
  return RunBlackBox(data, loss, options, /*private_run=*/true, rng);
}

}  // namespace bolton
