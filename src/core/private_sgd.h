#ifndef BOLTON_CORE_PRIVATE_SGD_H_
#define BOLTON_CORE_PRIVATE_SGD_H_

#include <memory>

#include "core/privacy.h"
#include "core/sensitivity.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/schedule.h"
#include "random/dp_noise.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Options shared by the bolt-on private PSGD algorithms. Embeds the
/// uniform SgdRunSpec (passes k, batch size b, output mode, fresh
/// permutation, shards) with the bolt-on defaults k = 10, b = 50; shards
/// > 1 runs the shard-parallel executor with noise calibrated to the max
/// per-shard sensitivity (Lemma 10, core/sensitivity.h).
struct BoltOnOptions : SgdRunSpec {
  BoltOnOptions() : SgdRunSpec(/*passes=*/10, /*batch_size=*/50) {}

  /// Privacy budget. delta == 0 selects the spherical-Laplace mechanism
  /// (pure ε-DP, Theorems 4/5); delta > 0 selects the Gaussian mechanism
  /// ((ε, δ)-DP, Theorems 6/7) and then requires epsilon < 1.
  PrivacyParams privacy;
  /// Constant step size η for Algorithm 1. 0 selects the paper's default
  /// η = 1/√m (Table 4). Ignored by Algorithm 2.
  double constant_step = 0.0;
  /// Algorithm 2 only. When false (default), calibrate noise to the
  /// paper's mini-batch sensitivity Δ₂ = 2L/(γmb) — faithful to the
  /// published evaluation (§4.1 divides by b). When true, use the
  /// corrected batch bound Δ₂ = 2L/(γm): our re-derivation and the
  /// empirical simulations in sensitivity_test.cc show the paper's /b
  /// improvement does not hold for the decreasing schedule when b > 1
  /// (see DESIGN.md §6). Deployments that need the worst-case guarantee
  /// at b > 1 should set this.
  bool use_corrected_minibatch_sensitivity = false;
};

/// Everything a private training run produces. `model` is the only
/// differentially private output; the rest is diagnostics for experiments
/// (they depend on the data and MUST NOT be released alongside the model in
/// a real deployment).
struct PrivateSgdOutput {
  /// w̃ = w + κ — the differentially private model.
  Vector model;
  /// The noiseless SGD output w (diagnostic).
  Vector noiseless_model;
  /// The L2-sensitivity Δ₂ used to calibrate κ.
  double sensitivity = 0.0;
  /// ‖κ‖ actually drawn (diagnostic).
  double noise_norm = 0.0;
  /// Engine counters from the underlying black-box run.
  PsgdStats stats;
  /// Shards the black box ran with (1 = serial).
  size_t shards = 1;
};

/// The Δ₂ the bolt-on algorithms calibrate to, shared by the Dataset path
/// (PrivatePsgd) and the engine path (RunBoltOnPrivateDriver) so the
/// convex/strongly-convex × serial/sharded × paper/corrected dispatch lives
/// in exactly one place. `eta` is Algorithm 1's constant step (ignored when
/// the loss is strongly convex). When the ledger is enabled, records one
/// "calibration" event ("bolton.sensitivity" / "bolton.sharded_sensitivity")
/// carrying the (ε, δ, Δ₂, shards) accounting of the run.
Result<double> BoltOnSensitivity(const LossFunction& loss, double eta,
                                 const SensitivitySetup& setup, size_t shards,
                                 bool use_corrected_minibatch,
                                 const PrivacyParams& privacy);

/// The black-box front end of one run (§4.2): everything that runs the
/// unchanged PSGD box (PrivatePsgd, RunPrivateSolver's noiseless and
/// bolt-on cases, RunSolverWithCheckpoints, the engine driver) takes its
/// step sizes and PsgdOptions from here.
struct BlackBoxPlan {
  /// Table 4: bolt-on strongly convex min(1/β, 1/(γt)); noiseless strongly
  /// convex 1/(γt) with no 1/β cap; convex the constant η below.
  std::unique_ptr<StepSizeSchedule> schedule;
  /// The convex constant step, which Corollary 1's Δ₂ = 2kLη/b reads:
  /// options.constant_step for bolt-on when > 0, else 1/√m. 0 when the
  /// loss is strongly convex.
  double eta = 0.0;
  /// The run spec with loss.radius() and permutation sampling.
  PsgdOptions psgd;
};

/// Checks a black-box run's preconditions and builds its plan. Every run
/// needs m > 0; a private (bolt-on) run also needs options.privacy to
/// validate and, under Algorithm 2, a finite radius R. A noiseless run
/// ignores options.privacy and options.constant_step.
Result<BlackBoxPlan> PlanBlackBox(const LossFunction& loss,
                                  size_t num_examples,
                                  const BoltOnOptions& options,
                                  bool private_run);

/// What RunSolverWithCheckpoints threads into RunBlackBox: the serial box
/// runs under `plan` (pass-boundary sink, resume state).
struct BlackBoxCheckpoint {
  PsgdCheckpointPlan plan;
  /// Δ₂ of a private run. On resume (plan.resume set) the caller stores
  /// the interrupted run's calibration here, and it is reused without a
  /// second calibration event; a fresh run writes its calibration here
  /// before the box starts, so the sink can persist it.
  double sensitivity = 0.0;
};

/// The one black-box solve. A private run calibrates Δ₂ (BoltOnSensitivity),
/// then splits the caller's rng for the box, runs it, and draws one output
/// perturbation from the caller's rng (BoltOnPerturb). A noiseless run
/// drives the box with the caller's rng directly and releases the box's
/// model. `checkpoint` runs the serial box (RunPsgd) under its plan instead
/// of RunShardedPsgd; on resume the caller has already restored `rng` to
/// the interrupted run's post-split state, and the box's own stream comes
/// from the checkpoint.
Result<PrivateSgdOutput> RunBlackBox(const Dataset& data,
                                     const LossFunction& loss,
                                     const BoltOnOptions& options,
                                     bool private_run, Rng* rng,
                                     BlackBoxCheckpoint* checkpoint = nullptr);

/// Algorithm 1 — Private Convex Permutation-based SGD.
///
/// Requires a convex, non-strongly-convex loss (γ = 0) and η ≤ 2/β. Runs
/// black-box PSGD with constant step η, computes Δ₂ = 2kLη/b (Corollary 1),
/// and publishes w + κ with κ from the mechanism selected by
/// `options.privacy`. Optimization is unconstrained unless the loss carries
/// a finite radius, in which case iterates are projected (rule (7), which
/// leaves the sensitivity argument unchanged).
Result<PrivateSgdOutput> PrivateConvexPsgd(const Dataset& data,
                                           const LossFunction& loss,
                                           const BoltOnOptions& options,
                                           Rng* rng);

/// Algorithm 2 — Private Strongly Convex Permutation-based SGD.
///
/// Requires γ > 0 and a finite hypothesis radius R (the paper sets
/// R = 1/λ). Runs black-box projected PSGD with η_t = min(1/β, 1/(γt)),
/// computes Δ₂ = 2L/(γmb) (Lemma 8 — independent of k), and publishes
/// w + κ.
Result<PrivateSgdOutput> PrivateStronglyConvexPsgd(const Dataset& data,
                                                   const LossFunction& loss,
                                                   const BoltOnOptions& options,
                                                   Rng* rng);

/// Algorithm 2 when γ > 0, else Algorithm 1: RunBlackBox as a private run.
/// The convenience entry point used by examples and benches.
Result<PrivateSgdOutput> PrivatePsgd(const Dataset& data,
                                     const LossFunction& loss,
                                     const BoltOnOptions& options, Rng* rng);

/// Generic bolt-on wrapper: perturbs an already-trained model with noise
/// calibrated to a caller-supplied sensitivity. This is the literal "10
/// lines in the Python front-end" integration of §4.2 — use it to privatize
/// the output of ANY training system (e.g., the engine/ UDA driver) once a
/// sensitivity bound for that run is known.
Result<PrivateSgdOutput> BoltOnPerturb(const Vector& model, double sensitivity,
                                       const PrivacyParams& privacy, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_PRIVATE_SGD_H_
