#ifndef BOLTON_CORE_SOLVER_H_
#define BOLTON_CORE_SOLVER_H_

#include <cstddef>
#include <string>

#include "core/privacy.h"
#include "core/private_sgd.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/sgd_spec.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// The four training algorithms the paper's figures compare, plus the
/// classic objective-perturbation alternative (§5's [13]) as an extra
/// baseline. kObjective supports pure ε-DP logistic regression only.
enum class Algorithm { kNoiseless, kBoltOn, kScs13, kBst14, kObjective };

/// Every Algorithm value, for exhaustive iteration (tests, CLIs).
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kNoiseless, Algorithm::kBoltOn, Algorithm::kScs13,
    Algorithm::kBst14, Algorithm::kObjective};

/// Canonical name of an algorithm; ParseAlgorithm round-trips every value.
const char* AlgorithmName(Algorithm algorithm);

/// Parses a canonical name (or the "bolton"/"bolt-on" aliases of "ours");
/// an unknown name returns NotFound listing every valid choice.
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// One private (or noiseless) training run's configuration: the bolt-on
/// options (run spec with the training defaults k = 10, b = 50, privacy,
/// Algorithm 1's constant step, the mini-batch calibration rule) plus the
/// white-box baselines' knobs. kNoiseless ignores `privacy`; BST14 needs
/// delta > 0. This is the single surface RunPrivateSolver dispatches on;
/// TrainerConfig and the engine driver both convert into it rather than
/// re-implementing the dispatch.
struct SolverSpec : BoltOnOptions {
  /// Scale c of SCS13's η_t = c/√t schedule (Table 4 uses 1).
  double scs13_step_scale = 1.0;
  /// Hypothesis radius handed to BST14 in the convex case, where the loss
  /// itself is unconstrained but Algorithm 4 needs a finite R.
  double bst14_convex_radius = 10.0;
};

/// What a solver run releases. Only `model` is differentially private for
/// the private algorithms; the rest is diagnostics.
struct SolverOutput {
  Vector model;
  PsgdStats stats;
  /// Δ₂ the output perturbation was calibrated to (bolt-on only; 0 for the
  /// white-box and noiseless algorithms).
  double sensitivity = 0.0;
  /// Shards the run executed with (noiseless / bolt-on; 1 otherwise).
  size_t shards = 1;
};

/// The single dispatch point for every training algorithm, with the Table 4
/// step-size conventions applied per (algorithm, convexity):
///   noiseless: RunBlackBox without noise — convex 1/√m, strongly convex
///              1/(γt); sharded when spec.shards > 1;
///   bolt-on:   RunBlackBox, Algorithms 1/2 (sharding per Lemma 10);
///   SCS13:     1/√t per-update noise — rejects shards > 1;
///   BST14:     Algorithm 4/5 schedules — rejects shards > 1;
///   objective: logistic loss + pure ε-DP only — rejects shards > 1.
/// ml/TrainBinary and the bench/example surfaces are thin wrappers over
/// this entry point.
Result<SolverOutput> RunPrivateSolver(Algorithm algorithm, const Dataset& data,
                                      const LossFunction& loss,
                                      const SolverSpec& spec, Rng* rng);

/// RunPrivateSolver with checkpoint hooks handed to the black-box body:
/// RunSolverWithCheckpoints' way onto the same path (and the same
/// "solver.run" span). Only kNoiseless and kBoltOn take hooks; a non-null
/// `checkpoint` with any other algorithm is InvalidArgument.
Result<SolverOutput> RunPrivateSolver(Algorithm algorithm, const Dataset& data,
                                      const LossFunction& loss,
                                      const SolverSpec& spec, Rng* rng,
                                      BlackBoxCheckpoint* checkpoint);

}  // namespace bolton

#endif  // BOLTON_CORE_SOLVER_H_
