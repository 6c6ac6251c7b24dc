#ifndef BOLTON_ML_TRAINER_H_
#define BOLTON_ML_TRAINER_H_

#include <memory>
#include <string>

#include "core/multiclass.h"
#include "core/privacy.h"
#include "core/solver.h"
#include "data/dataset.h"
#include "optim/loss.h"
#include "optim/sgd_spec.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// The two model families evaluated (§4.3 and Appendix B).
enum class ModelKind { kLogistic, kHuberSvm };

/// One experiment's training configuration — the uniform surface every
/// bench and example drives. Embeds the shared SgdRunSpec (passes, batch
/// size, output mode, fresh permutation, shards) with the training defaults
/// k = 10, b = 50; set `output = OutputMode::kAverageAll` to average all
/// iterates, and `shards > 1` to run the noiseless / bolt-on algorithms on
/// the shard-parallel executor. The Table 4 step-size conventions are
/// applied automatically per (algorithm, convexity).
struct TrainerConfig : SgdRunSpec {
  TrainerConfig() : SgdRunSpec(/*passes=*/10, /*batch_size=*/50) {}

  Algorithm algorithm = Algorithm::kNoiseless;
  ModelKind model = ModelKind::kLogistic;
  /// λ = 0 selects the convex tests (plain loss, unconstrained);
  /// λ > 0 selects the strongly convex tests with R = 1/λ (§4.3).
  double lambda = 0.0;
  /// Huber smoothing width (Appendix B uses h = 0.1).
  double huber_h = 0.1;
  /// Ignored for kNoiseless. delta == 0 ⇒ pure ε-DP (not supported by
  /// BST14); delta > 0 ⇒ (ε, δ)-DP.
  PrivacyParams privacy;
  /// Hypothesis radius handed to BST14 in the convex case, where the loss
  /// itself is unconstrained but Algorithm 4 needs a finite R.
  double bst14_convex_radius = 10.0;
  /// Threads for one-vs-all sub-model training (1 = serial; results are
  /// bit-identical at any thread count).
  size_t training_threads = 1;
};

/// Builds the loss for a config: logistic or Huber SVM, with L2 strength
/// `lambda` and radius R = 1/λ when λ > 0 (+inf otherwise).
Result<std::unique_ptr<LossFunction>> MakeLossForConfig(
    const TrainerConfig& config);

/// The SolverSpec a config denotes — the conversion TrainBinary uses to
/// delegate to RunPrivateSolver. Exposed so callers that already hold the
/// loss can drive the core dispatch directly.
SolverSpec SolverSpecForConfig(const TrainerConfig& config);

/// Trains one ±1 binary linear model per the config: builds the loss and
/// delegates to core/RunPrivateSolver. Step sizes follow Table 4:
///   noiseless: convex 1/√m, strongly convex 1/(γt);
///   bolt-on:   convex 1/√m, strongly convex min(1/β, 1/(γt));
///   SCS13:     1/√t;
///   BST14:     Algorithm 4/5 schedules.
Result<Vector> TrainBinary(const Dataset& train, const TrainerConfig& config,
                           Rng* rng);

/// Trains a one-vs-all multiclass model, splitting the privacy budget
/// evenly across the K binary sub-models (§4.3).
Result<MulticlassModel> TrainMulticlass(const Dataset& train,
                                        const TrainerConfig& config, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_ML_TRAINER_H_
