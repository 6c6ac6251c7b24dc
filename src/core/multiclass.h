#ifndef BOLTON_CORE_MULTICLASS_H_
#define BOLTON_CORE_MULTICLASS_H_

#include <functional>
#include <vector>

#include "core/privacy.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// A one-vs-all multiclass linear model: one weight vector per class;
/// prediction is the argmax score (paper §4.3, the MNIST construction).
struct MulticlassModel {
  std::vector<Vector> weights;

  int num_classes() const { return static_cast<int>(weights.size()); }

  /// argmax_c ⟨w_c, x⟩. Requires at least one class and matching dims.
  int Predict(VectorView x) const;
};

/// Trains one ±1 binary sub-model under the given (sub-)budget. Plug in the
/// bolt-on, SCS13, or BST14 trainer; for a noiseless baseline ignore the
/// budget.
using BinaryTrainFn = std::function<Result<Vector>(
    const Dataset& binary_view, const PrivacyParams& budget, Rng* rng)>;

/// Trains a K-class one-vs-all model, dividing the total (ε, δ) budget
/// evenly across the K binary sub-models by basic composition — exactly the
/// paper's MNIST strategy ("we used the simplest composition theorem, and
/// divide the privacy budget evenly", §4.3).
///
/// `threads` > 1 trains sub-models concurrently (they are independent —
/// disjoint budgets, per-class RNG streams split up front), producing
/// BIT-IDENTICAL models to the serial run. `train` must then be
/// thread-safe for concurrent calls on distinct data (every trainer in
/// this library is: they share no mutable state).
Result<MulticlassModel> TrainOneVsAll(const Dataset& data,
                                      const PrivacyParams& total_budget,
                                      const BinaryTrainFn& train, Rng* rng,
                                      size_t threads = 1);

}  // namespace bolton

#endif  // BOLTON_CORE_MULTICLASS_H_
