#ifndef BOLTON_DATA_TRANSFORMS_H_
#define BOLTON_DATA_TRANSFORMS_H_

#include <map>
#include <utility>

#include "data/dataset.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// A fitted per-feature affine standardizer: x' = (x − mean) / stddev.
///
/// Real tabular datasets (Covertype, KDDCup) mix feature scales by orders
/// of magnitude; standardizing BEFORE the unit-ball normalization the
/// privacy analysis requires keeps every feature informative. Fit on the
/// training set only, then apply the same transform to the test set —
/// fitting on test data leaks it.
class Standardizer {
 public:
  /// Fits means and standard deviations on `data`. Constant features get
  /// stddev 1 (they pass through centered). Requires a non-empty dataset.
  static Result<Standardizer> Fit(const Dataset& data);

  /// Transforms one feature vector. Requires matching dimension.
  Vector Apply(VectorView x) const;

  /// Transforms a whole dataset (labels untouched). Does NOT re-normalize
  /// to the unit ball; call Dataset::NormalizeToUnitBall afterwards when
  /// feeding private training.
  Result<Dataset> Apply(const Dataset& data) const;

  const Vector& means() const { return means_; }
  const Vector& stddevs() const { return stddevs_; }

 private:
  Standardizer(Vector means, Vector stddevs)
      : means_(std::move(means)), stddevs_(std::move(stddevs)) {}
  Vector means_;
  Vector stddevs_;
};

/// Per-class example counts.
std::map<int, size_t> ClassCounts(const Dataset& data);

/// Splits into {train, test} with `test_fraction` of EACH class in the test
/// split (stratified), preserving class ratios that a plain random split
/// can skew on imbalanced data. Shuffles with `rng` first. Requires
/// test_fraction in (0, 1) and at least one example.
Result<std::pair<Dataset, Dataset>> StratifiedSplit(const Dataset& data,
                                                    double test_fraction,
                                                    Rng* rng);

/// Rebalances a binary dataset by down-sampling the majority class to at
/// most `max_ratio` times the minority class size. Used to tame the 1:9
/// imbalance of one-vs-all views when training non-private reference
/// models. Requires max_ratio >= 1 and both classes present.
Result<Dataset> DownsampleMajority(const Dataset& data, double max_ratio,
                                   Rng* rng);

}  // namespace bolton

#endif  // BOLTON_DATA_TRANSFORMS_H_
