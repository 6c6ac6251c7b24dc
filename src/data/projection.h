#ifndef BOLTON_DATA_PROJECTION_H_
#define BOLTON_DATA_PROJECTION_H_

#include <cstddef>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Gaussian random projection (paper §2, "Random Projection").
///
/// Samples a fixed linear map T : R^d → R^k with iid N(0, 1/k) entries and
/// applies it to every feature vector. Because T is sampled independently of
/// the data, neighboring datasets stay neighboring under T, so projecting
/// before private SGD does not affect the privacy analysis — it only shrinks
/// the noise dimension d, which enters the Laplace mechanism's magnitude
/// linearly (Theorem 2). The paper projects MNIST 784 → 50 this way.
class GaussianRandomProjection {
 public:
  /// Creates the transform. Requires 1 <= output_dim; typically
  /// output_dim << input_dim.
  static Result<GaussianRandomProjection> Create(size_t input_dim,
                                                 size_t output_dim,
                                                 uint64_t seed);

  size_t input_dim() const { return map_.cols(); }
  size_t output_dim() const { return map_.rows(); }

  /// Projects one feature vector. Requires x.dim() == input_dim().
  Vector Apply(VectorView x) const;

  /// Projects every example and re-normalizes features to the unit ball
  /// (the analysis requires ‖x‖ ≤ 1 post-projection).
  Result<Dataset> Apply(const Dataset& dataset) const;

 private:
  explicit GaussianRandomProjection(Matrix map) : map_(std::move(map)) {}
  Matrix map_;
};

}  // namespace bolton

#endif  // BOLTON_DATA_PROJECTION_H_
