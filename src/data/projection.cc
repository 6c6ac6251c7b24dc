#include "data/projection.h"

#include <cmath>

#include "util/strings.h"

namespace bolton {

Result<GaussianRandomProjection> GaussianRandomProjection::Create(
    size_t input_dim, size_t output_dim, uint64_t seed) {
  if (input_dim < 1 || output_dim < 1) {
    return Status::InvalidArgument("projection dims must be >= 1");
  }
  Rng rng(seed);
  Matrix map(output_dim, input_dim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(output_dim));
  for (size_t r = 0; r < output_dim; ++r) {
    for (size_t c = 0; c < input_dim; ++c) {
      map(r, c) = scale * rng.Gaussian();
    }
  }
  return GaussianRandomProjection(std::move(map));
}

Vector GaussianRandomProjection::Apply(VectorView x) const {
  return map_.Multiply(x);
}

Result<Dataset> GaussianRandomProjection::Apply(const Dataset& dataset) const {
  if (dataset.dim() != input_dim()) {
    return Status::InvalidArgument(
        StrFormat("dataset dim %zu != projection input dim %zu",
                  dataset.dim(), input_dim()));
  }
  Dataset out(output_dim(), dataset.num_classes());
  out.Reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    out.Add(Apply(dataset[i].x), dataset[i].label);
  }
  out.NormalizeToUnitBall();
  return out;
}

}  // namespace bolton
