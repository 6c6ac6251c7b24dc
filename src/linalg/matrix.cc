#include "linalg/matrix.h"

#include <cmath>

#include "util/logging.h"

namespace bolton {

Vector Matrix::Row(size_t r) const {
  BOLTON_CHECK(r < rows_);
  Vector out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::Multiply(VectorView x) const {
  BOLTON_CHECK(x.dim() == cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
  return out;
}

Vector Matrix::MultiplyTransposed(VectorView x) const {
  BOLTON_CHECK(x.dim() == rows_);
  Vector out(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double xr = x[r];
    for (size_t c = 0; c < cols_; ++c) out[c] += row[c] * xr;
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

}  // namespace bolton
