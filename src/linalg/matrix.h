#ifndef BOLTON_LINALG_MATRIX_H_
#define BOLTON_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/vector.h"

namespace bolton {

/// Dense row-major matrix. Used by the Gaussian random-projection transform
/// (paper §2, "Random Projection") and by tests.
class Matrix {
 public:
  Matrix() = default;

  /// A rows x cols zero matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// Row `r` copied out as a Vector.
  Vector Row(size_t r) const;

  /// Matrix-vector product: returns `this * x`. Requires x.dim() == cols().
  Vector Multiply(VectorView x) const;

  /// Transposed product: returns `this^T * x`. Requires x.dim() == rows().
  Vector MultiplyTransposed(VectorView x) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace bolton

#endif  // BOLTON_LINALG_MATRIX_H_
