#ifndef BOLTON_LINALG_VECTOR_H_
#define BOLTON_LINALG_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/logging.h"

namespace bolton {

class Vector;

/// A read-only view of `dim` contiguous doubles owned elsewhere: a Dataset
/// row, a row of a disk table's page buffer, or a Vector. Cheap to copy; it
/// never owns or outlives the storage it points into. Every dense kernel
/// that only reads an operand (Dot, Axpy, +=, norms) takes a VectorView,
/// so a Vector and a dataset row go through the same Simd* call.
class VectorView {
 public:
  VectorView() = default;
  VectorView(const double* data, size_t dim) : data_(data), dim_(dim) {}
  /// Views `v`'s storage (implicit, like std::string_view from a string).
  VectorView(const Vector& v);

  size_t dim() const { return dim_; }
  bool empty() const { return dim_ == 0; }
  double operator[](size_t i) const { return data_[i]; }
  const double* data() const { return data_; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + dim_; }

  double Norm() const;
  double SquaredNorm() const;

 private:
  const double* data_ = nullptr;
  size_t dim_ = 0;
};

/// Element-wise equality (so -0.0 == 0.0 and NaN != NaN, as for doubles).
bool operator==(VectorView a, VectorView b);

/// Dense real vector used for hypotheses (model weights), feature vectors,
/// gradients, and noise draws.
///
/// A thin wrapper over contiguous doubles with dimension-checked arithmetic.
/// All element-wise operations BOLTON_CHECK dimension agreement: a dimension
/// mismatch is a programmer error, not a data error.
class Vector {
 public:
  /// An empty (0-dimensional) vector.
  Vector() = default;

  /// A `dim`-dimensional zero vector.
  explicit Vector(size_t dim) : data_(dim, 0.0) {}

  /// A `dim`-dimensional vector with every component `value`.
  Vector(size_t dim, double value) : data_(dim, value) {}

  /// From a braced list: Vector v{1.0, 2.0, 3.0};
  Vector(std::initializer_list<double> init) : data_(init) {}

  /// An owning copy of a view (implicit, so a dataset row binds to a
  /// `const Vector&`; hot paths take a VectorView instead of copying).
  Vector(VectorView view) : data_(view.begin(), view.end()) {}

  Vector(const Vector&) = default;
  Vector& operator=(const Vector&) = default;
  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;

  size_t dim() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }

  /// Bounds-checked element access.
  double at(size_t i) const {
    BOLTON_CHECK(i < data_.size());
    return data_[i];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  const std::vector<double>& values() const { return data_; }

  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }
  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }

  /// Sets every component to zero, keeping the dimension.
  void SetZero();

  /// In-place arithmetic. Dimensions must match.
  Vector& operator+=(VectorView other);
  Vector& operator-=(VectorView other);
  Vector& operator*=(double scalar);
  Vector& operator/=(double scalar);

  /// this += scalar * other  (BLAS axpy). Dimensions must match.
  void Axpy(double scalar, VectorView other);

  /// Euclidean (L2) norm.
  double Norm() const;

  /// Squared Euclidean norm; cheaper when the root is not needed.
  double SquaredNorm() const;

 private:
  std::vector<double> data_;
};

inline VectorView::VectorView(const Vector& v)
    : data_(v.data()), dim_(v.dim()) {}

/// Value-returning arithmetic. Dimensions must match.
Vector operator+(const Vector& a, const Vector& b);
Vector operator-(const Vector& a, const Vector& b);
Vector operator*(double scalar, const Vector& v);
Vector operator*(const Vector& v, double scalar);

/// Inner product <a, b>. Dimensions must match.
double Dot(VectorView a, VectorView b);

/// Euclidean distance ||a - b||.
double Distance(VectorView a, VectorView b);

/// Scales `v` so that ||v|| == 1. A zero vector is returned unchanged.
Vector Normalized(const Vector& v);

/// Projects `v` onto the L2 ball of the given radius centered at the origin:
/// returns v if ||v|| <= radius, else v * (radius / ||v||). This is the
/// projection operator Π_C of the paper's rule (7); it is non-expansive,
/// which is what preserves the sensitivity analysis under constrained
/// optimization (paper §3.2.3, "Constrained Optimization").
Vector ProjectToL2Ball(const Vector& v, double radius);

/// In-place variant of ProjectToL2Ball.
void ProjectToL2BallInPlace(Vector* v, double radius);

}  // namespace bolton

#endif  // BOLTON_LINALG_VECTOR_H_
