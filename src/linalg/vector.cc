#include "linalg/vector.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"

// The dense hot loops (dot, axpy, scale, add/sub, norms) dispatch to the
// runtime-selected SIMD kernels in linalg/simd.h. Every tier is bit-identical
// to the scalar reference (see the contract comment there), so routing
// through the dispatcher changes speed, never results.

namespace bolton {

void Vector::SetZero() {
  for (double& x : data_) x = 0.0;
}

Vector& Vector::operator+=(VectorView other) {
  BOLTON_CHECK(dim() == other.dim());
  SimdAdd(data_.data(), other.data(), data_.size());
  return *this;
}

Vector& Vector::operator-=(VectorView other) {
  BOLTON_CHECK(dim() == other.dim());
  SimdSub(data_.data(), other.data(), data_.size());
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  SimdScale(data_.data(), scalar, data_.size());
  return *this;
}

Vector& Vector::operator/=(double scalar) {
  BOLTON_CHECK(scalar != 0.0);
  return (*this) *= (1.0 / scalar);
}

void Vector::Axpy(double scalar, VectorView other) {
  BOLTON_CHECK(dim() == other.dim());
  SimdAxpy(scalar, other.data(), data_.data(), data_.size());
}

double Vector::Norm() const { return VectorView(*this).Norm(); }

double Vector::SquaredNorm() const { return VectorView(*this).SquaredNorm(); }

double VectorView::Norm() const { return std::sqrt(SquaredNorm()); }

double VectorView::SquaredNorm() const { return SimdSquaredNorm(data_, dim_); }

bool operator==(VectorView a, VectorView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

Vector operator+(const Vector& a, const Vector& b) {
  Vector out = a;
  out += b;
  return out;
}

Vector operator-(const Vector& a, const Vector& b) {
  Vector out = a;
  out -= b;
  return out;
}

Vector operator*(double scalar, const Vector& v) {
  Vector out = v;
  out *= scalar;
  return out;
}

Vector operator*(const Vector& v, double scalar) { return scalar * v; }

double Dot(VectorView a, VectorView b) {
  BOLTON_CHECK(a.dim() == b.dim());
  return SimdDot(a.data(), b.data(), a.dim());
}

double Distance(VectorView a, VectorView b) {
  BOLTON_CHECK(a.dim() == b.dim());
  return std::sqrt(SimdSquaredDistance(a.data(), b.data(), a.dim()));
}

Vector Normalized(const Vector& v) {
  double n = v.Norm();
  if (n == 0.0) return v;
  return v * (1.0 / n);
}

Vector ProjectToL2Ball(const Vector& v, double radius) {
  Vector out = v;
  ProjectToL2BallInPlace(&out, radius);
  return out;
}

void ProjectToL2BallInPlace(Vector* v, double radius) {
  BOLTON_CHECK(radius >= 0.0);
  double n = v->Norm();
  if (n > radius && n > 0.0) *v *= (radius / n);
}

}  // namespace bolton
