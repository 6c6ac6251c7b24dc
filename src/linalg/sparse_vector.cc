#include "linalg/sparse_vector.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

Result<SparseVector> SparseVector::FromEntries(size_t dim,
                                               std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  SparseVector out(dim);
  out.entries_.reserve(entries.size());
  size_t previous = 0;
  bool first = true;
  for (const Entry& e : entries) {
    if (e.first >= dim) {
      return Status::OutOfRange(
          StrFormat("sparse index %zu >= dim %zu", e.first, dim));
    }
    if (!first && e.first == previous) {
      return Status::InvalidArgument(
          StrFormat("duplicate sparse index %zu", e.first));
    }
    previous = e.first;
    first = false;
    if (e.second != 0.0) out.entries_.push_back(e);
  }
  return out;
}

SparseVector SparseVector::FromDense(VectorView dense, double threshold) {
  SparseVector out(dense.dim());
  for (size_t i = 0; i < dense.dim(); ++i) {
    if (std::abs(dense[i]) > threshold) out.entries_.emplace_back(i, dense[i]);
  }
  return out;
}

Vector SparseVector::ToDense() const {
  Vector out(dim_);
  for (const Entry& e : entries_) out[e.first] = e.second;
  return out;
}

double SparseVector::Norm() const {
  double acc = 0.0;
  for (const Entry& e : entries_) acc += e.second * e.second;
  return std::sqrt(acc);
}

void SparseVector::Scale(double factor) {
  for (Entry& e : entries_) e.second *= factor;
}

void SparseVector::AxpyInto(double scale, Vector* dense) const {
  BOLTON_CHECK(dense->dim() == dim_);
  for (const Entry& e : entries_) (*dense)[e.first] += scale * e.second;
}

double Dot(const SparseVector& sparse, const Vector& dense) {
  BOLTON_CHECK(sparse.dim() == dense.dim());
  // Canonical-order kernel, NOT a plain sequential sum: the sparse engine's
  // bit-for-bit equivalence with the dense engine requires summing in the
  // exact order the dense dot uses (see SimdSparseDot in linalg/simd.h).
  return SimdSparseDot(sparse.entries().data(), sparse.entries().size(),
                       dense.data(), dense.dim());
}

}  // namespace bolton
