#ifndef BOLTON_LINALG_SPARSE_VECTOR_H_
#define BOLTON_LINALG_SPARSE_VECTOR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/vector.h"
#include "util/result.h"

namespace bolton {

/// A sparse real vector: sorted (index, value) pairs over a fixed
/// dimension. Real LIBSVM datasets (KDDCup-99, text features) are mostly
/// zeros; sparse kernels make the gradient inner loop O(nnz) instead of
/// O(d).
///
/// Invariants (enforced by the factory): indices strictly increasing,
/// all < dim(), no explicit zeros.
class SparseVector {
 public:
  using Entry = std::pair<size_t, double>;

  /// An all-zero sparse vector of the given dimension.
  explicit SparseVector(size_t dim = 0) : dim_(dim) {}

  /// Builds from entries, validating the invariants. Entries need not be
  /// pre-sorted; duplicates and out-of-range indices are errors, explicit
  /// zeros are dropped.
  static Result<SparseVector> FromEntries(size_t dim,
                                          std::vector<Entry> entries);

  /// Sparsifies a dense vector, dropping entries with |v| <= threshold.
  static SparseVector FromDense(VectorView dense, double threshold = 0.0);

  size_t dim() const { return dim_; }
  size_t nnz() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Materializes the dense representation.
  Vector ToDense() const;

  /// Euclidean norm (over the nonzeros, trivially).
  double Norm() const;

  /// Scales all values in place.
  void Scale(double factor);

  /// dense += scale · this. Requires dense->dim() == dim(). O(nnz).
  void AxpyInto(double scale, Vector* dense) const;

 private:
  size_t dim_;
  std::vector<Entry> entries_;
};

/// ⟨sparse, dense⟩ in O(nnz). Dimensions must match.
double Dot(const SparseVector& sparse, const Vector& dense);

}  // namespace bolton

#endif  // BOLTON_LINALG_SPARSE_VECTOR_H_
