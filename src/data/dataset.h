#ifndef BOLTON_DATA_DATASET_H_
#define BOLTON_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// One labeled training/test example, as a view: `x` points into storage
/// owned elsewhere (a Dataset's feature block, a table page, a Vector).
/// For binary tasks `label` is ±1; for multiclass tasks it is the class
/// index in [0, num_classes).
struct Example {
  Example() = default;
  Example(VectorView features, int label_value)
      : x(features), label(label_value) {}
  /// A view of a temporary would dangle at the end of the statement.
  Example(Vector&& features, int label_value) = delete;

  VectorView x;
  int label = 0;
};

/// An ordered, labeled dataset — the training set S = ((x_i, y_i))_{i=1..m}
/// of the paper. Order matters: permutation-based SGD walks the set in a
/// (shuffled) index order, and the sensitivity analysis is stated in terms of
/// neighboring datasets that differ at one position.
///
/// Storage is one row-major block of size()·dim() doubles plus one label
/// array, so a pass reads contiguous rows and a row is one pointer offset
/// away (Bismarck's UDA likewise scans contiguous tuples). Rows change only
/// through the methods below.
class Dataset {
 public:
  Dataset() = default;

  /// Creates a dataset with the given feature dimension and class count
  /// (2 for binary ±1 labels).
  Dataset(size_t dim, int num_classes) : dim_(dim), num_classes_(num_classes) {}

  size_t size() const { return labels_.size(); }
  size_t dim() const { return dim_; }
  int num_classes() const { return num_classes_; }
  bool empty() const { return labels_.empty(); }

  /// Row i as a view into the feature block. The view stays valid until a
  /// call that grows, reorders or reassigns the dataset (Add, Reserve,
  /// Shuffle, assignment, destruction); Replace and NormalizeToUnitBall
  /// rewrite the viewed values in place.
  Example operator[](size_t i) const {
    return Example(VectorView(features_.data() + i * dim_, dim_), labels_[i]);
  }

  /// Makes room for `rows` rows, so adding up to that many never
  /// reallocates (and never holds an old and a new block at once).
  void Reserve(size_t rows);

  /// Appends a row (copied). The feature dimension must match dim().
  void Add(VectorView x, int label);
  void Add(const Example& example) { Add(example.x, example.label); }

  /// Replaces the row at `index`; used by tests to construct neighboring
  /// datasets S ~ S' that differ in exactly one position.
  void Replace(size_t index, VectorView x, int label);

  /// Scales each feature vector x to ‖x‖ ≤ 1 (dividing by ‖x‖ when it
  /// exceeds 1). This is the preprocessing assumed throughout the paper's
  /// analysis ("each ‖x‖ ≤ 1", §2).
  void NormalizeToUnitBall();

  /// Largest feature-vector norm in the dataset; 0 for an empty set.
  double MaxFeatureNorm() const;

  /// Returns the examples whose indices are listed, in that order.
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Returns {first `count` examples, the rest}. Requires count <= size().
  std::pair<Dataset, Dataset> SplitAt(size_t count) const;

  /// Shuffles example order uniformly (Fisher–Yates) using `rng`: the same
  /// swaps, in the same order, as ShuffleInPlace over a vector of rows.
  void Shuffle(Rng* rng);

  /// Splits into `parts` nearly equal contiguous portions (the S_1..S_{l+1}
  /// split of the private tuning Algorithm 3). Requires 1 <= parts <= size().
  std::vector<Dataset> SplitEven(size_t parts) const;

  /// Copies labels of a multiclass set into a ±1 binary view: examples of
  /// class `positive_class` get +1, all others −1 (the one-vs-all reduction
  /// of §4.3).
  Dataset OneVsAllView(int positive_class) const;

  /// Human-readable one-line summary (size/dim/classes), for Table 3.
  std::string Summary(const std::string& name) const;

 private:
  double* MutableRow(size_t i) { return features_.data() + i * dim_; }
  /// Rows [begin, begin + count) copied into a new dataset.
  Dataset CopyRange(size_t begin, size_t count) const;

  size_t dim_ = 0;
  int num_classes_ = 2;
  std::vector<double> features_;  // size() rows of dim_ values, row-major
  std::vector<int> labels_;
};

}  // namespace bolton

#endif  // BOLTON_DATA_DATASET_H_
