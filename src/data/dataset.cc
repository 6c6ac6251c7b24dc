#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "linalg/simd.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

void Dataset::Reserve(size_t rows) {
  features_.reserve(rows * dim_);
  labels_.reserve(rows);
}

void Dataset::Add(VectorView x, int label) {
  BOLTON_CHECK(x.dim() == dim_);
  const double* src = x.data();
  if (features_.size() + dim_ > features_.capacity()) {
    // Grow by hand so `x` may view a row of this very block: the source
    // pointer is rebased onto the new block before the copy.
    const double* old_begin = features_.data();
    const std::less<const double*> before;
    const bool aliases = !before(src, old_begin) &&
                         before(src, old_begin + features_.size());
    const size_t offset = aliases ? static_cast<size_t>(src - old_begin) : 0;
    features_.reserve(
        std::max(features_.size() + dim_, 2 * features_.capacity()));
    if (aliases) src = features_.data() + offset;
  }
  features_.insert(features_.end(), src, src + dim_);
  labels_.push_back(label);
}

void Dataset::Replace(size_t index, VectorView x, int label) {
  BOLTON_CHECK(index < size());
  BOLTON_CHECK(x.dim() == dim_);
  std::memmove(MutableRow(index), x.data(), dim_ * sizeof(double));
  labels_[index] = label;
}

void Dataset::NormalizeToUnitBall() {
  for (size_t i = 0; i < size(); ++i) {
    double* row = MutableRow(i);
    double n = std::sqrt(SimdSquaredNorm(row, dim_));
    if (n > 1.0) SimdScale(row, 1.0 / n, dim_);
  }
}

double Dataset::MaxFeatureNorm() const {
  double max_norm = 0.0;
  for (size_t i = 0; i < size(); ++i) {
    double n = (*this)[i].x.Norm();
    if (n > max_norm) max_norm = n;
  }
  return max_norm;
}

Dataset Dataset::CopyRange(size_t begin, size_t count) const {
  Dataset out(dim_, num_classes_);
  out.features_.assign(features_.begin() + begin * dim_,
                       features_.begin() + (begin + count) * dim_);
  out.labels_.assign(labels_.begin() + begin, labels_.begin() + begin + count);
  return out;
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(dim_, num_classes_);
  out.features_.resize(indices.size() * dim_);
  out.labels_.resize(indices.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    const size_t idx = indices[k];
    BOLTON_CHECK(idx < size());
    std::memcpy(out.MutableRow(k), features_.data() + idx * dim_,
                dim_ * sizeof(double));
    out.labels_[k] = labels_[idx];
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::SplitAt(size_t count) const {
  BOLTON_CHECK(count <= size());
  return {CopyRange(0, count), CopyRange(count, size() - count)};
}

void Dataset::Shuffle(Rng* rng) {
  if (size() < 2) return;
  std::vector<double> scratch(dim_);
  const size_t row_bytes = dim_ * sizeof(double);
  for (size_t i = size() - 1; i > 0; --i) {
    size_t j = rng->UniformInt(i + 1);
    if (j == i) continue;
    std::memcpy(scratch.data(), MutableRow(i), row_bytes);
    std::memcpy(MutableRow(i), MutableRow(j), row_bytes);
    std::memcpy(MutableRow(j), scratch.data(), row_bytes);
    std::swap(labels_[i], labels_[j]);
  }
}

std::vector<Dataset> Dataset::SplitEven(size_t parts) const {
  BOLTON_CHECK(parts >= 1);
  BOLTON_CHECK(parts <= size());
  std::vector<Dataset> out;
  out.reserve(parts);
  size_t base = size() / parts;
  size_t extra = size() % parts;
  size_t begin = 0;
  for (size_t p = 0; p < parts; ++p) {
    size_t len = base + (p < extra ? 1 : 0);
    out.push_back(CopyRange(begin, len));
    begin += len;
  }
  return out;
}

Dataset Dataset::OneVsAllView(int positive_class) const {
  Dataset out(dim_, 2);
  out.features_ = features_;
  out.labels_.reserve(size());
  for (int label : labels_) {
    out.labels_.push_back(label == positive_class ? +1 : -1);
  }
  return out;
}

std::string Dataset::Summary(const std::string& name) const {
  return StrFormat("%-16s m=%-8zu d=%-5zu classes=%-3d max||x||=%.4f",
                   name.c_str(), size(), dim(), num_classes(),
                   MaxFeatureNorm());
}

}  // namespace bolton
