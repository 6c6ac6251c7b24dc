#include "data/transforms.h"

#include <algorithm>
#include <cmath>

#include "random/permutation.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

Result<Standardizer> Standardizer::Fit(const Dataset& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  const size_t d = data.dim();
  const double m = static_cast<double>(data.size());

  Vector means(d);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < d; ++j) means[j] += data[i].x[j];
  }
  means *= 1.0 / m;

  Vector stddevs(d);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < d; ++j) {
      double centered = data[i].x[j] - means[j];
      stddevs[j] += centered * centered;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    stddevs[j] = std::sqrt(stddevs[j] / m);
    if (stddevs[j] == 0.0) stddevs[j] = 1.0;  // constant feature
  }
  return Standardizer(std::move(means), std::move(stddevs));
}

Vector Standardizer::Apply(VectorView x) const {
  BOLTON_CHECK(x.dim() == means_.dim());
  Vector out(x.dim());
  for (size_t j = 0; j < x.dim(); ++j) {
    out[j] = (x[j] - means_[j]) / stddevs_[j];
  }
  return out;
}

Result<Dataset> Standardizer::Apply(const Dataset& data) const {
  if (data.dim() != means_.dim()) {
    return Status::InvalidArgument(
        StrFormat("dataset dim %zu != fitted dim %zu", data.dim(),
                  means_.dim()));
  }
  Dataset out(data.dim(), data.num_classes());
  out.Reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    out.Add(Apply(data[i].x), data[i].label);
  }
  return out;
}

std::map<int, size_t> ClassCounts(const Dataset& data) {
  std::map<int, size_t> counts;
  for (size_t i = 0; i < data.size(); ++i) ++counts[data[i].label];
  return counts;
}

Result<std::pair<Dataset, Dataset>> StratifiedSplit(const Dataset& data,
                                                    double test_fraction,
                                                    Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  // Group indices per class, shuffle within each class, then cut.
  std::map<int, std::vector<size_t>> per_class;
  for (size_t i = 0; i < data.size(); ++i) {
    per_class[data[i].label].push_back(i);
  }
  Dataset train(data.dim(), data.num_classes());
  Dataset test(data.dim(), data.num_classes());
  for (auto& [label, indices] : per_class) {
    (void)label;
    ShuffleInPlace(&indices, rng);
    size_t test_count =
        static_cast<size_t>(std::lround(test_fraction * indices.size()));
    for (size_t i = 0; i < indices.size(); ++i) {
      (i < test_count ? test : train).Add(data[indices[i]]);
    }
  }
  // Interleave classes rather than leaving them grouped.
  train.Shuffle(rng);
  test.Shuffle(rng);
  return std::make_pair(std::move(train), std::move(test));
}

Result<Dataset> DownsampleMajority(const Dataset& data, double max_ratio,
                                   Rng* rng) {
  if (max_ratio < 1.0) {
    return Status::InvalidArgument("max_ratio must be >= 1");
  }
  std::vector<size_t> positives, negatives;
  for (size_t i = 0; i < data.size(); ++i) {
    (data[i].label == +1 ? positives : negatives).push_back(i);
  }
  if (positives.empty() || negatives.empty()) {
    return Status::InvalidArgument("both classes must be present");
  }
  std::vector<size_t>* majority =
      positives.size() >= negatives.size() ? &positives : &negatives;
  const std::vector<size_t>* minority =
      positives.size() >= negatives.size() ? &negatives : &positives;

  size_t cap = static_cast<size_t>(max_ratio * minority->size());
  ShuffleInPlace(majority, rng);
  if (majority->size() > cap) majority->resize(std::max<size_t>(1, cap));

  std::vector<size_t> keep = *minority;
  keep.insert(keep.end(), majority->begin(), majority->end());
  ShuffleInPlace(&keep, rng);
  return data.Subset(keep);
}

}  // namespace bolton
