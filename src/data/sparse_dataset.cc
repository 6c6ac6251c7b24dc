#include "data/sparse_dataset.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

void SparseDataset::Add(SparseExample example) {
  BOLTON_CHECK(example.x.dim() == dim_);
  examples_.push_back(std::move(example));
}

void SparseDataset::NormalizeToUnitBall() {
  for (SparseExample& e : examples_) {
    double n = e.x.Norm();
    if (n > 1.0) e.x.Scale(1.0 / n);
  }
}

double SparseDataset::AverageNnz() const {
  if (examples_.empty()) return 0.0;
  size_t total = 0;
  for (const SparseExample& e : examples_) total += e.x.nnz();
  return static_cast<double>(total) / static_cast<double>(examples_.size());
}

Dataset SparseDataset::ToDense() const {
  Dataset out(dim_, num_classes_);
  out.Reserve(examples_.size());
  for (const SparseExample& e : examples_) {
    out.Add(e.x.ToDense(), e.label);
  }
  return out;
}

SparseDataset SparseDataset::FromDense(const Dataset& dense) {
  SparseDataset out(dense.dim(), dense.num_classes());
  for (size_t i = 0; i < dense.size(); ++i) {
    out.Add(SparseExample{SparseVector::FromDense(dense[i].x),
                          dense[i].label});
  }
  return out;
}

Result<SparseDataset> LoadLibsvmSparse(const std::string& path, size_t dim) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  struct Row {
    int label;
    std::vector<SparseVector::Entry> entries;
  };
  std::vector<Row> rows;
  size_t max_index = 0;
  bool saw_zero_label = false;
  int max_label = 0;

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;

    std::istringstream tokens{std::string(stripped)};
    std::string token;
    if (!(tokens >> token)) continue;
    auto label = ParseInt(token);
    if (!label.ok()) {
      return Status::InvalidArgument(
          StrFormat("line %zu: non-integer label '%s'", line_no,
                    token.c_str()));
    }
    Row row;
    row.label = static_cast<int>(label.value());
    while (tokens >> token) {
      size_t colon = token.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed feature '%s'", line_no,
                      token.c_str()));
      }
      auto idx = ParseInt(token.substr(0, colon));
      auto val = ParseDouble(token.substr(colon + 1));
      if (!idx.ok() || idx.value() < 1) {
        return Status::InvalidArgument(
            StrFormat("line %zu: bad 1-based index", line_no));
      }
      if (!val.ok()) {
        return val.status().WithContext(StrFormat("line %zu", line_no));
      }
      size_t index = static_cast<size_t>(idx.value() - 1);
      if (dim != 0 && index >= dim) {
        return Status::OutOfRange(
            StrFormat("line %zu: index %zu exceeds declared dim %zu",
                      line_no, index + 1, dim));
      }
      max_index = std::max(max_index, index + 1);
      row.entries.emplace_back(index, val.value());
    }
    saw_zero_label |= (row.label == 0);
    max_label = std::max(max_label, row.label);
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Status::InvalidArgument(path + " holds no examples");

  const size_t final_dim = dim == 0 ? max_index : dim;
  const bool binary01 = saw_zero_label && max_label <= 1;
  int num_classes =
      binary01 ? 2 : std::max(2, max_label + (saw_zero_label ? 1 : 0));
  if (!saw_zero_label && max_label <= 1) num_classes = 2;

  SparseDataset out(final_dim, num_classes);
  for (Row& row : rows) {
    BOLTON_ASSIGN_OR_RETURN(
        SparseVector x,
        SparseVector::FromEntries(final_dim, std::move(row.entries)));
    int label = row.label;
    if (binary01) label = (label == 0) ? -1 : +1;
    out.Add(SparseExample{std::move(x), label});
  }
  return out;
}

}  // namespace bolton
