#ifndef BOLTON_ENGINE_TABLE_H_
#define BOLTON_ENGINE_TABLE_H_

#include <functional>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Where a Table keeps its rows.
enum class StorageMode {
  /// Rows live in RAM — the warm-buffer-cache setting of the paper's
  /// runtime experiments (Figure 5, Figure 2a).
  kMemory,
  /// Rows live in a fixed-width binary file read page-by-page on every
  /// scan — the larger-than-memory setting of Figure 2b. Only one page is
  /// resident at a time.
  kDisk,
};

/// A training-data table, the engine's analogue of the PostgreSQL relation
/// Bismarck trains over. Rows are (feature vector, label) pairs of one
/// fixed dimension.
///
/// The access pattern matches Bismarck's: `Shuffle()` materializes a
/// random row order (the `ORDER BY RANDOM()` step, run once before
/// training), after which every epoch performs one sequential `Scan()`.
class Table {
 public:
  using RowFn = std::function<void(const Example&)>;

  virtual ~Table() = default;

  virtual size_t num_rows() const = 0;
  virtual size_t dim() const = 0;
  virtual StorageMode mode() const = 0;

  /// Materializes a uniformly random row order (Fisher–Yates for memory
  /// tables; for disk tables the shuffle rewrites the backing file so later
  /// scans stay sequential, like `CREATE TABLE ... AS SELECT ... ORDER BY
  /// RANDOM()`).
  virtual Status Shuffle(Rng* rng) = 0;

  /// One sequential pass over the rows in their current order. Each row's
  /// features are a view into the table's own storage (its dataset block
  /// or the current I/O page), valid only for the duration of the call.
  virtual Status Scan(const RowFn& fn) const = 0;

  /// Copies all rows (current order) into a Dataset. Primarily for tests.
  Result<Dataset> ToDataset(int num_classes = 2) const;
};

/// Creates a table from a dataset. `spill_path` names the backing file for
/// kDisk mode (required then; ignored for kMemory). `page_rows` is the
/// number of rows per I/O page for kDisk (default 1024).
Result<std::unique_ptr<Table>> MakeTable(const Dataset& data, StorageMode mode,
                                         const std::string& spill_path = "",
                                         size_t page_rows = 1024);

}  // namespace bolton

#endif  // BOLTON_ENGINE_TABLE_H_
