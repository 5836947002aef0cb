#ifndef PHOTON_VECTOR_TABLE_H_
#define PHOTON_VECTOR_TABLE_H_

#include <memory>
#include <utility>
#include <vector>

#include "types/value.h"
#include "vector/column_batch.h"

namespace photon {

/// An in-memory table: a schema plus a sequence of dense (all-active)
/// column batches. Used as scan input for micro-benchmarks ("we read from
/// an in-memory table to isolate the effects of Photon's execution
/// improvements", §6.1), as test fixtures, and as the materialized output
/// of queries.
class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  int num_batches() const { return static_cast<int>(batches_.size()); }
  const ColumnBatch& batch(int i) const { return *batches_[i]; }
  ColumnBatch* mutable_batch(int i) { return batches_[i].get(); }

  int64_t num_rows() const {
    int64_t n = 0;
    for (const auto& b : batches_) n += b->num_active();
    return n;
  }

  void AppendBatch(std::unique_ptr<ColumnBatch> batch) {
    batches_.push_back(std::move(batch));
  }

  /// Moves every batch out, leaving the table empty.
  std::vector<std::unique_ptr<ColumnBatch>> ReleaseBatches() {
    return std::exchange(batches_, {});
  }

  /// Boxed row access across batch boundaries (test/debug convenience).
  std::vector<Value> GetRow(int64_t row) const;

  /// Flattens into a single vector of rows for oracle comparisons.
  std::vector<std::vector<Value>> ToRows() const;

 private:
  Schema schema_;
  std::vector<std::unique_ptr<ColumnBatch>> batches_;
};

/// Builds a table one boxed row at a time; batches are sealed at capacity.
/// Intended for fixtures and generators, not hot paths.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema, int batch_size = kDefaultBatchSize)
      : table_(schema), batch_size_(batch_size) {}

  void AppendRow(const std::vector<Value>& row);
  Table Finish();

 private:
  void SealBatch();

  Table table_;
  int batch_size_;
  std::unique_ptr<ColumnBatch> current_;
  int current_rows_ = 0;
};

}  // namespace photon

#endif  // PHOTON_VECTOR_TABLE_H_
