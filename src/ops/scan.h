#ifndef PHOTON_OPS_SCAN_H_
#define PHOTON_OPS_SCAN_H_

#include "ops/operator.h"
#include "vector/table.h"

namespace photon {

/// Scans an in-memory Table, yielding one batch per stored batch in
/// [begin_batch, end_batch) — the whole table by default, one morsel's
/// slice in the driver. Values and null bytes are copied into a reusable
/// scan-owned batch (string bytes are shared zero-copy: the source table
/// outlives the query), so downstream filters may freely rewrite the
/// position list without corrupting the table.
class InMemoryScanOperator : public Operator {
 public:
  explicit InMemoryScanOperator(const Table* table, int begin_batch = 0,
                                int end_batch = -1)
      : Operator(table->schema()),
        table_(table),
        begin_batch_(begin_batch),
        end_batch_(end_batch) {}

  Status Open() override {
    next_batch_ = begin_batch_;
    return Status::OK();
  }

  Result<ColumnBatch*> GetNextImpl() override;

  std::string name() const override { return "PhotonScan"; }

 private:
  const Table* table_;
  int begin_batch_;
  int end_batch_;  // -1: through the table's last batch
  int next_batch_ = 0;
  std::unique_ptr<ColumnBatch> out_;
};

/// Copies batch contents (values, nulls, activity) from src into dst;
/// string payload bytes are shared, not copied. dst must have the same
/// schema and at least the same capacity.
void CopyBatchShallow(const ColumnBatch& src, ColumnBatch* dst);

}  // namespace photon

#endif  // PHOTON_OPS_SCAN_H_
