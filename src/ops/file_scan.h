#ifndef PHOTON_OPS_FILE_SCAN_H_
#define PHOTON_OPS_FILE_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "io/caching_store.h"
#include "io/prefetcher.h"
#include "ops/operator.h"
#include "storage/delta.h"
#include "storage/format.h"

namespace photon {

/// Scans columnar files from the object store, one row group per batch,
/// with column projection and min/max predicate skipping at both file and
/// row-group granularity. An optional residual predicate is applied to
/// surviving batches (scan-level filtering).
///
/// IO path (src/io): file bytes are fetched through a CachingStore, so a
/// shared BlockCache turns repeated (warm) scans into memory reads, and —
/// when an executor thread pool is supplied — an async Prefetcher keeps
/// the next files in flight while the current one is decoded, overlapping
/// simulated object-store latency with compute (the paper's NVMe cache +
/// async IO scan path, §2).
class FileScanOperator : public Operator {
 public:
  /// `columns` selects fields by index into the file schema (empty = all).
  FileScanOperator(ObjectStore* store, std::vector<std::string> file_keys,
                   Schema file_schema, std::vector<int> columns = {},
                   ExprPtr predicate = nullptr, io::IoOptions io = {});

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonFileScan"; }

  static Schema Project(const Schema& schema, const std::vector<int>& cols);

 protected:
  /// Folds cache/prefetch state into the metric set (kCacheHits,
  /// kPrefetchWaitNs); bytes/files/row-group counters are recorded
  /// directly in GetNextImpl. All scan IO stats live in op_metrics() —
  /// there are no special-cased accessors.
  void PublishMetricsImpl() override;

 private:
  std::vector<std::string> file_keys_;
  Schema file_schema_;
  std::vector<int> columns_;
  ExprPtr predicate_;
  std::unique_ptr<io::CachingStore> io_;
  std::unique_ptr<io::Prefetcher> prefetcher_;

  size_t next_file_ = 0;
  std::unique_ptr<FileReader> reader_;
  int next_row_group_ = 0;
  std::unique_ptr<ColumnBatch> current_;
  EvalContext ctx_;
};

/// Scans a Delta table snapshot: prunes files by stats
/// (DeltaTable::PruneFiles), then chains FileScan over the survivors. This
/// is the "Lakehouse read path": Delta log -> file pruning -> columnar
/// scan -> Photon batches.
class DeltaScanOperator : public Operator {
 public:
  DeltaScanOperator(ObjectStore* store, DeltaSnapshot snapshot,
                    std::vector<int> columns = {},
                    ExprPtr predicate = nullptr, io::IoOptions io = {});

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonDeltaScan"; }
  std::vector<Operator*> children() override { return {inner_.get()}; }

  int64_t files_pruned() const { return files_pruned_; }

 private:
  std::unique_ptr<FileScanOperator> inner_;
  int64_t files_pruned_ = 0;
};

}  // namespace photon

#endif  // PHOTON_OPS_FILE_SCAN_H_
