#ifndef PHOTON_EXEC_DML_H_
#define PHOTON_EXEC_DML_H_

#include <string>
#include <vector>

#include "exec/driver.h"
#include "io/caching_store.h"
#include "plan/logical_plan.h"
#include "storage/delta.h"

namespace photon {
namespace dml {

/// Knobs shared by every DML executor.
struct DmlOptions {
  /// Format options for rewritten/inserted data files.
  FormatWriteOptions write;
  /// IO wiring (block cache, prefetch) for the copy-on-write scans.
  io::IoOptions io;
  /// How many CommitConflict aborts to absorb by re-reading the table and
  /// re-deriving the write before giving up and surfacing the conflict.
  int max_retries = 8;
};

/// Outcome of one DML statement.
struct DmlResult {
  /// Log version the statement committed as. A statement that matched
  /// nothing commits nothing and reports the snapshot version it read.
  int64_t version = -1;
  /// Rows deleted (DELETE), updated (UPDATE), or merge-updated (MERGE).
  int64_t rows_affected = 0;
  /// Rows inserted by MERGE's WHEN NOT MATCHED clause.
  int64_t rows_inserted = 0;
  /// Data files rewritten copy-on-write.
  int64_t files_rewritten = 0;
  /// Files the zone-map pruner proved untouched (never read or rewritten).
  int64_t files_pruned = 0;
  /// CommitConflict aborts that were retried from a fresh snapshot.
  int64_t conflicts_retried = 0;
};

/// One UPDATE ... SET assignment: `column` (index into the table schema)
/// takes `value`, an expression over the table's columns evaluated against
/// the pre-update row. Values are cast to the column type if needed.
struct UpdateAssignment {
  int column = -1;
  ExprPtr value;
};

/// MERGE INTO target USING source ON target.key = source.key ...
/// The source is an arbitrary logical plan, materialized once per attempt.
/// Each target row may match at most one source row, which keeps the
/// copy-on-write join cardinality-preserving; this is enforced: a MERGE
/// with a matched clause where some target row matches several source rows
/// fails with InvalidArgument and commits nothing.
struct MergeSpec {
  plan::PlanPtr source;
  /// Equi-join key columns: indices into the target schema / source schema.
  std::vector<int> target_keys;
  std::vector<int> source_keys;
  /// WHEN MATCHED THEN UPDATE: one expression per target column, over the
  /// combined [target columns..., source columns...] row. Empty = no
  /// matched clause (matched rows pass through untouched).
  std::vector<ExprPtr> matched_exprs;
  /// WHEN NOT MATCHED THEN INSERT: one expression per target column, over
  /// the source columns. Empty = no insert clause.
  std::vector<ExprPtr> insert_exprs;
};

/// DELETE FROM `table` WHERE `predicate` (over the table's columns).
///
/// Copy-on-write at file granularity (DESIGN.md §15): zone-map pruning
/// narrows the candidate files, each candidate is scanned through the
/// engine keeping its surviving rows (rows where the predicate is false
/// OR NULL), files with any match are rewritten, and one optimistic
/// transaction removes the old files and adds the rewrites — so readers
/// see every row of the DELETE disappear atomically. The transaction
/// carries `predicate` as its read predicate: a concurrently appended
/// file whose stats may match aborts the commit (no lost phantoms), and
/// the executor retries from a fresh snapshot up to `max_retries` times.
Result<DmlResult> ExecuteDelete(DeltaTable* table, const ExprPtr& predicate,
                                exec::Driver* driver, const ExecContext& ctx,
                                const DmlOptions& options = {});

/// UPDATE `table` SET assignments WHERE `predicate` (null = all rows).
/// Same copy-on-write shape as ExecuteDelete; matched rows are rewritten
/// through a Project that evaluates each assignment against the old row.
Result<DmlResult> ExecuteUpdate(DeltaTable* table,
                                const std::vector<UpdateAssignment>& set,
                                const ExprPtr& predicate,
                                exec::Driver* driver, const ExecContext& ctx,
                                const DmlOptions& options = {});

/// MERGE: join-driven upsert. Per target file, a left-outer join against
/// the materialized source decides matched rows (rewritten via
/// matched_exprs); a left-anti join of the source against the whole
/// target's key columns yields the not-matched inserts. Because the
/// matched/not-matched split reads every file, the transaction sets
/// `reads_all_files` — any concurrent add or remove aborts and retries.
/// A target row matched by more than one source row is InvalidArgument.
Result<DmlResult> ExecuteMerge(DeltaTable* table, const MergeSpec& spec,
                               exec::Driver* driver, const ExecContext& ctx,
                               const DmlOptions& options = {});

}  // namespace dml
}  // namespace photon

#endif  // PHOTON_EXEC_DML_H_
