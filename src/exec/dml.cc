#include "exec/dml.h"

#include <utility>

#include "expr/builder.h"

namespace photon {
namespace dml {
namespace {

Status CheckCancelled(const ExecContext& ctx) {
  return ctx.control != nullptr ? ctx.control->Check() : Status::OK();
}

/// Rows a DELETE keeps: predicate false OR NULL (three-valued logic — a
/// NULL predicate does not delete the row).
ExprPtr SurvivorPredicate(const ExprPtr& pred) {
  return eb::Or(eb::Not(pred), eb::IsNull(pred));
}

ExprPtr ColRef(const Schema& schema, int index) {
  const Field& f = schema.field(index);
  return eb::Col(index, f.type, f.name);
}

/// Casts `e` to the column type iff it differs (the SQL analyzer coerces
/// ahead of time; plan-level callers get the same safety net).
ExprPtr CastTo(ExprPtr e, const DataType& type) {
  if (e->type() == type) return e;
  return eb::Cast(std::move(e), type);
}

std::vector<std::string> FieldNames(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) names.push_back(f.name);
  return names;
}

/// Non-null cells of column `col` across the active rows of `table`.
int64_t CountNonNull(const Table& table, int col) {
  int64_t n = 0;
  for (int b = 0; b < table.num_batches(); b++) {
    const ColumnBatch& batch = table.batch(b);
    const ColumnVector* vec = batch.column(col);
    for (int i = 0; i < batch.num_active(); i++) {
      n += vec->IsNull(batch.ActiveRow(i)) ? 0 : 1;
    }
  }
  return n;
}

/// One attempt of a DML statement: the snapshot its writes derive from,
/// the transaction that will commit them, and the statement's counters.
/// Files staged into `tx.add_files` are released when the attempt is
/// dropped without a winning commit — on an error, a conflict, or a
/// cancellation alike.
class Attempt {
 public:
  Attempt(DeltaTable* table, DeltaSnapshot read, const DmlOptions& options)
      : snapshot(std::move(read)), table_(table), options_(options) {
    tx.read_version = snapshot.version;
    tx.schema = snapshot.schema;
  }
  Attempt(const Attempt&) = delete;
  Attempt& operator=(const Attempt&) = delete;
  ~Attempt() {
    if (committed) return;
    for (const DeltaFileEntry& e : tx.add_files) {
      table_->ReleaseDataFile(e.key);
    }
  }

  /// Single-file view of the snapshot: the per-file copy-on-write unit.
  /// Every DML scan pins the snapshot's version, so concurrent commits
  /// never leak into an in-flight rewrite.
  plan::PlanPtr ScanFile(const DeltaFileEntry& file,
                         ExprPtr scan_predicate = nullptr) const {
    DeltaSnapshot one;
    one.version = snapshot.version;
    one.schema = snapshot.schema;
    one.files.push_back(file);
    return plan::DeltaScan(table_->store(), std::move(one), {},
                           std::move(scan_predicate), options_.io);
  }

  /// Copy-on-write replacement of `file` by `rows`: the file joins the
  /// read and remove sets, and `rows` is staged as its replacement (no
  /// file at all when no row survives).
  Status RewriteFile(const DeltaFileEntry& file, const Table& rows) {
    tx.read_files.push_back(file.key);
    tx.remove_keys.push_back(file.key);
    result.files_rewritten++;
    return Stage(rows);
  }

  /// Stages `rows` as a new data file of the transaction; empty = no file.
  Status Stage(const Table& rows) {
    if (rows.num_rows() == 0) return Status::OK();
    PHOTON_ASSIGN_OR_RETURN(DeltaFileEntry entry,
                            table_->WriteDataFile(rows, options_.write));
    tx.add_files.push_back(std::move(entry));
    return Status::OK();
  }

  const DeltaSnapshot snapshot;
  DeltaTransaction tx;
  DmlResult result;
  bool committed = false;

 private:
  DeltaTable* table_;
  const DmlOptions& options_;
};

/// The optimistic commit loop every executor shares (DESIGN.md §15.2).
/// Each attempt reads a fresh snapshot and lets `derive` stage its writes
/// into the attempt's transaction; a statement that staged nothing commits
/// nothing. A CommitConflict re-derives from a fresh snapshot, up to
/// `max_retries` times; any other error is returned as is. Either way the
/// dropped attempt releases what it staged.
template <typename Derive>
Result<DmlResult> CommitLoop(DeltaTable* table, const char* op,
                             const DmlOptions& options, Derive derive) {
  for (int attempt = 0; attempt <= options.max_retries; attempt++) {
    PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, table->Snapshot());
    Attempt a(table, std::move(snapshot), options);
    a.result.conflicts_retried = attempt;  // every earlier attempt conflicted
    PHOTON_RETURN_NOT_OK(derive(&a));
    if (a.tx.remove_keys.empty() && a.tx.add_files.empty()) {
      a.result.version = a.snapshot.version;  // matched nothing: no commit
      return a.result;
    }
    Result<int64_t> version = table->Commit(a.tx);
    if (version.ok()) {
      a.committed = true;
      a.result.version = *version;
      return a.result;
    }
    if (!version.status().IsCommitConflict()) return version.status();
  }
  return Status::CommitConflict(std::string(op) + " on '" + table->path() +
                                "' still conflicting after " +
                                std::to_string(options.max_retries) +
                                " retries");
}

/// Candidate files of a predicate-scoped statement: zone maps prune the
/// rest, and the transaction carries the predicate as its read predicate
/// (a concurrently appended file whose stats may match is a phantom).
std::vector<DeltaFileEntry> Candidates(Attempt* a, const ExprPtr& predicate) {
  std::vector<DeltaFileEntry> files =
      DeltaTable::PruneFiles(a->snapshot, predicate);
  a->result.files_pruned =
      static_cast<int64_t>(a->snapshot.files.size() - files.size());
  a->tx.read_predicate = predicate;
  return files;
}

}  // namespace

Result<DmlResult> ExecuteDelete(DeltaTable* table, const ExprPtr& predicate,
                                exec::Driver* driver, const ExecContext& ctx,
                                const DmlOptions& options) {
  PHOTON_CHECK(predicate != nullptr);
  const ExprPtr keep = SurvivorPredicate(predicate);
  return CommitLoop(table, "delete", options, [&](Attempt* a) -> Status {
    for (const DeltaFileEntry& file : Candidates(a, predicate)) {
      PHOTON_RETURN_NOT_OK(CheckCancelled(ctx));
      PHOTON_ASSIGN_OR_RETURN(
          Table survivors,
          driver->RunSingleTask(plan::Filter(a->ScanFile(file), keep), ctx));
      const int64_t matched = file.num_rows - survivors.num_rows();
      if (matched == 0) continue;  // stats matched but no row did
      a->result.rows_affected += matched;
      PHOTON_RETURN_NOT_OK(a->RewriteFile(file, survivors));
    }
    return Status::OK();
  });
}

Result<DmlResult> ExecuteUpdate(DeltaTable* table,
                                const std::vector<UpdateAssignment>& set,
                                const ExprPtr& predicate,
                                exec::Driver* driver, const ExecContext& ctx,
                                const DmlOptions& options) {
  PHOTON_CHECK(!set.empty());
  for (const UpdateAssignment& a : set) {
    PHOTON_CHECK(a.column >= 0 && a.value != nullptr);
  }
  return CommitLoop(table, "update", options, [&](Attempt* a) -> Status {
    const Schema& schema = a->snapshot.schema;
    // The rewrite projection: assigned columns take If(pred, value, old),
    // the rest pass through. With no predicate every row is assigned.
    std::vector<ExprPtr> exprs;
    for (int i = 0; i < schema.num_fields(); i++) {
      exprs.push_back(ColRef(schema, i));
    }
    for (const UpdateAssignment& u : set) {
      PHOTON_CHECK(u.column < schema.num_fields());
      ExprPtr value = CastTo(u.value, schema.field(u.column).type);
      exprs[u.column] =
          predicate != nullptr
              ? eb::If(predicate, std::move(value), ColRef(schema, u.column))
              : std::move(value);
    }
    // With a predicate, the rewrite pass also emits one extra column that
    // is non-null exactly on the matching rows, so one read of the file
    // both rewrites it and counts its matches; an untouched file is then
    // never rewritten. The column is dropped before staging.
    std::vector<std::string> names = FieldNames(schema);
    if (predicate != nullptr) {
      exprs.push_back(
          eb::If(predicate, eb::Lit(true), eb::NullLit(DataType::Boolean())));
      names.push_back("__matched");
    }
    const int width = schema.num_fields();
    std::vector<ExprPtr> drop_flag;
    for (int i = 0; i < width; i++) drop_flag.push_back(ColRef(schema, i));
    // An unqualified UPDATE touches every row: its read set is the table.
    a->tx.reads_all_files = predicate == nullptr;
    for (const DeltaFileEntry& file : Candidates(a, predicate)) {
      PHOTON_RETURN_NOT_OK(CheckCancelled(ctx));
      PHOTON_ASSIGN_OR_RETURN(
          Table rewritten,
          driver->RunSingleTask(plan::Project(a->ScanFile(file), exprs, names),
                                ctx));
      if (predicate == nullptr) {
        a->result.rows_affected += file.num_rows;
        PHOTON_RETURN_NOT_OK(a->RewriteFile(file, rewritten));
        continue;
      }
      const int64_t matched = CountNonNull(rewritten, width);
      if (matched == 0) continue;
      PHOTON_ASSIGN_OR_RETURN(
          Table rows,
          driver->RunSingleTask(plan::Project(plan::Scan(&rewritten),
                                              drop_flag, FieldNames(schema)),
                                ctx));
      a->result.rows_affected += matched;
      PHOTON_RETURN_NOT_OK(a->RewriteFile(file, rows));
    }
    return Status::OK();
  });
}

Result<DmlResult> ExecuteMerge(DeltaTable* table, const MergeSpec& spec,
                               exec::Driver* driver, const ExecContext& ctx,
                               const DmlOptions& options) {
  PHOTON_CHECK(spec.source != nullptr);
  PHOTON_CHECK(!spec.target_keys.empty() &&
               spec.target_keys.size() == spec.source_keys.size());
  return CommitLoop(table, "merge", options, [&](Attempt* a) -> Status {
    const Schema& schema = a->snapshot.schema;
    const int target_width = schema.num_fields();
    PHOTON_CHECK(spec.matched_exprs.empty() ||
                 static_cast<int>(spec.matched_exprs.size()) == target_width);
    PHOTON_CHECK(spec.insert_exprs.empty() ||
                 static_cast<int>(spec.insert_exprs.size()) == target_width);
    // The matched/not-matched split reads the entire table: any concurrent
    // add or remove invalidates it.
    a->tx.reads_all_files = true;

    // Materialize the source once per attempt; both the per-file outer
    // joins and the not-matched anti join read this one table.
    PHOTON_ASSIGN_OR_RETURN(Table source, driver->Run(spec.source, ctx));
    const Schema& src_schema = source.schema();

    // Equi-join keys, cast to a common type when the sides differ.
    std::vector<ExprPtr> target_key_exprs;
    std::vector<ExprPtr> source_key_exprs;
    for (size_t k = 0; k < spec.target_keys.size(); k++) {
      PHOTON_CHECK(spec.target_keys[k] >= 0 &&
                   spec.target_keys[k] < target_width);
      PHOTON_CHECK(spec.source_keys[k] >= 0 &&
                   spec.source_keys[k] < src_schema.num_fields());
      ExprPtr t = ColRef(schema, spec.target_keys[k]);
      ExprPtr s = ColRef(src_schema, spec.source_keys[k]);
      DataType common = eb::CommonType(t->type(), s->type());
      target_key_exprs.push_back(CastTo(std::move(t), common));
      source_key_exprs.push_back(CastTo(std::move(s), common));
    }

    // WHEN MATCHED: per-file left-outer join target ⋈ source; rows whose
    // source side joined are rewritten through matched_exprs.
    if (!spec.matched_exprs.empty()) {
      // In the joined row [target cols..., source cols...] a non-null
      // source key marks a match (null keys never join).
      const int source_key_col = target_width + spec.source_keys[0];
      for (const DeltaFileEntry& file : a->snapshot.files) {
        PHOTON_RETURN_NOT_OK(CheckCancelled(ctx));
        plan::PlanPtr join = plan::Join(a->ScanFile(file), plan::Scan(&source),
                                        JoinType::kLeftOuter, target_key_exprs,
                                        source_key_exprs);
        const Schema& joined_schema = join->output_schema;
        PHOTON_ASSIGN_OR_RETURN(Table joined, driver->RunSingleTask(join, ctx));
        // Each target row may match at most one source row; more would
        // rewrite the row once per match.
        if (joined.num_rows() != file.num_rows) {
          return Status::InvalidArgument(
              "MERGE into '" + table->path() +
              "': a target row matched more than one source row");
        }
        const int64_t matched = CountNonNull(joined, source_key_col);
        if (matched == 0) continue;
        ExprPtr is_matched =
            eb::IsNotNull(ColRef(joined_schema, source_key_col));
        std::vector<ExprPtr> exprs;
        for (int i = 0; i < target_width; i++) {
          exprs.push_back(eb::If(is_matched,
                                 CastTo(spec.matched_exprs[i],
                                        schema.field(i).type),
                                 ColRef(joined_schema, i)));
        }
        PHOTON_ASSIGN_OR_RETURN(
            Table rewritten,
            driver->RunSingleTask(plan::Project(plan::Scan(&joined), exprs,
                                                FieldNames(schema)),
                                  ctx));
        a->result.rows_affected += matched;
        PHOTON_RETURN_NOT_OK(a->RewriteFile(file, rewritten));
      }
    }

    // WHEN NOT MATCHED: anti-join the source against the whole target's
    // key columns (the build side scans only those) and project the
    // survivors into one inserted file.
    if (!spec.insert_exprs.empty()) {
      PHOTON_RETURN_NOT_OK(CheckCancelled(ctx));
      plan::PlanPtr build =
          plan::DeltaScan(table->store(), a->snapshot, spec.target_keys,
                          nullptr, options.io);
      std::vector<ExprPtr> build_key_exprs;
      for (size_t k = 0; k < source_key_exprs.size(); k++) {
        build_key_exprs.push_back(
            CastTo(ColRef(build->output_schema, static_cast<int>(k)),
                   source_key_exprs[k]->type()));
      }
      std::vector<ExprPtr> exprs;
      for (int i = 0; i < target_width; i++) {
        exprs.push_back(CastTo(spec.insert_exprs[i], schema.field(i).type));
      }
      PHOTON_ASSIGN_OR_RETURN(
          Table inserts,
          driver->RunSingleTask(
              plan::Project(plan::Join(plan::Scan(&source), build,
                                       JoinType::kLeftAnti, source_key_exprs,
                                       build_key_exprs),
                            exprs, FieldNames(schema)),
              ctx));
      a->result.rows_inserted = inserts.num_rows();
      PHOTON_RETURN_NOT_OK(a->Stage(inserts));
    }
    return Status::OK();
  });
}

}  // namespace dml
}  // namespace photon
