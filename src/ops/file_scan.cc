#include "ops/file_scan.h"

namespace photon {

Schema FileScanOperator::Project(const Schema& schema,
                                 const std::vector<int>& cols) {
  if (cols.empty()) return schema;
  Schema out;
  for (int c : cols) out.AddField(schema.field(c));
  return out;
}

FileScanOperator::FileScanOperator(ObjectStore* store,
                                   std::vector<std::string> file_keys,
                                   Schema file_schema,
                                   std::vector<int> columns,
                                   ExprPtr predicate, io::IoOptions io)
    : Operator(Project(file_schema, columns)),
      file_keys_(std::move(file_keys)),
      file_schema_(std::move(file_schema)),
      columns_(std::move(columns)),
      predicate_(std::move(predicate)),
      io_(std::make_unique<io::CachingStore>(store, io)) {
  if (io.prefetch_pool != nullptr) {
    prefetcher_ = std::make_unique<io::Prefetcher>(io_.get());
  }
}

Status FileScanOperator::Open() {
  next_file_ = 0;
  reader_ = nullptr;
  next_row_group_ = 0;
  // Warm the pipeline before the first GetNext touches the store.
  if (prefetcher_ != nullptr) prefetcher_->ScheduleAhead(file_keys_, 0);
  return Status::OK();
}

void FileScanOperator::Close() {
  // A scan abandoned early (LIMIT, error) must not leave read-aheads
  // running on the shared pool.
  if (prefetcher_ != nullptr) prefetcher_->Cancel();
}

void FileScanOperator::PublishMetricsImpl() {
  stats_.Add(obs::Metric::kCacheHits, io_->stats().hits);
  if (prefetcher_ != nullptr) {
    stats_.Add(obs::Metric::kPrefetchWaitNs, prefetcher_->stats().wait_ns);
  }
}

Result<ColumnBatch*> FileScanOperator::GetNextImpl() {
  while (true) {
    if (reader_ == nullptr) {
      if (next_file_ >= file_keys_.size()) return nullptr;
      const std::string& key = file_keys_[next_file_];
      std::shared_ptr<const std::string> bytes;
      if (prefetcher_ != nullptr) {
        // Keep the window ahead of us full, then consume the current key.
        prefetcher_->ScheduleAhead(file_keys_, next_file_ + 1);
        PHOTON_ASSIGN_OR_RETURN(bytes, prefetcher_->Fetch(key));
      } else {
        PHOTON_ASSIGN_OR_RETURN(bytes, io_->Get(key));
      }
      stats_.Add(obs::Metric::kBytesRead,
                 static_cast<int64_t>(bytes->size()));
      PHOTON_ASSIGN_OR_RETURN(reader_, FileReader::Open(std::move(bytes)));
      next_file_++;
      next_row_group_ = 0;
      stats_.Add(obs::Metric::kFilesRead, 1);
    }
    if (next_row_group_ >= reader_->num_row_groups()) {
      reader_ = nullptr;
      continue;
    }
    int rg = next_row_group_++;
    // Row-group skipping: the predicate is expressed over the *projected*
    // schema; `columns_` maps its column indices back to file stats.
    if (predicate_ != nullptr &&
        !StatsMayMatch(*predicate_, reader_->meta().row_groups[rg].columns,
                       columns_)) {
      stats_.Add(obs::Metric::kRowGroupsSkipped, 1);
      continue;
    }
    PHOTON_ASSIGN_OR_RETURN(current_, reader_->ReadRowGroup(rg, columns_));
    if (predicate_ != nullptr) {
      ctx_.ResetPerBatch();
      PHOTON_ASSIGN_OR_RETURN(int active,
                              FilterBatch(*predicate_, current_.get(), &ctx_));
      if (active == 0) continue;
    }
    if (current_->num_active() == 0) continue;
    return current_.get();
  }
}

DeltaScanOperator::DeltaScanOperator(ObjectStore* store,
                                     DeltaSnapshot snapshot,
                                     std::vector<int> columns,
                                     ExprPtr predicate, io::IoOptions io)
    : Operator(FileScanOperator::Project(snapshot.schema, columns)) {
  std::vector<std::string> keys;
  for (DeltaFileEntry& f :
       DeltaTable::PruneFiles(snapshot, predicate, columns)) {
    keys.push_back(std::move(f.key));
  }
  files_pruned_ = static_cast<int64_t>(snapshot.files.size() - keys.size());
  inner_ = std::make_unique<FileScanOperator>(
      store, std::move(keys), snapshot.schema, std::move(columns),
      std::move(predicate), io);
  stats_.Add(obs::Metric::kFilesPruned, files_pruned_);
}

Status DeltaScanOperator::Open() { return inner_->Open(); }

void DeltaScanOperator::Close() { inner_->Close(); }

Result<ColumnBatch*> DeltaScanOperator::GetNextImpl() {
  return inner_->GetNext();
}

}  // namespace photon
