#include "ops/hash_join.h"

#include <algorithm>
#include <cstring>

namespace photon {
namespace {

constexpr double kCompactionSparsityThreshold = 0.5;

/// Payload layout: per build column, an 8-aligned slot of 1 null byte
/// followed by the value (packed after the null byte).
int ComputePayloadLayout(const Schema& build_schema,
                         std::vector<int>* offsets) {
  int offset = 0;
  for (const Field& f : build_schema.fields()) {
    offset = (offset + 7) & ~7;
    offsets->push_back(offset);
    offset += 1 + f.type.byte_width();
  }
  return offset;
}

void WriteBuildPayload(const JoinBuildState& state,
                       VectorizedHashTable* table, const ColumnBatch& batch,
                       int row, uint8_t* entry) {
  uint8_t* payload = table->payload(entry);
  for (int c = 0; c < state.build_schema.num_fields(); c++) {
    uint8_t* slot = payload + state.payload_offsets[c];
    const ColumnVector& col = *batch.column(c);
    if (col.IsNull(row)) {
      *slot = 1;
      continue;
    }
    *slot = 0;
    uint8_t* value = slot + 1;
    switch (col.type().id()) {
      case TypeId::kBoolean:
        *value = col.data<uint8_t>()[row];
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        std::memcpy(value, &col.data<int32_t>()[row], 4);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        std::memcpy(value, &col.data<int64_t>()[row], 8);
        break;
      case TypeId::kFloat64:
        std::memcpy(value, &col.data<double>()[row], 8);
        break;
      case TypeId::kDecimal128:
        std::memcpy(value, &col.data<int128_t>()[row], 16);
        break;
      case TypeId::kString: {
        StringRef s = col.data<StringRef>()[row];
        StringRef owned = table->string_arena()->AddString(s);
        std::memcpy(value, &owned, sizeof(owned));
        break;
      }
    }
  }
}

/// Reservation phase before growing the table by `rows` entries (§5.3).
Status ReserveBuildRows(JoinBuildState* state, int rows) {
  if (state->memory_manager == nullptr) return Status::OK();
  return state->memory_manager->Reserve(
      state, static_cast<int64_t>(rows) * (state->payload_bytes + 96));
}

/// Per-task scratch of the insert loop.
struct InsertScratch {
  std::vector<uint8_t*> entries;
  std::unique_ptr<bool[]> inserted;
  int capacity = 0;

  void Resize(int n) {
    entries.resize(n);
    if (capacity < n) {
      inserted = std::make_unique<bool[]>(n);
      capacity = n;
    }
  }
};

/// Inserts the active-set indices `sel[0..n)` of `batch` (keys
/// `key_vecs` over `key_batch`, whose active set matches the batch's)
/// into `table`: the first row of a key heads its chain, later rows are
/// chained behind it. Returns the rows inserted.
Result<int64_t> InsertRows(const JoinBuildState& state,
                           VectorizedHashTable* table,
                           const std::vector<const ColumnVector*>& key_vecs,
                           const ColumnBatch& key_batch,
                           const ColumnBatch& batch, const uint64_t* hashes,
                           const int32_t* sel, int n,
                           InsertScratch* scratch) {
  scratch->Resize(key_batch.num_active());
  PHOTON_RETURN_NOT_OK(table->LookupOrInsert(key_vecs, key_batch, hashes, sel,
                                             n, scratch->entries.data(),
                                             scratch->inserted.get()));
  int64_t rows = 0;
  for (int j = 0; j < n; j++) {
    int i = sel != nullptr ? sel[j] : j;
    uint8_t* head = scratch->entries[i];
    if (head == nullptr) continue;  // NULL join key: never matches
    uint8_t* target =
        scratch->inserted[i] ? head : table->InsertChained(head);
    WriteBuildPayload(state, table, batch, batch.ActiveRow(i), target);
    rows++;
  }
  return rows;
}

/// Drains `build_child` (already open) into `state`'s single table,
/// reserving memory on `state` as it grows.
Status BuildInto(JoinBuildState* state, Operator* build_child,
                 const std::vector<ExprPtr>& build_keys) {
  VectorizedHashTable* table = state->tables[0].get();
  std::vector<uint64_t> hashes;
  InsertScratch scratch;
  EvalContext ctx;

  while (true) {
    ctx.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, build_child->GetNext());
    if (batch == nullptr) break;
    int n = batch->num_active();
    if (n == 0) continue;
    PHOTON_RETURN_NOT_OK(ReserveBuildRows(state, n));
    std::vector<const ColumnVector*> key_vecs;
    for (const ExprPtr& k : build_keys) {
      PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx));
      key_vecs.push_back(v);
    }
    hashes.resize(n);
    VectorizedHashTable::HashKeys(key_vecs, *batch, hashes.data());
    PHOTON_ASSIGN_OR_RETURN(
        int64_t rows, InsertRows(*state, table, key_vecs, *batch, *batch,
                                 hashes.data(), nullptr, n, &scratch));
    state->build_rows += rows;
  }
  return Status::OK();
}

/// Groups the indices 0..n-1 by the sub-table of hashes[i], keeping their
/// order within a group: group p is sel[offsets[p], offsets[p+1]).
void GroupByPartition(const JoinBuildState& state, const uint64_t* hashes,
                      int n, std::vector<int32_t>* sel,
                      std::vector<int32_t>* offsets) {
  const int parts = state.num_partitions();
  offsets->assign(parts + 1, 0);
  int32_t* off = offsets->data();
  // Count into off[p + 2], so that after the prefix sum off[p + 1] is
  // group p's start; placing then advances it to the group's end.
  for (int i = 0; i < n; i++) {
    const int p = state.PartitionOf(hashes[i]);
    if (p + 2 <= parts) off[p + 2]++;
  }
  for (int p = 1; p < parts; p++) off[p + 1] += off[p];
  sel->resize(n);
  for (int i = 0; i < n; i++) (*sel)[off[state.PartitionOf(hashes[i]) + 1]++] = i;
}

}  // namespace

JoinBuildState::~JoinBuildState() {
  if (memory_manager != nullptr) {
    memory_manager->Release(this, reserved_bytes());
    memory_manager->UnregisterConsumer(this);
  }
}

JoinBuildPtr JoinBuildState::Make(const Schema& build_schema,
                                  const std::vector<ExprPtr>& build_keys,
                                  int partition_bits,
                                  const ExecContext& exec_ctx) {
  auto state = std::make_shared<JoinBuildState>();
  state->build_schema = build_schema;
  state->payload_bytes =
      ComputePayloadLayout(state->build_schema, &state->payload_offsets);
  state->partition_bits = partition_bits;
  std::vector<DataType> key_types;
  for (const ExprPtr& k : build_keys) key_types.push_back(k->type());
  for (int p = 0; p < (1 << partition_bits); p++) {
    state->tables.push_back(std::make_unique<VectorizedHashTable>(
        key_types, state->payload_bytes, /*match_null_keys=*/false));
  }
  if (exec_ctx.memory_manager != nullptr) {
    state->memory_manager = exec_ctx.memory_manager;
    BindConsumerToContext(state.get(), exec_ctx);
    exec_ctx.memory_manager->RegisterConsumer(state.get());
  }
  return state;
}

int64_t JoinBuildState::memory_bytes() const {
  int64_t bytes = 0;
  for (const auto& t : tables) bytes += t->memory_bytes();
  return bytes;
}

Result<std::vector<HashedBuildBatch>> HashBuildInput(
    const JoinBuildState& state, const std::vector<ExprPtr>& build_keys,
    const Table& input) {
  Schema key_schema;
  for (size_t k = 0; k < build_keys.size(); k++) {
    key_schema.AddField(Field("k" + std::to_string(k), build_keys[k]->type()));
  }
  std::vector<HashedBuildBatch> out;
  EvalContext ctx;
  for (int b = 0; b < input.num_batches(); b++) {
    const ColumnBatch& batch = input.batch(b);
    const int n = batch.num_active();
    if (n == 0) continue;
    ctx.ResetPerBatch();
    // Key evaluation only reads the batch (this task is its one reader
    // until the insert pass).
    ColumnBatch* mutable_batch = const_cast<ColumnBatch*>(&batch);
    std::unique_ptr<ColumnBatch> view =
        ColumnBatch::MakeView(key_schema, batch.capacity());
    for (size_t k = 0; k < build_keys.size(); k++) {
      PHOTON_ASSIGN_OR_RETURN(ColumnVector * v,
                              build_keys[k]->Evaluate(mutable_batch, &ctx));
      view->SetColumnView(static_cast<int>(k), v);
    }
    view->set_num_rows(batch.num_rows());
    if (batch.all_active()) {
      view->SetAllActive();
    } else {
      std::copy(batch.pos_list(), batch.pos_list() + n,
                view->mutable_pos_list());
      view->SetActiveRows(n);
    }
    HashedBuildBatch hashed;
    hashed.batch = &batch;
    hashed.keys = CompactBatch(*view);
    hashed.hashes.resize(n);
    std::vector<const ColumnVector*> key_vecs;
    for (int k = 0; k < hashed.keys->num_columns(); k++) {
      key_vecs.push_back(hashed.keys->column(k));
    }
    VectorizedHashTable::HashKeys(key_vecs, *hashed.keys,
                                  hashed.hashes.data());
    GroupByPartition(state, hashed.hashes.data(), n, &hashed.sel,
                     &hashed.offsets);
    out.push_back(std::move(hashed));
  }
  return out;
}

Status InsertBuildPartition(
    JoinBuildState* state, int p,
    const std::vector<std::vector<HashedBuildBatch>>& inputs) {
  VectorizedHashTable* table = state->tables[p].get();
  InsertScratch scratch;
  std::vector<const ColumnVector*> key_vecs;
  int64_t rows = 0;
  for (const std::vector<HashedBuildBatch>& input : inputs) {
    for (const HashedBuildBatch& hashed : input) {
      const int begin = hashed.offsets[p];
      const int n = hashed.offsets[p + 1] - begin;
      if (n == 0) continue;
      PHOTON_RETURN_NOT_OK(ReserveBuildRows(state, n));
      key_vecs.clear();
      for (int k = 0; k < hashed.keys->num_columns(); k++) {
        key_vecs.push_back(hashed.keys->column(k));
      }
      PHOTON_ASSIGN_OR_RETURN(
          int64_t inserted_rows,
          InsertRows(*state, table, key_vecs, *hashed.keys, *hashed.batch,
                     hashed.hashes.data(), hashed.sel.data() + begin, n,
                     &scratch));
      rows += inserted_rows;
    }
  }
  state->build_rows += rows;
  return Status::OK();
}

Schema HashJoinOperator::MakeOutputSchema(const Schema& build,
                                          const Schema& probe,
                                          JoinType join_type) {
  if (join_type == JoinType::kLeftSemi || join_type == JoinType::kLeftAnti) {
    return probe;
  }
  Schema schema = probe;
  for (const Field& f : build.fields()) {
    Field field = f;
    if (join_type == JoinType::kLeftOuter) field.nullable = true;
    schema.AddField(field);
  }
  return schema;
}

HashJoinOperator::HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                                   std::vector<ExprPtr> build_keys,
                                   std::vector<ExprPtr> probe_keys,
                                   JoinType join_type, ExecContext exec_ctx,
                                   ExprPtr residual,
                                   bool adaptive_compaction)
    : Operator(MakeOutputSchema(build->output_schema(), probe->output_schema(),
                                join_type)),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      join_type_(join_type),
      exec_ctx_(exec_ctx),
      residual_(std::move(residual)),
      adaptive_compaction_(adaptive_compaction) {
  PHOTON_CHECK(build_keys_.size() == probe_keys_.size());
}

HashJoinOperator::HashJoinOperator(JoinBuildPtr build, OperatorPtr probe,
                                   std::vector<ExprPtr> probe_keys,
                                   JoinType join_type, ExecContext exec_ctx,
                                   ExprPtr residual, bool adaptive_compaction)
    : Operator(MakeOutputSchema(build->build_schema, probe->output_schema(),
                                join_type)),
      probe_(std::move(probe)),
      probe_keys_(std::move(probe_keys)),
      join_type_(join_type),
      exec_ctx_(exec_ctx),
      residual_(std::move(residual)),
      adaptive_compaction_(adaptive_compaction),
      state_(std::move(build)),
      built_(true) {
  PHOTON_CHECK(state_ != nullptr && !state_->tables.empty());
  PHOTON_CHECK(static_cast<int>(probe_keys_.size()) ==
               state_->tables[0]->num_keys());
}

HashJoinOperator::~HashJoinOperator() = default;

Status HashJoinOperator::Open() {
  if (build_ != nullptr) {
    PHOTON_RETURN_NOT_OK(build_->Open());
    state_ = JoinBuildState::Make(build_->output_schema(), build_keys_,
                                  /*partition_bits=*/0, exec_ctx_);
    built_ = false;
  }
  PHOTON_RETURN_NOT_OK(probe_->Open());
  probe_batch_ = nullptr;
  probe_idx_ = 0;
  chain_entry_ = nullptr;
  chain_open_ = false;
  chain_matched_ = false;
  accum_.reset();
  accum_rows_ = 0;
  accum_in_flight_ = false;
  pending_dense_ = nullptr;
  accum_source_ = nullptr;
  accum_source_pos_ = 0;
  return Status::OK();
}

Status HashJoinOperator::BuildPhase() {
  PHOTON_RETURN_NOT_OK(BuildInto(state_.get(), build_.get(), build_keys_));
  built_ = true;
  stats_.SetMax(obs::Metric::kPeakReservedBytes, state_->memory_bytes());
  return Status::OK();
}

void HashJoinOperator::EmitProbeColumns(const ColumnBatch& batch, int row,
                                        int out_row) {
  for (int c = 0; c < batch.num_columns(); c++) {
    const ColumnVector& in = *batch.column(c);
    ColumnVector* out = out_->column(c);
    if (in.IsNull(row)) {
      out->SetNull(out_row);
      continue;
    }
    out->SetNotNull(out_row);
    switch (in.type().id()) {
      case TypeId::kBoolean:
        out->data<uint8_t>()[out_row] = in.data<uint8_t>()[row];
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        out->data<int32_t>()[out_row] = in.data<int32_t>()[row];
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        out->data<int64_t>()[out_row] = in.data<int64_t>()[row];
        break;
      case TypeId::kFloat64:
        out->data<double>()[out_row] = in.data<double>()[row];
        break;
      case TypeId::kDecimal128:
        out->data<int128_t>()[out_row] = in.data<int128_t>()[row];
        break;
      case TypeId::kString: {
        StringRef s = in.data<StringRef>()[row];
        out->SetString(out_row, s.data, s.len);
        break;
      }
    }
  }
}

void HashJoinOperator::EmitBuildColumns(const uint8_t* entry, int out_row) {
  int base = probe_->output_schema().num_fields();
  for (int c = 0; c < state_->build_schema.num_fields(); c++) {
    ColumnVector* out = out_->column(base + c);
    if (entry == nullptr) {
      out->SetNull(out_row);
      continue;
    }
    const uint8_t* slot = state_->payload(entry) + state_->payload_offsets[c];
    if (*slot) {
      out->SetNull(out_row);
      continue;
    }
    out->SetNotNull(out_row);
    const uint8_t* value = slot + 1;
    switch (state_->build_schema.field(c).type.id()) {
      case TypeId::kBoolean:
        out->data<uint8_t>()[out_row] = *value;
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        std::memcpy(&out->data<int32_t>()[out_row], value, 4);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        std::memcpy(&out->data<int64_t>()[out_row], value, 8);
        break;
      case TypeId::kFloat64:
        std::memcpy(&out->data<double>()[out_row], value, 8);
        break;
      case TypeId::kDecimal128:
        std::memcpy(&out->data<int128_t>()[out_row], value, 16);
        break;
      case TypeId::kString: {
        StringRef s;
        std::memcpy(&s, value, sizeof(s));
        out->SetString(out_row, s.data, s.len);
        break;
      }
    }
  }
}

Result<bool> HashJoinOperator::ResidualMatches(const ColumnBatch& batch,
                                               int probe_row,
                                               const uint8_t* entry) {
  if (residual_ == nullptr) return true;
  // Boxed combined row: probe columns then build columns.
  std::vector<Value> row;
  row.reserve(batch.num_columns() + state_->build_schema.num_fields());
  for (int c = 0; c < batch.num_columns(); c++) {
    row.push_back(batch.column(c)->GetValue(probe_row));
  }
  for (int c = 0; c < state_->build_schema.num_fields(); c++) {
    const uint8_t* slot = state_->payload(entry) + state_->payload_offsets[c];
    if (*slot) {
      row.push_back(Value::Null());
      continue;
    }
    const uint8_t* value = slot + 1;
    switch (state_->build_schema.field(c).type.id()) {
      case TypeId::kBoolean:
        row.push_back(Value::Boolean(*value != 0));
        break;
      case TypeId::kInt32: {
        int32_t v;
        std::memcpy(&v, value, 4);
        row.push_back(Value::Int32(v));
        break;
      }
      case TypeId::kDate32: {
        int32_t v;
        std::memcpy(&v, value, 4);
        row.push_back(Value::Date32(v));
        break;
      }
      case TypeId::kInt64: {
        int64_t v;
        std::memcpy(&v, value, 8);
        row.push_back(Value::Int64(v));
        break;
      }
      case TypeId::kTimestamp: {
        int64_t v;
        std::memcpy(&v, value, 8);
        row.push_back(Value::Timestamp(v));
        break;
      }
      case TypeId::kFloat64: {
        double v;
        std::memcpy(&v, value, 8);
        row.push_back(Value::Float64(v));
        break;
      }
      case TypeId::kDecimal128: {
        int128_t v;
        std::memcpy(&v, value, 16);
        row.push_back(Value::Decimal(Decimal128(v)));
        break;
      }
      case TypeId::kString: {
        StringRef s;
        std::memcpy(&s, value, sizeof(s));
        row.push_back(Value::String(std::string(s.data, s.len)));
        break;
      }
    }
  }
  PHOTON_ASSIGN_OR_RETURN(Value v, residual_->EvaluateRow(row));
  return !v.is_null() && v.boolean();
}

Status HashJoinOperator::ProbeBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  std::vector<const ColumnVector*> key_vecs;
  for (const ExprPtr& k : probe_keys_) {
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx_));
    key_vecs.push_back(v);
  }
  hashes_.resize(n);
  match_heads_.resize(n);
  VectorizedHashTable::HashKeys(key_vecs, *batch, hashes_.data());
  // Const probes with caller-owned scratch: the tables may be shared with
  // other tasks probing concurrently. A partitioned build is probed one
  // sub-table at a time, each with its share of the batch's rows.
  const JoinBuildState& build = *state_;
  if (build.num_partitions() == 1) {
    build.tables[0]->Lookup(key_vecs, *batch, hashes_.data(),
                            match_heads_.data(), &probe_scratch_);
  } else {
    GroupByPartition(build, hashes_.data(), n, &part_sel_, &part_offsets_);
    for (int p = 0; p < build.num_partitions(); p++) {
      const int begin = part_offsets_[p];
      const int count = part_offsets_[p + 1] - begin;
      if (count == 0) continue;
      build.tables[p]->Lookup(key_vecs, *batch, hashes_.data(),
                              part_sel_.data() + begin, count,
                              match_heads_.data(), &probe_scratch_);
    }
  }
  probe_batch_ = batch;
  probe_idx_ = 0;
  chain_entry_ = nullptr;
  return Status::OK();
}

/// Copies active rows of `accum_source_` (from `accum_source_pos_`) into
/// the compaction buffer until it fills or the source is drained.
void HashJoinOperator::DrainSparseSource() {
  int n = accum_source_->num_active();
  while (accum_source_pos_ < n && accum_rows_ < accum_->capacity()) {
    CopyRow(*accum_source_, accum_source_->ActiveRow(accum_source_pos_),
            accum_.get(), accum_rows_);
    accum_source_pos_++;
    accum_rows_++;
  }
  if (accum_source_pos_ >= n) accum_source_ = nullptr;
}

Result<ColumnBatch*> HashJoinOperator::ProbeNextBatch() {
  // Adaptive compaction (§4.6, Figure 9): sparse probe batches (most rows
  // deactivated by upstream filters) are coalesced into one dense batch
  // before probing. Dense batches keep the hash-table loads saturating the
  // memory system and amortize per-batch interpretation overhead in the
  // operators downstream of the join — sparse batches incur high memory
  // latency without saturating bandwidth, and can even lose to the
  // row-at-a-time engine.
  if (accum_ == nullptr && adaptive_compaction_) {
    accum_ = std::make_unique<ColumnBatch>(probe_->output_schema(),
                                           exec_ctx_.batch_size);
  }
  if (accum_in_flight_) {
    // The previously probed compaction buffer is fully emitted: recycle it.
    accum_->Reset();
    accum_rows_ = 0;
    accum_in_flight_ = false;
  }

  auto probe_accum = [&]() -> Result<ColumnBatch*> {
    accum_->set_num_rows(accum_rows_);
    accum_->SetAllActive();
    accum_in_flight_ = true;
    compacted_batches_++;
    PHOTON_RETURN_NOT_OK(ProbeBatch(accum_.get()));
    return accum_.get();
  };

  while (true) {
    if (pending_dense_ != nullptr && accum_rows_ == 0) {
      ColumnBatch* batch = pending_dense_;
      pending_dense_ = nullptr;
      ctx_.ResetPerBatch();
      PHOTON_RETURN_NOT_OK(ProbeBatch(batch));
      return batch;
    }
    if (accum_source_ != nullptr) {
      DrainSparseSource();
      if (accum_rows_ == accum_->capacity()) return probe_accum();
    }

    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, probe_->GetNext());
    if (batch == nullptr) {
      if (accum_rows_ > 0) return probe_accum();
      return nullptr;
    }
    if (batch->num_active() == 0) continue;

    bool sparse = adaptive_compaction_ && !batch->all_active() &&
                  batch->Sparsity() < kCompactionSparsityThreshold;
    if (!sparse) {
      if (accum_rows_ > 0) {
        // Flush the accumulated rows first; probe this batch afterwards.
        pending_dense_ = batch;
        return probe_accum();
      }
      PHOTON_RETURN_NOT_OK(ProbeBatch(batch));
      return batch;
    }
    accum_source_ = batch;
    accum_source_pos_ = 0;
    DrainSparseSource();
    if (accum_rows_ == accum_->capacity()) return probe_accum();
  }
}

Result<ColumnBatch*> HashJoinOperator::EmitMatches() {
  // Semi/anti: narrow the probe batch's position list in place.
  if (join_type_ == JoinType::kLeftSemi || join_type_ == JoinType::kLeftAnti) {
    ColumnBatch* batch = probe_batch_;
    int n = batch->num_active();
    int32_t* pos = batch->mutable_pos_list();
    int out = 0;
    for (int i = 0; i < n; i++) {
      int row = batch->ActiveRow(i);
      bool matched = false;
      for (const uint8_t* e = match_heads_[i]; e != nullptr;
           e = VectorizedHashTable::next(e)) {
        PHOTON_ASSIGN_OR_RETURN(bool ok, ResidualMatches(*batch, row, e));
        if (ok) {
          matched = true;
          break;
        }
      }
      bool keep = join_type_ == JoinType::kLeftSemi ? matched : !matched;
      if (keep) pos[out++] = row;
    }
    batch->SetActiveRows(out);
    probe_batch_ = nullptr;  // fully consumed
    return out > 0 ? batch : nullptr;
  }

  // Inner / left outer: gather matching pairs into the output batch.
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  out_->Reset();
  int out_row = 0;
  int n = probe_batch_->num_active();
  while (probe_idx_ < n && out_row < out_->capacity()) {
    int row = probe_batch_->ActiveRow(probe_idx_);
    if (!chain_open_) {
      // Starting this probe row.
      chain_entry_ = match_heads_[probe_idx_];
      chain_open_ = true;
      chain_matched_ = false;
    }
    while (chain_entry_ != nullptr && out_row < out_->capacity()) {
      // Left outer evaluates the residual per candidate pair (like
      // semi/anti): only passing pairs are matches, and a probe row whose
      // candidates all fail is NULL-padded below. Inner instead defers to
      // the vectorized FilterBatch over the emitted batch.
      if (residual_ != nullptr && join_type_ == JoinType::kLeftOuter) {
        PHOTON_ASSIGN_OR_RETURN(
            bool ok, ResidualMatches(*probe_batch_, row, chain_entry_));
        if (!ok) {
          chain_entry_ = VectorizedHashTable::next(chain_entry_);
          continue;
        }
      }
      EmitProbeColumns(*probe_batch_, row, out_row);
      EmitBuildColumns(chain_entry_, out_row);
      out_row++;
      chain_matched_ = true;
      chain_entry_ = VectorizedHashTable::next(chain_entry_);
    }
    if (chain_entry_ != nullptr) break;  // output batch full mid-chain
    if (join_type_ == JoinType::kLeftOuter && !chain_matched_) {
      if (out_row >= out_->capacity()) break;  // NULL-pad in the next batch
      EmitProbeColumns(*probe_batch_, row, out_row);
      EmitBuildColumns(nullptr, out_row);
      out_row++;
    }
    chain_open_ = false;
    probe_idx_++;
  }
  if (probe_idx_ >= n) probe_batch_ = nullptr;  // batch exhausted
  if (out_row == 0) return nullptr;
  out_->set_num_rows(out_row);
  out_->SetAllActive();
  if (residual_ != nullptr && join_type_ == JoinType::kInner) {
    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(int active,
                            FilterBatch(*residual_, out_.get(), &ctx_));
    if (active == 0) return nullptr;
  }
  return out_.get();
}

Result<ColumnBatch*> HashJoinOperator::GetNextImpl() {
  if (!built_) {
    PHOTON_RETURN_NOT_OK(BuildPhase());
  }
  while (true) {
    if (probe_batch_ == nullptr) {
      PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, ProbeNextBatch());
      if (batch == nullptr) return nullptr;
    }
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * out, EmitMatches());
    if (out != nullptr) return out;
  }
}

void HashJoinOperator::Close() {
  if (build_ != nullptr) build_->Close();
  probe_->Close();
  if (build_ != nullptr && state_ != nullptr &&
      state_->memory_manager != nullptr && state_->reserved_bytes() > 0) {
    // Private build: release eagerly; a shared build's reservation is
    // released when the last prober drops its reference.
    state_->memory_manager->Release(state_.get(), state_->reserved_bytes());
  }
}

void HashJoinOperator::PublishMetricsImpl() {
  if (state_ == nullptr) return;
  int64_t peak =
      std::max(state_->peak_reserved_bytes(), state_->memory_bytes());
  stats_.SetMax(obs::Metric::kPeakReservedBytes, peak);
  if (build_ != nullptr) {
    // Private build: this operator did the reserving. (A shared build's
    // waits would be double-counted if every prober published them.)
    stats_.Add(obs::Metric::kReserveWaitNs, state_->reserve_wait_ns());
    stats_.Add(obs::Metric::kReserveWaits, state_->reserve_waits());
  }
}

}  // namespace photon
