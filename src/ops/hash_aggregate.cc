#include "ops/hash_aggregate.h"

#include <cstring>

namespace photon {
namespace {

// Spill-file key/value serialization helpers.
void WriteKeySlot(const DataType& type, const VectorizedHashTable& table,
                  const uint8_t* entry, int k, BinaryWriter* out) {
  if (table.KeyIsNull(entry, k)) {
    out->WriteU8(1);
    return;
  }
  out->WriteU8(0);
  const uint8_t* slot = table.key_slot(entry, k);
  switch (type.id()) {
    case TypeId::kBoolean:
      out->WriteU8(*slot);
      break;
    case TypeId::kInt32:
    case TypeId::kDate32:
      out->Append(slot, 4);
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kFloat64:
      out->Append(slot, 8);
      break;
    case TypeId::kDecimal128:
      out->Append(slot, 16);
      break;
    case TypeId::kString: {
      StringRef s;
      std::memcpy(&s, slot, sizeof(s));
      out->WriteString(std::string_view(s.data, s.len));
      break;
    }
  }
}

Status ReadKeyIntoVector(const DataType& type, BinaryReader* in,
                         ColumnVector* vec, int row) {
  uint8_t is_null = 0;
  PHOTON_RETURN_NOT_OK(in->ReadU8(&is_null));
  if (is_null) {
    vec->SetNull(row);
    return Status::OK();
  }
  vec->SetNotNull(row);
  switch (type.id()) {
    case TypeId::kBoolean:
      return in->ReadU8(&vec->data<uint8_t>()[row]);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return in->ReadI32(&vec->data<int32_t>()[row]);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return in->ReadI64(&vec->data<int64_t>()[row]);
    case TypeId::kFloat64:
      return in->ReadF64(&vec->data<double>()[row]);
    case TypeId::kDecimal128:
      return in->ReadRaw(&vec->data<int128_t>()[row], 16);
    case TypeId::kString: {
      std::string s;
      PHOTON_RETURN_NOT_OK(in->ReadString(&s));
      vec->SetString(row, s);
      return Status::OK();
    }
  }
  return Status::Internal("bad key type");
}

/// Writes a hash table key column into an output vector (typed, no boxing).
void EmitKeyColumn(const VectorizedHashTable& table,
                   const std::vector<uint8_t*>& entries, size_t begin,
                   int count, int k, ColumnVector* out) {
  const DataType& type = table.key_type(k);
  for (int i = 0; i < count; i++) {
    const uint8_t* entry = entries[begin + i];
    if (table.KeyIsNull(entry, k)) {
      out->SetNull(i);
      continue;
    }
    out->SetNotNull(i);
    const uint8_t* slot = table.key_slot(entry, k);
    switch (type.id()) {
      case TypeId::kBoolean:
        out->data<uint8_t>()[i] = *slot;
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        std::memcpy(&out->data<int32_t>()[i], slot, 4);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        std::memcpy(&out->data<int64_t>()[i], slot, 8);
        break;
      case TypeId::kFloat64:
        std::memcpy(&out->data<double>()[i], slot, 8);
        break;
      case TypeId::kDecimal128:
        std::memcpy(&out->data<int128_t>()[i], slot, 16);
        break;
      case TypeId::kString: {
        StringRef s;
        std::memcpy(&s, slot, sizeof(s));
        out->SetString(i, s.data, s.len);
        break;
      }
    }
  }
}

}  // namespace

Schema HashAggregateOperator::MakeOutputSchema(
    const std::vector<ExprPtr>& keys,
    const std::vector<std::string>& key_names,
    const std::vector<AggregateSpec>& aggs) {
  PHOTON_CHECK(keys.size() == key_names.size());
  Schema schema;
  for (size_t i = 0; i < keys.size(); i++) {
    schema.AddField(Field(key_names[i], keys[i]->type()));
  }
  for (const AggregateSpec& spec : aggs) {
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->type() : DataType::Int64();
    Result<DataType> result = AggResultType(spec.kind, arg_type);
    PHOTON_CHECK(result.ok());
    schema.AddField(Field(spec.name, *result));
  }
  return schema;
}

Schema HashAggregateOperator::PartialOutputSchema() {
  Schema schema;
  schema.AddField(Field("partition", DataType::Int32()));
  schema.AddField(Field("agg_state", DataType::String()));
  return schema;
}

HashAggregateOperator::HashAggregateOperator(
    OperatorPtr child, std::vector<ExprPtr> keys,
    std::vector<std::string> key_names, std::vector<AggregateSpec> aggs,
    ExecContext exec_ctx, AggMode mode)
    : Operator(mode == AggMode::kPartial ? PartialOutputSchema()
                                         : MakeOutputSchema(keys, key_names,
                                                            aggs)),
      MemoryConsumer("PhotonHashAggregate"),
      child_(std::move(child)),
      keys_(std::move(keys)),
      specs_(std::move(aggs)),
      exec_ctx_(exec_ctx),
      mode_(mode) {
  scalar_mode_ = keys_.empty();
  int offset = 0;
  for (const AggregateSpec& spec : specs_) {
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->type() : DataType::Int64();
    Result<std::unique_ptr<AggregateFunction>> fn =
        MakeAggregateFunction(spec.kind, arg_type);
    PHOTON_CHECK(fn.ok());
    aggs_.push_back(std::move(fn).ValueOrDie());
    // 16-align each state: decimal sums embed __int128.
    offset = (offset + 15) & ~15;
    agg_state_offsets_.push_back(offset);
    offset += aggs_.back()->state_bytes();
  }
  payload_bytes_ = offset;
  spill_keys_.resize(kSpillPartitions);
}

HashAggregateOperator::~HashAggregateOperator() {
  if (exec_ctx_.memory_manager != nullptr) {
    exec_ctx_.memory_manager->Release(this, reserved_bytes());
    exec_ctx_.memory_manager->UnregisterConsumer(this);
  }
}

Status HashAggregateOperator::Open() {
  PHOTON_RETURN_NOT_OK(child_->Open());
  arena_ = std::make_unique<VarLenPool>();
  for (auto& agg : aggs_) agg->set_arena(arena_.get());
  if (scalar_mode_) {
    scalar_state_.assign(payload_bytes_, 0);
    for (size_t j = 0; j < aggs_.size(); j++) {
      aggs_[j]->Init(scalar_state_.data() + agg_state_offsets_[j]);
    }
  } else {
    std::vector<DataType> key_types;
    for (const ExprPtr& k : keys_) key_types.push_back(k->type());
    table_ = std::make_unique<VectorizedHashTable>(
        key_types, payload_bytes_, /*match_null_keys=*/true);
  }
  if (exec_ctx_.memory_manager != nullptr) {
    BindConsumerToContext(this, exec_ctx_);
    exec_ctx_.memory_manager->RegisterConsumer(this);
  }
  input_consumed_ = false;
  scalar_emitted_ = false;
  emit_pos_ = 0;
  partial_spill_stream_.clear();
  partial_spill_pos_ = 0;
  partial_prepared_ = false;
  return Status::OK();
}

int64_t HashAggregateOperator::CurrentMemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(arena_->total_bytes());
  if (table_ != nullptr) bytes += table_->memory_bytes();
  return bytes;
}

Status HashAggregateOperator::ReserveForDelta() {
  if (exec_ctx_.memory_manager == nullptr) return Status::OK();
  int64_t actual = CurrentMemoryBytes();
  if (actual > reserved_for_data_) {
    int64_t delta = actual - reserved_for_data_;
    PHOTON_RETURN_NOT_OK(exec_ctx_.memory_manager->Reserve(this, delta));
    reserved_for_data_ += delta;
  }
  return Status::OK();
}

Status HashAggregateOperator::ProcessBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  if (n == 0) return Status::OK();
  // Recycle expression scratch from the previous batch (§4.5).
  ctx_.ResetPerBatch();
  EvalContext& ctx = ctx_;

  // Evaluate aggregate arguments first (they see the same active set).
  std::vector<const ColumnVector*> arg_vecs(specs_.size(), nullptr);
  for (size_t j = 0; j < specs_.size(); j++) {
    if (specs_[j].arg != nullptr) {
      PHOTON_ASSIGN_OR_RETURN(ColumnVector * v,
                              specs_[j].arg->Evaluate(batch, &ctx));
      arg_vecs[j] = v;
    }
  }

  if (scalar_mode_) {
    entries_.assign(n, scalar_state_.data());
    std::vector<uint8_t*> states(n);
    for (size_t j = 0; j < aggs_.size(); j++) {
      for (int i = 0; i < n; i++) {
        states[i] = scalar_state_.data() + agg_state_offsets_[j];
      }
      aggs_[j]->Update(arg_vecs[j], *batch, states.data());
    }
    return Status::OK();
  }

  // Reservation phase (§5.3): acquire memory for this batch's worst-case
  // growth before touching the table; spilling can only happen here.
  if (exec_ctx_.memory_manager != nullptr) {
    int64_t estimate = static_cast<int64_t>(n) * (payload_bytes_ + 96);
    PHOTON_RETURN_NOT_OK(exec_ctx_.memory_manager->Reserve(this, estimate));
    reserved_for_data_ += estimate;
  }

  // Allocation phase: evaluate keys, probe/insert, update states.
  std::vector<const ColumnVector*> key_vecs;
  for (const ExprPtr& k : keys_) {
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx));
    key_vecs.push_back(v);
  }
  hashes_.resize(n);
  entries_.resize(n);
  if (inserted_capacity_ < n) {
    inserted_ = std::make_unique<bool[]>(n);
    inserted_capacity_ = n;
  }

  VectorizedHashTable::HashKeys(key_vecs, *batch, hashes_.data());
  PHOTON_RETURN_NOT_OK(table_->LookupOrInsert(
      key_vecs, *batch, hashes_.data(), entries_.data(), inserted_.get()));

  for (int i = 0; i < n; i++) {
    if (inserted_[i]) {
      uint8_t* payload = table_->payload(entries_[i]);
      for (size_t j = 0; j < aggs_.size(); j++) {
        aggs_[j]->Init(payload + agg_state_offsets_[j]);
      }
    }
  }

  std::vector<uint8_t*> states(n);
  for (size_t j = 0; j < aggs_.size(); j++) {
    for (int i = 0; i < n; i++) {
      states[i] = entries_[i] == nullptr
                      ? nullptr
                      : table_->payload(entries_[i]) + agg_state_offsets_[j];
    }
    aggs_[j]->Update(arg_vecs[j], *batch, states.data());
  }

  // True memory usage may exceed the estimate (large strings): top up.
  return ReserveForDelta();
}

Status HashAggregateOperator::ConsumeInput() {
  while (true) {
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, child_->GetNext());
    if (batch == nullptr) break;
    if (mode_ == AggMode::kFinalMerge) {
      PHOTON_RETURN_NOT_OK(MergeBlobBatch(batch));
    } else {
      PHOTON_RETURN_NOT_OK(ProcessBatch(batch));
    }
  }
  input_consumed_ = true;

  if (!scalar_mode_ && spill_seq_ > 0 && table_->num_entries() > 0) {
    // Some groups already went to disk: the in-memory remainder must be
    // spilled too so each partition can be merged exactly once.
    Spill(INT64_MAX);
  }
  if (!scalar_mode_ && spill_seq_ == 0) {
    emit_entries_.clear();
    table_->ForEachEntry(
        [&](uint8_t* entry) { emit_entries_.push_back(entry); });
    emit_pos_ = 0;
  }
  return Status::OK();
}

void HashAggregateOperator::SerializeEntry(const uint8_t* entry,
                                           BinaryWriter* out) const {
  for (size_t k = 0; k < keys_.size(); k++) {
    WriteKeySlot(keys_[k]->type(), *table_, entry, static_cast<int>(k), out);
  }
  const uint8_t* payload = table_->payload(entry);
  for (size_t j = 0; j < aggs_.size(); j++) {
    aggs_[j]->Serialize(payload + agg_state_offsets_[j], out);
  }
}

int64_t HashAggregateOperator::Spill(int64_t /*requested*/) {
  if (scalar_mode_ || table_ == nullptr || table_->num_entries() == 0) {
    return 0;
  }
  std::vector<BinaryWriter> writers(kSpillPartitions);
  const int skip = mode_ == AggMode::kFinalMerge ? kMergeBits : 0;
  table_->ForEachEntry([&](uint8_t* entry) {
    int p = VectorizedHashTable::HashPartition(
        VectorizedHashTable::entry_hash(entry), kSpillBits, skip);
    SerializeEntry(entry, &writers[p]);
  });
  int64_t written = 0;
  for (int p = 0; p < kSpillPartitions; p++) {
    if (writers[p].size() == 0) continue;
    std::string key = exec_ctx_.spill_prefix + "/agg-p" + std::to_string(p) +
                      "-" + std::to_string(spill_seq_);
    written += static_cast<int64_t>(writers[p].size());
    Status st = ObjectStore::Default().Put(key, writers[p].ToString());
    PHOTON_CHECK(st.ok());
    spill_keys_[p].push_back(key);
  }
  spill_seq_++;
  stats_.Add(obs::Metric::kSpillCount, 1);
  stats_.Add(obs::Metric::kSpillBytes, written);

  table_->Clear();
  arena_->Reset();
  int64_t freed = reserved_for_data_;
  if (exec_ctx_.memory_manager != nullptr && freed > 0) {
    exec_ctx_.memory_manager->Release(this, freed);
  }
  reserved_for_data_ = 0;
  return freed;
}

Status HashAggregateOperator::MergeBlobBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  if (n == 0) return Status::OK();
  PHOTON_CHECK(batch->num_columns() == 2 &&
               batch->column(1)->type().id() == TypeId::kString);
  const StringRef* blobs = batch->column(1)->data<StringRef>();
  for (int i = 0; i < n; i++) {
    int row = batch->ActiveRow(i);
    if (batch->column(1)->IsNull(row)) continue;
    StringRef blob = blobs[row];
    std::string_view bytes(blob.data, static_cast<size_t>(blob.len));
    if (scalar_mode_) {
      // Scalar blobs carry the agg states back-to-back (no keys).
      BinaryReader reader(bytes);
      std::vector<uint8_t> temp_state;
      for (size_t j = 0; j < aggs_.size(); j++) {
        temp_state.assign(aggs_[j]->state_bytes(), 0);
        aggs_[j]->Init(temp_state.data());
        PHOTON_RETURN_NOT_OK(
            aggs_[j]->Deserialize(&reader, temp_state.data()));
        aggs_[j]->Merge(scalar_state_.data() + agg_state_offsets_[j],
                        temp_state.data());
      }
    } else {
      PHOTON_RETURN_NOT_OK(MergeSpillBlock(bytes));
      PHOTON_RETURN_NOT_OK(ReserveForDelta());
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::MergeSpillBlock(std::string_view bytes) {
  BinaryReader reader(bytes);
  // One-row staging batch used to re-probe the table with deserialized keys.
  Schema key_schema;
  for (size_t k = 0; k < keys_.size(); k++) {
    key_schema.AddField(Field("k" + std::to_string(k), keys_[k]->type()));
  }
  ColumnBatch staging(key_schema, 1);
  std::vector<const ColumnVector*> key_vecs;
  for (int k = 0; k < key_schema.num_fields(); k++) {
    key_vecs.push_back(staging.column(k));
  }
  std::vector<uint8_t> temp_state;
  uint64_t hash = 0;
  uint8_t* entry = nullptr;
  bool inserted = false;

  while (reader.remaining() > 0) {
    staging.Reset();
    for (int k = 0; k < key_schema.num_fields(); k++) {
      PHOTON_RETURN_NOT_OK(ReadKeyIntoVector(
          keys_[k]->type(), &reader, staging.column(k), 0));
    }
    staging.set_num_rows(1);
    staging.SetAllActive();
    VectorizedHashTable::HashKeys(key_vecs, staging, &hash);
    PHOTON_RETURN_NOT_OK(table_->LookupOrInsert(key_vecs, staging, &hash,
                                                &entry, &inserted));
    uint8_t* payload = table_->payload(entry);
    for (size_t j = 0; j < aggs_.size(); j++) {
      uint8_t* dst = payload + agg_state_offsets_[j];
      if (inserted) {
        aggs_[j]->Init(dst);
      }
      temp_state.assign(aggs_[j]->state_bytes(), 0);
      aggs_[j]->Init(temp_state.data());
      PHOTON_RETURN_NOT_OK(aggs_[j]->Deserialize(&reader, temp_state.data()));
      aggs_[j]->Merge(dst, temp_state.data());
    }
  }
  return Status::OK();
}

Result<bool> HashAggregateOperator::LoadNextSpillPartition() {
  while (++current_spill_partition_ < kSpillPartitions) {
    if (spill_keys_[current_spill_partition_].empty()) continue;
    table_->Clear();
    arena_->Reset();
    for (const std::string& key :
         spill_keys_[current_spill_partition_]) {
      PHOTON_ASSIGN_OR_RETURN(std::string bytes,
                              ObjectStore::Default().Get(key));
      PHOTON_RETURN_NOT_OK(MergeSpillBlock(bytes));
    }
    emit_entries_.clear();
    table_->ForEachEntry(
        [&](uint8_t* entry) { emit_entries_.push_back(entry); });
    emit_pos_ = 0;
    if (!emit_entries_.empty()) return true;
  }
  return false;
}

ColumnBatch* HashAggregateOperator::EmitFromTable() {
  if (emit_pos_ >= emit_entries_.size()) return nullptr;
  int count = static_cast<int>(
      std::min<size_t>(exec_ctx_.batch_size, emit_entries_.size() - emit_pos_));
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  out_->Reset();
  for (size_t k = 0; k < keys_.size(); k++) {
    EmitKeyColumn(*table_, emit_entries_, emit_pos_, count,
                  static_cast<int>(k), out_->column(static_cast<int>(k)));
  }
  for (size_t j = 0; j < aggs_.size(); j++) {
    ColumnVector* out_col =
        out_->column(static_cast<int>(keys_.size() + j));
    for (int i = 0; i < count; i++) {
      const uint8_t* payload = table_->payload(emit_entries_[emit_pos_ + i]);
      aggs_[j]->Finalize(payload + agg_state_offsets_[j], out_col, i);
    }
  }
  emit_pos_ += count;
  out_->set_num_rows(count);
  out_->SetAllActive();
  return out_.get();
}

Result<ColumnBatch*> HashAggregateOperator::EmitPartial() {
  // Each output row is one blob of serialized (key, state) entries — the
  // same wire format as the spill files, so spilled partial state is
  // streamed out raw without being re-merged in memory. A blob, and an
  // output batch, never spans two merge partitions.
  constexpr int kEntriesPerBlob = 512;
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  if (!partial_prepared_) {
    partial_prepared_ = true;
    if (!scalar_mode_ && spill_seq_ > 0) {
      for (int p = 0; p < kSpillPartitions; p++) {
        for (const std::string& key : spill_keys_[p]) {
          partial_spill_stream_.emplace_back(p >> (kSpillBits - kMergeBits),
                                             key);
        }
      }
    } else if (!scalar_mode_) {
      // Group the entries by merge partition, table order within each.
      auto part_of = [](const uint8_t* entry) {
        return VectorizedHashTable::HashPartition(
            VectorizedHashTable::entry_hash(entry), kMergeBits);
      };
      part_begin_.assign(kMergePartitions + 1, 0);
      for (const uint8_t* e : emit_entries_) part_begin_[part_of(e) + 1]++;
      for (int p = 0; p < kMergePartitions; p++) {
        part_begin_[p + 1] += part_begin_[p];
      }
      std::vector<size_t> fill(part_begin_.begin(), part_begin_.end() - 1);
      std::vector<uint8_t*> grouped(emit_entries_.size());
      for (uint8_t* e : emit_entries_) grouped[fill[part_of(e)]++] = e;
      emit_entries_.swap(grouped);
      emit_pos_ = 0;
      emit_part_ = 0;
    }
  }
  out_->Reset();
  ColumnVector* part_col = out_->column(0);
  ColumnVector* blob_col = out_->column(1);
  int out_row = 0;
  auto add_blob = [&](int part, const std::string& bytes) {
    part_col->SetNotNull(out_row);
    part_col->data<int32_t>()[out_row] = part;
    blob_col->SetNotNull(out_row);
    blob_col->SetString(out_row, bytes);
    out_row++;
  };
  if (scalar_mode_) {
    if (!scalar_emitted_) {
      scalar_emitted_ = true;
      BinaryWriter writer;
      for (size_t j = 0; j < aggs_.size(); j++) {
        aggs_[j]->Serialize(scalar_state_.data() + agg_state_offsets_[j],
                            &writer);
      }
      add_blob(0, writer.ToString());
    }
  } else if (spill_seq_ > 0) {
    while (out_row < out_->capacity() &&
           partial_spill_pos_ < partial_spill_stream_.size()) {
      const auto& [part, key] = partial_spill_stream_[partial_spill_pos_];
      if (out_row > 0 && part != part_col->data<int32_t>()[0]) break;
      PHOTON_ASSIGN_OR_RETURN(std::string bytes,
                              ObjectStore::Default().Get(key));
      add_blob(part, bytes);
      partial_spill_pos_++;
    }
  } else {
    while (emit_part_ < kMergePartitions &&
           emit_pos_ == part_begin_[emit_part_ + 1]) {
      emit_part_++;
    }
    while (emit_part_ < kMergePartitions && out_row < out_->capacity() &&
           emit_pos_ < part_begin_[emit_part_ + 1]) {
      size_t end = std::min(part_begin_[emit_part_ + 1],
                            emit_pos_ + kEntriesPerBlob);
      BinaryWriter writer;
      for (size_t i = emit_pos_; i < end; i++) {
        SerializeEntry(emit_entries_[i], &writer);
      }
      emit_pos_ = end;
      add_blob(emit_part_, writer.ToString());
    }
  }
  if (out_row == 0) return nullptr;
  out_->set_num_rows(out_row);
  out_->SetAllActive();
  return out_.get();
}

Result<ColumnBatch*> HashAggregateOperator::GetNextImpl() {
  if (!input_consumed_) {
    PHOTON_RETURN_NOT_OK(ConsumeInput());
  }

  if (mode_ == AggMode::kPartial) {
    return EmitPartial();
  }

  if (scalar_mode_) {
    if (scalar_emitted_) return nullptr;
    scalar_emitted_ = true;
    if (out_ == nullptr) {
      out_ = std::make_unique<ColumnBatch>(output_schema_, 1);
    }
    out_->Reset();
    for (size_t j = 0; j < aggs_.size(); j++) {
      aggs_[j]->Finalize(scalar_state_.data() + agg_state_offsets_[j],
                         out_->column(static_cast<int>(j)), 0);
    }
    out_->set_num_rows(1);
    out_->SetAllActive();
    return out_.get();
  }

  while (true) {
    ColumnBatch* batch = EmitFromTable();
    if (batch != nullptr) return batch;
    if (spill_seq_ == 0) return nullptr;
    PHOTON_ASSIGN_OR_RETURN(bool more, LoadNextSpillPartition());
    if (!more) return nullptr;
  }
}

void HashAggregateOperator::Close() {
  child_->Close();
  for (auto& keys : spill_keys_) {
    for (const std::string& key : keys) {
      (void)ObjectStore::Default().Delete(key);
    }
    keys.clear();
  }
  if (exec_ctx_.memory_manager != nullptr && reserved_bytes() > 0) {
    exec_ctx_.memory_manager->Release(this, reserved_bytes());
    reserved_for_data_ = 0;
  }
}

void HashAggregateOperator::PublishMetricsImpl() {
  stats_.SetMax(obs::Metric::kPeakReservedBytes, peak_reserved_bytes());
  stats_.Add(obs::Metric::kReserveWaitNs, reserve_wait_ns());
  stats_.Add(obs::Metric::kReserveWaits, reserve_waits());
}

}  // namespace photon
