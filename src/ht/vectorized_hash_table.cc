#include "ht/vectorized_hash_table.h"

#include <cstring>

#include "common/hash.h"
#include "common/macros.h"

namespace photon {
namespace {

// Hash contribution of a NULL key value.
constexpr uint64_t kNullHash = 0x9D5E350AFD3CB6D1ULL;

// Hashing kernels: one tight loop per (type, first-or-combine, activity)
// shape so the compiler can vectorize the common dense case.
template <typename T, bool kFirst>
void HashFixedKernel(const T* PHOTON_RESTRICT values,
                     const uint8_t* PHOTON_RESTRICT nulls,
                     const int32_t* PHOTON_RESTRICT pos_list, int n,
                     bool all_active, uint64_t* PHOTON_RESTRICT hashes) {
  for (int i = 0; i < n; i++) {
    int row = all_active ? i : pos_list[i];
    uint64_t h = nulls[row] ? kNullHash
                            : HashMix64(static_cast<uint64_t>(values[row]));
    if constexpr (kFirst) {
      hashes[i] = h;
    } else {
      hashes[i] = HashCombine(hashes[i], h);
    }
  }
}

template <bool kFirst>
void HashDecimalKernel(const int128_t* PHOTON_RESTRICT values,
                       const uint8_t* PHOTON_RESTRICT nulls,
                       const int32_t* PHOTON_RESTRICT pos_list, int n,
                       bool all_active, uint64_t* PHOTON_RESTRICT hashes) {
  for (int i = 0; i < n; i++) {
    int row = all_active ? i : pos_list[i];
    uint64_t h;
    if (nulls[row]) {
      h = kNullHash;
    } else {
      uint128_t v = static_cast<uint128_t>(values[row]);
      h = HashMix64(static_cast<uint64_t>(v) ^
                    (HashMix64(static_cast<uint64_t>(v >> 64))));
    }
    if constexpr (kFirst) {
      hashes[i] = h;
    } else {
      hashes[i] = HashCombine(hashes[i], h);
    }
  }
}

template <bool kFirst>
void HashStringKernel(const StringRef* values, const uint8_t* nulls,
                      const int32_t* pos_list, int n, bool all_active,
                      uint64_t* hashes) {
  for (int i = 0; i < n; i++) {
    int row = all_active ? i : pos_list[i];
    uint64_t h = nulls[row]
                     ? kNullHash
                     : HashBytes(values[row].data, values[row].len);
    if constexpr (kFirst) {
      hashes[i] = h;
    } else {
      hashes[i] = HashCombine(hashes[i], h);
    }
  }
}

template <bool kFirst>
void HashColumn(const ColumnVector& col, const ColumnBatch& batch,
                uint64_t* hashes) {
  int n = batch.num_active();
  const int32_t* pos = batch.pos_list();
  bool all = batch.all_active();
  const uint8_t* nulls = col.nulls();
  switch (col.type().id()) {
    case TypeId::kBoolean:
      HashFixedKernel<uint8_t, kFirst>(col.data<uint8_t>(), nulls, pos, n,
                                       all, hashes);
      break;
    case TypeId::kInt32:
    case TypeId::kDate32:
      HashFixedKernel<int32_t, kFirst>(col.data<int32_t>(), nulls, pos, n,
                                       all, hashes);
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      HashFixedKernel<int64_t, kFirst>(col.data<int64_t>(), nulls, pos, n,
                                       all, hashes);
      break;
    case TypeId::kFloat64: {
      // Hash the bit pattern; normalize -0.0 to 0.0 first.
      const double* vals = col.data<double>();
      for (int i = 0; i < n; i++) {
        int row = all ? i : pos[i];
        uint64_t h;
        if (nulls[row]) {
          h = kNullHash;
        } else {
          double d = vals[row] == 0.0 ? 0.0 : vals[row];
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          h = HashMix64(bits);
        }
        if constexpr (kFirst) {
          hashes[i] = h;
        } else {
          hashes[i] = HashCombine(hashes[i], h);
        }
      }
      break;
    }
    case TypeId::kDecimal128:
      HashDecimalKernel<kFirst>(col.data<int128_t>(), nulls, pos, n, all,
                                hashes);
      break;
    case TypeId::kString:
      HashStringKernel<kFirst>(col.data<StringRef>(), nulls, pos, n, all,
                               hashes);
      break;
  }
}

}  // namespace

VectorizedHashTable::VectorizedHashTable(std::vector<DataType> key_types,
                                         int payload_bytes,
                                         bool match_null_keys)
    : key_types_(std::move(key_types)), match_null_keys_(match_null_keys) {
  PHOTON_CHECK(key_types_.size() <= 64);
  int offset = kHeaderBytes;
  for (const DataType& t : key_types_) {
    // 8-align every slot; decimal/string slots are 16 bytes.
    offset = (offset + 7) & ~7;
    key_offsets_.push_back(offset);
    offset += t.byte_width();
  }
  // The payload may embed __int128 aggregate state, which the compiler
  // accesses with 16-byte-aligned instructions: align the payload (and the
  // entry stride) to 16 so every entry's payload is 16-aligned.
  offset = (offset + 15) & ~15;
  payload_offset_ = offset;
  entry_bytes_ = offset + payload_bytes;
  entry_bytes_ = (entry_bytes_ + 15) & ~15;
  chunk_capacity_ = std::max(1, (64 * 1024) / entry_bytes_);

  buckets_.assign(kInitialBuckets, nullptr);
  bucket_mask_ = kInitialBuckets - 1;
}

void VectorizedHashTable::HashKeys(
    const std::vector<const ColumnVector*>& keys, const ColumnBatch& batch,
    uint64_t* hashes) {
  PHOTON_CHECK(!keys.empty());
  HashColumn<true>(*keys[0], batch, hashes);
  for (size_t k = 1; k < keys.size(); k++) {
    HashColumn<false>(*keys[k], batch, hashes);
  }
}

uint8_t* VectorizedHashTable::AllocateEntry() {
  if (chunks_.empty() || chunk_used_ == chunk_capacity_) {
    chunks_.push_back(std::make_unique<uint8_t[]>(
        static_cast<size_t>(chunk_capacity_) * entry_bytes_));
    chunk_used_ = 0;
  }
  uint8_t* entry =
      chunks_.back().get() + static_cast<size_t>(chunk_used_) * entry_bytes_;
  chunk_used_++;
  std::memset(entry, 0, entry_bytes_);
  return entry;
}

void VectorizedHashTable::CopyKeysToEntry(
    const std::vector<const ColumnVector*>& keys, int row, uint64_t hash,
    uint8_t* entry) {
  std::memcpy(entry + kHashOffset, &hash, 8);
  uint64_t null_mask = 0;
  for (size_t k = 0; k < keys.size(); k++) {
    const ColumnVector& col = *keys[k];
    uint8_t* slot = entry + key_offsets_[k];
    if (col.IsNull(row)) {
      null_mask |= (uint64_t{1} << k);
      continue;
    }
    switch (col.type().id()) {
      case TypeId::kBoolean:
        *slot = col.data<uint8_t>()[row];
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        std::memcpy(slot, &col.data<int32_t>()[row], 4);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        std::memcpy(slot, &col.data<int64_t>()[row], 8);
        break;
      case TypeId::kFloat64:
        std::memcpy(slot, &col.data<double>()[row], 8);
        break;
      case TypeId::kDecimal128:
        std::memcpy(slot, &col.data<int128_t>()[row], 16);
        break;
      case TypeId::kString: {
        // Copy the bytes into the table-owned arena so entries outlive the
        // probe batch.
        StringRef s = col.data<StringRef>()[row];
        StringRef owned = strings_.AddString(s);
        std::memcpy(slot, &owned, sizeof(owned));
        break;
      }
    }
  }
  std::memcpy(entry + kNullMaskOffset, &null_mask, 8);
}

bool VectorizedHashTable::EntryMatchesRow(
    const uint8_t* entry, uint64_t hash,
    const std::vector<const ColumnVector*>& keys, int row) const {
  if (entry_hash(entry) != hash) return false;
  uint64_t null_mask;
  std::memcpy(&null_mask, entry + kNullMaskOffset, 8);
  for (size_t k = 0; k < keys.size(); k++) {
    const ColumnVector& col = *keys[k];
    bool row_null = col.IsNull(row);
    bool entry_null = (null_mask >> k) & 1;
    if (row_null != entry_null) return false;
    if (row_null) continue;  // both NULL: equal under group-by semantics
    const uint8_t* slot = entry + key_offsets_[k];
    switch (col.type().id()) {
      case TypeId::kBoolean:
        if (*slot != col.data<uint8_t>()[row]) return false;
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        if (std::memcmp(slot, &col.data<int32_t>()[row], 4) != 0) {
          return false;
        }
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        if (std::memcmp(slot, &col.data<int64_t>()[row], 8) != 0) {
          return false;
        }
        break;
      case TypeId::kFloat64:
        if (std::memcmp(slot, &col.data<double>()[row], 8) != 0) {
          return false;
        }
        break;
      case TypeId::kDecimal128:
        if (std::memcmp(slot, &col.data<int128_t>()[row], 16) != 0) {
          return false;
        }
        break;
      case TypeId::kString: {
        StringRef entry_str;
        std::memcpy(&entry_str, slot, sizeof(entry_str));
        StringRef row_str = col.data<StringRef>()[row];
        if (!(entry_str == row_str)) return false;
        break;
      }
    }
  }
  return true;
}

void VectorizedHashTable::Lookup(const std::vector<const ColumnVector*>& keys,
                                 const ColumnBatch& batch,
                                 const uint64_t* hashes,
                                 uint8_t** entries_out) {
  ProbeScratch scratch;
  scratch.remaining = std::move(scratch_remaining_);
  scratch.steps = std::move(scratch_steps_);
  Lookup(keys, batch, hashes, entries_out, &scratch);
  scratch_remaining_ = std::move(scratch.remaining);
  scratch_steps_ = std::move(scratch.steps);
}

void VectorizedHashTable::Lookup(const std::vector<const ColumnVector*>& keys,
                                 const ColumnBatch& batch,
                                 const uint64_t* hashes, const int32_t* sel,
                                 int n, uint8_t** entries_out,
                                 ProbeScratch* scratch) const {
  // Remaining: dense indices (into the active set) still probing.
  scratch->remaining.resize(n);
  scratch->steps.resize(batch.num_active());
  int num_remaining = 0;
  for (int j = 0; j < n; j++) {
    int i = sel != nullptr ? sel[j] : j;
    entries_out[i] = nullptr;
    scratch->steps[i] = 0;
    int row = batch.ActiveRow(i);
    if (!match_null_keys_) {
      bool any_null = false;
      for (const ColumnVector* col : keys) any_null |= col->IsNull(row);
      if (any_null) continue;  // NULL never matches under join semantics
    }
    scratch->remaining[num_remaining++] = i;
  }

  scratch->candidates.resize(n);
  std::vector<uint8_t*>& candidates = scratch->candidates;
  while (num_remaining > 0) {
    // Probe kernel: issue all bucket loads back-to-back so the hardware can
    // overlap the misses (§4.4). The candidate loads are independent.
    for (int j = 0; j < num_remaining; j++) {
      int i = scratch->remaining[j];
      int step = scratch->steps[i];
      uint64_t slot =
          (hashes[i] + (static_cast<uint64_t>(step) * (step + 1)) / 2) &
          bucket_mask_;
      candidates[j] = buckets_[slot];
    }
    // Compare kernel: keep only mismatching, still-occupied slots.
    int next_remaining = 0;
    for (int j = 0; j < num_remaining; j++) {
      int i = scratch->remaining[j];
      uint8_t* entry = candidates[j];
      if (entry == nullptr) continue;  // definitive miss
      int row = batch.ActiveRow(i);
      if (EntryMatchesRow(entry, hashes[i], keys, row)) {
        entries_out[i] = entry;
      } else {
        scratch->steps[i]++;
        scratch->remaining[next_remaining++] = i;
      }
    }
    num_remaining = next_remaining;
  }
}

Status VectorizedHashTable::LookupOrInsert(
    const std::vector<const ColumnVector*>& keys, const ColumnBatch& batch,
    const uint64_t* hashes, const int32_t* sel, int n, uint8_t** entries_out,
    bool* inserted_out) {
  // Insertion must be sequential w.r.t. duplicate keys within the batch, so
  // resolve rows in order, but the fast path (found or empty at step 0) is
  // still the common case and stays batched via Lookup semantics.
  for (int j = 0; j < n; j++) {
    int i = sel != nullptr ? sel[j] : j;
    entries_out[i] = nullptr;
    inserted_out[i] = false;
  }

  // Grow until the batch's worst-case insert count fits under the load
  // factor (a single batch can exceed one doubling).
  while ((num_entries_ + n) >
         static_cast<int64_t>(buckets_.size() * kMaxLoadFactor)) {
    Grow();
  }

  for (int j = 0; j < n; j++) {
    int i = sel != nullptr ? sel[j] : j;
    int row = batch.ActiveRow(i);
    if (!match_null_keys_) {
      bool any_null = false;
      for (const ColumnVector* col : keys) any_null |= col->IsNull(row);
      if (any_null) continue;
    }
    uint64_t hash = hashes[i];
    int step = 0;
    while (true) {
      uint64_t slot =
          (hash + (static_cast<uint64_t>(step) * (step + 1)) / 2) &
          bucket_mask_;
      uint8_t* entry = buckets_[slot];
      if (entry == nullptr) {
        entry = AllocateEntry();
        CopyKeysToEntry(keys, row, hash, entry);
        buckets_[slot] = entry;
        num_entries_++;
        entries_out[i] = entry;
        inserted_out[i] = true;
        break;
      }
      if (EntryMatchesRow(entry, hash, keys, row)) {
        entries_out[i] = entry;
        break;
      }
      step++;
    }
  }
  return Status::OK();
}

uint8_t* VectorizedHashTable::InsertChained(uint8_t* head) {
  uint8_t* entry = AllocateEntry();
  // Copy header + keys from the head; payload stays zeroed for the caller.
  std::memcpy(entry, head, payload_offset_);
  // Link: head -> entry -> old chain.
  uint8_t* old_next = next(head);
  std::memcpy(entry + kNextOffset, &old_next, sizeof(old_next));
  std::memcpy(head + kNextOffset, &entry, sizeof(entry));
  num_entries_++;
  return entry;
}

Value VectorizedHashTable::GetKeyValue(const uint8_t* entry, int k) const {
  if (KeyIsNull(entry, k)) return Value::Null();
  const uint8_t* slot = entry + key_offsets_[k];
  switch (key_types_[k].id()) {
    case TypeId::kBoolean:
      return Value::Boolean(*slot != 0);
    case TypeId::kInt32: {
      int32_t v;
      std::memcpy(&v, slot, 4);
      return Value::Int32(v);
    }
    case TypeId::kDate32: {
      int32_t v;
      std::memcpy(&v, slot, 4);
      return Value::Date32(v);
    }
    case TypeId::kInt64: {
      int64_t v;
      std::memcpy(&v, slot, 8);
      return Value::Int64(v);
    }
    case TypeId::kTimestamp: {
      int64_t v;
      std::memcpy(&v, slot, 8);
      return Value::Timestamp(v);
    }
    case TypeId::kFloat64: {
      double v;
      std::memcpy(&v, slot, 8);
      return Value::Float64(v);
    }
    case TypeId::kDecimal128: {
      int128_t v;
      std::memcpy(&v, slot, 16);
      return Value::Decimal(Decimal128(v));
    }
    case TypeId::kString: {
      StringRef s;
      std::memcpy(&s, slot, sizeof(s));
      return Value::String(std::string(s.data, s.len));
    }
  }
  return Value::Null();
}

int64_t VectorizedHashTable::memory_bytes() const {
  return static_cast<int64_t>(buckets_.size() * sizeof(uint8_t*)) +
         static_cast<int64_t>(chunks_.size()) * chunk_capacity_ *
             entry_bytes_ +
         static_cast<int64_t>(strings_.total_bytes());
}

void VectorizedHashTable::ForEachEntry(
    const std::function<void(uint8_t*)>& fn) const {
  for (uint8_t* head : buckets_) {
    if (head != nullptr) fn(head);
  }
}

void VectorizedHashTable::ForEachEntryWithChains(
    const std::function<void(uint8_t*)>& fn) const {
  for (uint8_t* head : buckets_) {
    for (uint8_t* e = head; e != nullptr; e = next(e)) fn(e);
  }
}

void VectorizedHashTable::Grow() {
  size_t new_size = buckets_.size() * 2;
  std::vector<uint8_t*> old = std::move(buckets_);
  buckets_.assign(new_size, nullptr);
  bucket_mask_ = new_size - 1;
  num_resizes_++;
  // Re-bucket chain heads by stored hash; entries themselves do not move.
  for (uint8_t* head : old) {
    if (head == nullptr) continue;
    uint64_t hash = entry_hash(head);
    int step = 0;
    while (true) {
      uint64_t slot =
          (hash + (static_cast<uint64_t>(step) * (step + 1)) / 2) &
          bucket_mask_;
      if (buckets_[slot] == nullptr) {
        buckets_[slot] = head;
        break;
      }
      step++;
    }
  }
}

void VectorizedHashTable::Clear() {
  buckets_.assign(kInitialBuckets, nullptr);
  bucket_mask_ = kInitialBuckets - 1;
  num_entries_ = 0;
  chunks_.clear();
  chunk_used_ = 0;
  strings_.Reset();
}

}  // namespace photon
