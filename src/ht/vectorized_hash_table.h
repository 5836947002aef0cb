#ifndef PHOTON_HT_VECTORIZED_HASH_TABLE_H_
#define PHOTON_HT_VECTORIZED_HASH_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "types/data_type.h"
#include "vector/column_batch.h"
#include "vector/var_len_pool.h"

namespace photon {

/// Photon's hash table, optimized for vectorized access (§4.4).
///
/// Lookups proceed in three batched steps:
///   1. a hashing kernel evaluates the hash function over a batch of keys;
///   2. a probe kernel uses the hashes to load candidate entry pointers —
///      the loads for a whole batch are issued in one tight loop, so the
///      hardware can overlap the cache misses (memory-level parallelism);
///   3. a vectorized comparison checks entries against lookup keys
///      column-by-column, producing a position list of non-matching rows,
///      which re-probe at the next quadratic step.
///
/// Entries are stored as rows (a single pointer represents composite keys),
/// in arena-allocated fixed-size slots:
///
///   [ hash u64 | null_mask u64 | next ptr | key slots... | payload ]
///
/// `next` chains duplicate-key entries (used by hash join builds). Growing
/// the bucket array re-buckets pointers by stored hash — entries are never
/// copied (the paper notes "avoiding copies during hash table resizing").
class VectorizedHashTable {
 public:
  /// `payload_bytes` is the caller-defined state area per entry (aggregate
  /// state or join build columns). If `match_null_keys` is true, NULL key
  /// values compare equal to each other (group-by semantics); if false, a
  /// row with any NULL key never matches or inserts (join semantics).
  VectorizedHashTable(std::vector<DataType> key_types, int payload_bytes,
                      bool match_null_keys);

  VectorizedHashTable(const VectorizedHashTable&) = delete;
  VectorizedHashTable& operator=(const VectorizedHashTable&) = delete;

  /// Step 1: hashing kernel. Computes combined hashes of the key columns
  /// for the batch's active rows, densely into `hashes[0..num_active)`.
  static void HashKeys(const std::vector<const ColumnVector*>& keys,
                       const ColumnBatch& batch, uint64_t* hashes);

  /// Reusable per-caller scratch for the batched probe loop, so concurrent
  /// probers (parallel hash-join tasks) can share one read-only table.
  struct ProbeScratch {
    std::vector<int32_t> remaining;
    std::vector<int32_t> steps;
    std::vector<uint8_t*> candidates;
  };

  /// Finds the entry for each active row, or nullptr. `entries_out` is
  /// indexed densely (i-th active row).
  void Lookup(const std::vector<const ColumnVector*>& keys,
              const ColumnBatch& batch, const uint64_t* hashes,
              uint8_t** entries_out);

  /// Thread-safe probe: identical to Lookup() but const, with all mutable
  /// state in caller-provided `scratch`. Safe to call from many threads
  /// concurrently as long as no thread mutates the table.
  void Lookup(const std::vector<const ColumnVector*>& keys,
              const ColumnBatch& batch, const uint64_t* hashes,
              uint8_t** entries_out, ProbeScratch* scratch) const {
    Lookup(keys, batch, hashes, nullptr, batch.num_active(), entries_out,
           scratch);
  }

  /// The same probe over an explicit row list: only the active-set
  /// indices `sel[0..n)` are looked up (reading hashes[sel[j]], writing
  /// entries_out[sel[j]]); `sel == nullptr` means all n active rows. A
  /// partitioned join probes each sub-table with its share of a batch.
  void Lookup(const std::vector<const ColumnVector*>& keys,
              const ColumnBatch& batch, const uint64_t* hashes,
              const int32_t* sel, int n, uint8_t** entries_out,
              ProbeScratch* scratch) const;

  /// Finds or creates the entry for each active row. `inserted_out[i]` is
  /// true when a new entry was created (payload must then be initialized by
  /// the caller). Rows with NULL keys get nullptr entries when
  /// `match_null_keys` is false.
  Status LookupOrInsert(const std::vector<const ColumnVector*>& keys,
                        const ColumnBatch& batch, const uint64_t* hashes,
                        uint8_t** entries_out, bool* inserted_out) {
    return LookupOrInsert(keys, batch, hashes, nullptr, batch.num_active(),
                          entries_out, inserted_out);
  }

  /// LookupOrInsert over an explicit row list, indexed like the
  /// row-list Lookup. Rows are resolved in list order.
  Status LookupOrInsert(const std::vector<const ColumnVector*>& keys,
                        const ColumnBatch& batch, const uint64_t* hashes,
                        const int32_t* sel, int n, uint8_t** entries_out,
                        bool* inserted_out);

  /// Inserts a duplicate-key entry chained behind `head` (hash join
  /// builds). Keys are copied from the head entry; returns the new entry
  /// whose payload the caller fills.
  uint8_t* InsertChained(uint8_t* head);

  /// Entry accessors -------------------------------------------------------

  uint8_t* payload(uint8_t* entry) const { return entry + payload_offset_; }
  const uint8_t* payload(const uint8_t* entry) const {
    return entry + payload_offset_;
  }
  static uint8_t* next(const uint8_t* entry) {
    uint8_t* p;
    std::memcpy(&p, entry + kNextOffset, sizeof(p));
    return p;
  }

  /// Reads key column `k` of an entry as a boxed value (output paths).
  Value GetKeyValue(const uint8_t* entry, int k) const;
  bool KeyIsNull(const uint8_t* entry, int k) const {
    uint64_t mask;
    std::memcpy(&mask, entry + kNullMaskOffset, sizeof(mask));
    return (mask >> k) & 1;
  }
  /// Raw pointer to key slot `k` within the entry.
  const uint8_t* key_slot(const uint8_t* entry, int k) const {
    return entry + key_offsets_[k];
  }

  int64_t num_entries() const { return num_entries_; }
  /// Total bytes held (buckets + entry arena + string arena).
  int64_t memory_bytes() const;

  /// Visits every chain-head entry (and not chained duplicates).
  void ForEachEntry(const std::function<void(uint8_t*)>& fn) const;
  /// Visits every entry including chained duplicates.
  void ForEachEntryWithChains(const std::function<void(uint8_t*)>& fn) const;

  /// Drops all entries and shrinks to the initial bucket count.
  void Clear();

  int num_keys() const { return static_cast<int>(key_types_.size()); }
  const DataType& key_type(int k) const { return key_types_[k]; }

  /// Hash value stored in an entry.
  static uint64_t entry_hash(const uint8_t* entry) {
    uint64_t h;
    std::memcpy(&h, entry, sizeof(h));
    return h;
  }

  /// The one hash-partitioning rule, shared by spill files, partitioned
  /// aggregate merges and partitioned join builds: the `bits` hash bits
  /// below the top `skip` bits (1 <= bits, skip + bits <= 64). Buckets
  /// take the low bits, so one partition's entries still spread over
  /// every bucket of the table they are loaded into.
  static int HashPartition(uint64_t hash, int bits, int skip = 0) {
    return static_cast<int>((hash << skip) >> (64 - bits));
  }

  /// Statistics for metrics/observability.
  int64_t num_resizes() const { return num_resizes_; }

  /// Arena backing string keys; payload writers (hash join build rows) also
  /// copy their variable-length data here so it lives as long as the table.
  VarLenPool* string_arena() { return &strings_; }

 private:
  static constexpr int kHashOffset = 0;
  static constexpr int kNullMaskOffset = 8;
  static constexpr int kNextOffset = 16;
  static constexpr int kHeaderBytes = 24;
  static constexpr int kInitialBuckets = 1024;
  static constexpr double kMaxLoadFactor = 0.6;

  uint8_t* AllocateEntry();
  void CopyKeysToEntry(const std::vector<const ColumnVector*>& keys,
                       int row, uint64_t hash, uint8_t* entry);
  bool EntryMatchesRow(const uint8_t* entry, uint64_t hash,
                       const std::vector<const ColumnVector*>& keys,
                       int row) const;
  void Grow();

  std::vector<DataType> key_types_;
  std::vector<int> key_offsets_;
  int payload_offset_;
  int entry_bytes_;
  bool match_null_keys_;

  std::vector<uint8_t*> buckets_;
  uint64_t bucket_mask_;
  int64_t num_entries_ = 0;
  int64_t num_resizes_ = 0;

  // Entry arena: fixed-size slots bump-allocated from chunks.
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  int chunk_capacity_;
  int chunk_used_ = 0;
  // String key/payload bytes.
  VarLenPool strings_;

  // Scratch for the batched probe loop.
  std::vector<int32_t> scratch_remaining_;
  std::vector<int32_t> scratch_steps_;
};

}  // namespace photon

#endif  // PHOTON_HT_VECTORIZED_HASH_TABLE_H_
