#ifndef PHOTON_OPS_HASH_AGGREGATE_H_
#define PHOTON_OPS_HASH_AGGREGATE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expr/agg_function.h"
#include "expr/expr.h"
#include "ht/vectorized_hash_table.h"
#include "ops/operator.h"
#include "storage/object_store.h"

namespace photon {

/// One aggregate in a grouping aggregation: kind + argument expression
/// (arg may be null for count(*)) + output column name.
struct AggregateSpec {
  AggKind kind;
  ExprPtr arg;
  std::string name;
};

/// Execution mode for a grouping aggregation under parallel execution
/// (paper §4: per-task hash tables + a reduce that merges their states).
///   kComplete   — classic single-pass aggregate: raw input in, final
///                 values out.
///   kPartial    — per-task half: raw input in, serialized (key, state)
///                 blobs out (same wire format as the spill files), exact
///                 for every aggregate kind. Each blob holds the entries of
///                 one merge partition (HashPartition of the key hash into
///                 kMergePartitions), and each output batch the blobs of
///                 one partition, tagged in a leading Int32 column.
///   kFinalMerge — merge half: blob rows in (from any number of partial
///                 tasks, typically all of one merge partition), final
///                 values out.
enum class AggMode : uint8_t { kComplete, kPartial, kFinalMerge };

/// Vectorized grouping aggregation over the vectorized hash table (§4.4,
/// Figure 5). Group keys and aggregate arguments are arbitrary
/// expressions; aggregate state lives in the hash table entry payload, with
/// variable-size state in a shared arena.
///
/// Memory is acquired in two phases per input batch (§5.3): a reservation
/// phase that may trigger spilling (of this operator or any other memory
/// consumer), then an allocation phase that cannot fail. When asked to
/// spill, the operator hash-partitions its current entries to the object
/// store and continues with an empty table; spilled partitions are merged
/// one at a time during output.
class HashAggregateOperator : public Operator, public MemoryConsumer {
 public:
  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> keys,
                        std::vector<std::string> key_names,
                        std::vector<AggregateSpec> aggs,
                        ExecContext exec_ctx = {},
                        AggMode mode = AggMode::kComplete);
  ~HashAggregateOperator() override;

  /// Hash partitions of the partial output: the parallel driver merges
  /// each in its own task. A constant, so the merge's tasks (and output
  /// order) never depend on the thread count.
  static constexpr int kMergeBits = 3;
  static constexpr int kMergePartitions = 1 << kMergeBits;

  /// Output schema of a kPartial aggregate: (partition Int32, blob String).
  static Schema PartialOutputSchema();

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonHashAggregate"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

  /// MemoryConsumer: partitions and serializes all current entries to the
  /// object store, clears the table, returns the bytes released.
  int64_t Spill(int64_t requested) override;

  int64_t num_groups() const {
    return table_ == nullptr ? 0 : table_->num_entries();
  }

 protected:
  void PublishMetricsImpl() override;

 private:
  // Spill partitions refine the merge partitions: kPartial/kComplete spill
  // on the top kSpillBits hash bits, so each spill file lies within one
  // merge partition; a kFinalMerge, whose input is one merge partition
  // already, spills on the bits below kMergeBits.
  static constexpr int kSpillBits = 4;
  static constexpr int kSpillPartitions = 1 << kSpillBits;
  static_assert(kSpillBits >= kMergeBits);

  static Schema MakeOutputSchema(const std::vector<ExprPtr>& keys,
                                 const std::vector<std::string>& key_names,
                                 const std::vector<AggregateSpec>& aggs);

  Status ConsumeInput();
  Status ProcessBatch(ColumnBatch* batch);
  /// kFinalMerge input path: merges every blob row of `batch`.
  Status MergeBlobBatch(ColumnBatch* batch);
  /// Emits up to batch_size groups from the in-memory table.
  ColumnBatch* EmitFromTable();
  /// kPartial output path: serializes groups (or streams spill blocks)
  /// into blob rows.
  Result<ColumnBatch*> EmitPartial();
  /// Loads the next spilled partition into a fresh table (merging).
  Result<bool> LoadNextSpillPartition();
  void SerializeEntry(const uint8_t* entry, BinaryWriter* out) const;
  Status MergeSpillBlock(std::string_view bytes);
  int64_t CurrentMemoryBytes() const;
  Status ReserveForDelta();

  OperatorPtr child_;
  std::vector<ExprPtr> keys_;
  std::vector<AggregateSpec> specs_;
  std::vector<std::unique_ptr<AggregateFunction>> aggs_;
  std::vector<int> agg_state_offsets_;
  int payload_bytes_ = 0;
  ExecContext exec_ctx_;
  AggMode mode_ = AggMode::kComplete;

  std::unique_ptr<VectorizedHashTable> table_;
  std::unique_ptr<VarLenPool> arena_;
  // Scalar (no GROUP BY) state.
  std::vector<uint8_t> scalar_state_;
  bool scalar_mode_ = false;

  // Phase tracking.
  bool input_consumed_ = false;
  bool scalar_emitted_ = false;
  std::vector<uint8_t*> emit_entries_;
  size_t emit_pos_ = 0;
  std::unique_ptr<ColumnBatch> out_;

  // Spill bookkeeping.
  std::vector<std::vector<std::string>> spill_keys_;  // per partition
  int spill_seq_ = 0;
  int current_spill_partition_ = -1;
  int64_t reserved_for_data_ = 0;

  // kPartial emission state: in-memory entries grouped by merge
  // partition (emit_entries_[part_begin_[p], part_begin_[p+1])), and
  // spilled blocks with their merge partitions, streamed out raw (they
  // already hold serialized entries in the blob wire format).
  std::vector<size_t> part_begin_;
  int emit_part_ = 0;
  std::vector<std::pair<int, std::string>> partial_spill_stream_;
  size_t partial_spill_pos_ = 0;
  bool partial_prepared_ = false;

  // Scratch.
  EvalContext ctx_;
  std::vector<uint64_t> hashes_;
  std::vector<uint8_t*> entries_;
  std::unique_ptr<bool[]> inserted_;
  int inserted_capacity_ = 0;
};

}  // namespace photon

#endif  // PHOTON_OPS_HASH_AGGREGATE_H_
