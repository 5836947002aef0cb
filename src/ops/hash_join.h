#ifndef PHOTON_OPS_HASH_JOIN_H_
#define PHOTON_OPS_HASH_JOIN_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "ht/vectorized_hash_table.h"
#include "ops/operator.h"
#include "vector/table.h"

namespace photon {

enum class JoinType : uint8_t {
  kInner,
  kLeftOuter,  // probe side is the left/outer side
  kLeftSemi,
  kLeftAnti,
};

struct JoinBuildState;
using JoinBuildPtr = std::shared_ptr<JoinBuildState>;

/// The materialized build side of a hash join: the vectorized hash table
/// plus the payload layout used to pack build columns into entries. Built
/// once (the parallel driver's partitioned build, or a self-building
/// join's own build phase) and then immutable, so any number of probe
/// tasks can share it concurrently — the paper's broadcast-build,
/// partition-parallel-probe shape (§2.2).
///
/// A partitioned build holds 2^partition_bits sub-tables, one per
/// HashPartition of the key hash, each filled by its own task; a probe
/// picks the sub-table from the hash it computed anyway. Every key's rows
/// sit in one sub-table, inserted in input order, so each key's match
/// chain — and with it the join output — is the one a single table gives.
///
/// It is the MemoryConsumer for the build memory; joins cannot release
/// memory mid-build, so Spill() is a no-op and other consumers spill on
/// the join's behalf (§5.3). Concurrent insert tasks reserve on it through
/// the manager's lock.
struct JoinBuildState : public MemoryConsumer {
  JoinBuildState() : MemoryConsumer("PhotonJoinBuild") {}
  ~JoinBuildState() override;

  /// An empty build of `build_schema` rows keyed by `build_keys`, with
  /// 2^partition_bits sub-tables, registered with `exec_ctx`'s memory
  /// manager (if any) under its task group.
  static JoinBuildPtr Make(const Schema& build_schema,
                           const std::vector<ExprPtr>& build_keys,
                           int partition_bits, const ExecContext& exec_ctx);

  int64_t Spill(int64_t) override { return 0; }

  int num_partitions() const { return static_cast<int>(tables.size()); }
  /// Sub-table of a key hash.
  int PartitionOf(uint64_t hash) const {
    return partition_bits == 0
               ? 0
               : VectorizedHashTable::HashPartition(hash, partition_bits);
  }
  /// Entry payload (all sub-tables share one entry layout).
  const uint8_t* payload(const uint8_t* entry) const {
    return tables[0]->payload(entry);
  }
  int64_t memory_bytes() const;

  std::vector<std::unique_ptr<VectorizedHashTable>> tables;
  int partition_bits = 0;
  std::vector<int> payload_offsets;
  int payload_bytes = 0;
  Schema build_schema;
  std::atomic<int64_t> build_rows{0};
  /// Manager the state is registered with (null = none); the destructor
  /// releases the build reservation and unregisters.
  MemoryManager* memory_manager = nullptr;
};

/// One batch of a partitioned build's input after its hashing pass: the
/// evaluated keys (compacted, so key row i is the batch's i-th active
/// row), their hashes, and the active rows grouped by sub-table, in row
/// order within each group.
struct HashedBuildBatch {
  const ColumnBatch* batch = nullptr;
  std::unique_ptr<ColumnBatch> keys;
  std::vector<uint64_t> hashes;
  std::vector<int32_t> sel;      // active-set indices grouped by partition
  std::vector<int32_t> offsets;  // partition p: sel[offsets[p], offsets[p+1])
};

/// Partitioned build, pass 1 (one task per input table): evaluates and
/// hashes the keys of every batch of `input`. Reads `state` only.
Result<std::vector<HashedBuildBatch>> HashBuildInput(
    const JoinBuildState& state, const std::vector<ExprPtr>& build_keys,
    const Table& input);

/// Partitioned build, pass 2 (one task per sub-table): inserts partition
/// `p`'s rows of every hashed batch into sub-table `p`, in input order.
/// Tasks for distinct partitions may run concurrently.
Status InsertBuildPartition(
    JoinBuildState* state, int p,
    const std::vector<std::vector<HashedBuildBatch>>& inputs);

/// Vectorized hash join (§4.4, Figure 4). The build side is materialized
/// into the vectorized hash table (entries are rows: keys + packed build
/// columns); the probe side streams through the three-step batched lookup.
///
/// Adaptive probe-side batch compaction (§4.6, Figure 9): when a probe
/// batch arrives sparse (most rows filtered out upstream), Photon compacts
/// it into a dense batch before probing so the bucket loads saturate memory
/// parallelism instead of paying per-miss latency on a mostly-idle batch.
///
/// Semi/anti joins return the probe batch itself with its position list
/// narrowed to (non-)matching rows — no output copying at all. An optional
/// `residual` predicate supports non-equi conditions:
///   - inner: evaluated vectorized over emitted output batches;
///   - semi/anti: evaluated per candidate (probe row, build row) pair;
///   - left outer: evaluated per candidate pair, and a probe row whose
///     candidates all fail the residual is emitted NULL-padded (it is an
///     unmatched row under the full join condition).
class HashJoinOperator : public Operator {
 public:
  /// Self-building join: drains `build` into a private hash table on the
  /// first GetNext(), then probes.
  HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                   std::vector<ExprPtr> build_keys,
                   std::vector<ExprPtr> probe_keys, JoinType join_type,
                   ExecContext exec_ctx = {}, ExprPtr residual = nullptr,
                   bool adaptive_compaction = true);

  /// Probe-only join over a pre-built shared table (parallel driver: many
  /// morsel tasks probing one build). The shared state must outlive all
  /// probers and is treated as read-only.
  HashJoinOperator(JoinBuildPtr build, OperatorPtr probe,
                   std::vector<ExprPtr> probe_keys, JoinType join_type,
                   ExecContext exec_ctx = {}, ExprPtr residual = nullptr,
                   bool adaptive_compaction = true);
  ~HashJoinOperator() override;

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonHashJoin"; }
  std::vector<Operator*> children() override {
    if (build_ == nullptr) return {probe_.get()};
    return {probe_.get(), build_.get()};
  }

  int64_t build_rows() const { return state_->build_rows; }
  int64_t compacted_batches() const { return compacted_batches_; }

  static Schema MakeOutputSchema(const Schema& build, const Schema& probe,
                                 JoinType join_type);

 protected:
  void PublishMetricsImpl() override;

 private:
  Status BuildPhase();
  /// Copies build columns of `entry` into output columns at out_row (or
  /// NULLs when entry == nullptr, for left outer).
  void EmitBuildColumns(const uint8_t* entry, int out_row);
  void EmitProbeColumns(const ColumnBatch& batch, int row, int out_row);
  Status ProbeBatch(ColumnBatch* batch);
  void DrainSparseSource();
  Result<ColumnBatch*> ProbeNextBatch();
  Result<ColumnBatch*> EmitMatches();
  /// Boxed row of probe row + build entry columns, for residual eval.
  Result<bool> ResidualMatches(const ColumnBatch& batch, int probe_row,
                               const uint8_t* entry);

  OperatorPtr build_;  // null when probing a shared build
  OperatorPtr probe_;
  std::vector<ExprPtr> build_keys_;
  std::vector<ExprPtr> probe_keys_;
  JoinType join_type_;
  ExecContext exec_ctx_;
  ExprPtr residual_;
  bool adaptive_compaction_;

  JoinBuildPtr state_;  // private when build_ != null, else shared
  bool built_ = false;
  int64_t compacted_batches_ = 0;

  // Probe iteration state.
  ColumnBatch* probe_batch_ = nullptr;  // current (possibly compacted)
  // Compaction buffer: sparse batches coalesce here until dense.
  std::unique_ptr<ColumnBatch> accum_;
  int accum_rows_ = 0;
  bool accum_in_flight_ = false;
  ColumnBatch* pending_dense_ = nullptr;   // dense batch waiting behind accum
  ColumnBatch* accum_source_ = nullptr;    // sparse batch partially consumed
  int accum_source_pos_ = 0;
  std::vector<uint64_t> hashes_;
  std::vector<int32_t> part_sel_;      // partitioned probe: rows by sub-table
  std::vector<int32_t> part_offsets_;
  std::vector<uint8_t*> match_heads_;
  VectorizedHashTable::ProbeScratch probe_scratch_;
  int probe_idx_ = 0;              // index into probe batch's active set
  const uint8_t* chain_entry_ = nullptr;
  bool chain_open_ = false;     // chain for current probe row initialized
  bool chain_matched_ = false;  // left outer: some candidate pair emitted

  std::unique_ptr<ColumnBatch> out_;
  EvalContext ctx_;
};

}  // namespace photon

#endif  // PHOTON_OPS_HASH_JOIN_H_
