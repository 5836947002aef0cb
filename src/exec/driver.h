#ifndef PHOTON_EXEC_DRIVER_H_
#define PHOTON_EXEC_DRIVER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/morsel.h"
#include "exec/task_scheduler.h"
#include "exec/thread_pool.h"
#include "obs/profile.h"
#include "ops/hash_join.h"
#include "plan/logical_plan.h"
#include "plan/stage_planner.h"

namespace photon {
namespace exec {

/// Per-stage execution summary: a thin view over the obs metrics registry
/// (the driver's slice of §5.5 live metrics). The snapshot is the merge of
/// every task's metric shards at the stage barrier, so Run fills it
/// identically at every thread count, and RunSingleTask fills the same
/// view for its one-morsel stages.
struct StageInfo {
  int stage_id = 0;
  /// Workers the stage's morsel tasks could occupy: min(worker threads,
  /// morsels), so 1 for every RunSingleTask stage.
  int num_tasks = 0;
  /// Merged stage metrics (the full obs vocabulary).
  obs::MetricSnapshot m;

  int64_t rows_out() const { return m[obs::Metric::kRowsOut]; }
  int64_t batches() const { return m[obs::Metric::kBatches]; }
  int64_t wall_ns() const { return m[obs::Metric::kWallNs]; }
  int64_t cpu_ns() const { return m[obs::Metric::kCpuNs]; }
  int64_t shuffle_bytes() const { return m[obs::Metric::kShuffleBytes]; }
  int64_t spill_bytes() const { return m[obs::Metric::kSpillBytes]; }
  // Scan IO counters (src/io), summed over the stage's scan operators.
  int64_t bytes_read() const { return m[obs::Metric::kBytesRead]; }
  int64_t cache_hits() const { return m[obs::Metric::kCacheHits]; }
  int64_t prefetch_wait_ns() const {
    return m[obs::Metric::kPrefetchWaitNs];
  }
  int64_t files_read() const { return m[obs::Metric::kFilesRead]; }
  int64_t row_groups_skipped() const {
    return m[obs::Metric::kRowGroupsSkipped];
  }
};

/// A miniature DBR driver (§2.2): breaks a job into stages at exchange
/// boundaries, launches one task per morsel on the executor's task
/// scheduler, and blocks at stage boundaries (stage N+1 starts after stage
/// N finishes, which is what enables fault tolerance and adaptive
/// execution at stage boundaries in the real system).
class Driver {
 public:
  /// Standalone driver owning its pools: a private TaskScheduler with
  /// `num_threads` workers (one registered query slot) for morsel tasks,
  /// and `io_threads` for scan read-aheads. `io_threads < 0` (the
  /// documented default) sizes the IO pool to max(2, num_threads) —
  /// enough to double-buffer every worker without assuming anything about
  /// hardware concurrency.
  explicit Driver(int num_threads = 4, int io_threads = -1)
      : owned_scheduler_(
            std::make_unique<TaskScheduler>(std::max(1, num_threads))),
        owned_io_pool_(std::make_unique<ThreadPool>(
            io_threads >= 0 ? io_threads : std::max(2, num_threads))),
        scheduler_(owned_scheduler_.get()),
        query_slot_(scheduler_->RegisterQuery()),
        io_pool_(owned_io_pool_.get()) {}

  /// Service-mode driver: no pools of its own. Morsel tasks go to
  /// `scheduler`'s shared worker pool on the per-query queue
  /// `query_slot` (see TaskScheduler — queues are drained round-robin
  /// across queries, so this driver's stages cannot starve a peer's).
  /// Read-aheads go to the shared `io_pool`. Stage barriers block the
  /// calling (per-session control) thread, never a scheduler worker.
  Driver(TaskScheduler* scheduler, int64_t query_slot, ThreadPool* io_pool)
      : scheduler_(scheduler), query_slot_(query_slot), io_pool_(io_pool) {}

  /// Runs an arbitrary logical plan multi-threaded. The plan is cut into
  /// stages at pipeline breakers (stage_planner.h); each stage's input is
  /// split into morsels — fixed-size table batch ranges, or file ranges
  /// for lakehouse scans — and each morsel is one task on the scheduler.
  /// Pipeline breakers execute parallelism-aware, each as a stage of
  /// scheduler tasks:
  ///   - aggregates run one partial aggregate per morsel, whose
  ///     serialized states are split into hash partitions, then a final
  ///     merge stage with one task per non-empty partition (exact for
  ///     every kind; a scalar aggregate has one partition);
  ///   - joins build once and probe from all tasks: the build stage
  ///     hashes the build side's per-task outputs, then inserts one hash
  ///     partition per task into its own sub-table (one table for small
  ///     builds), keeping every key's match chain in input order;
  ///   - sorts produce one sorted run per morsel, k-way merged at the
  ///     stage boundary.
  /// The morsel decomposition and the partition counts depend only on the
  /// input, each merge partition merges its blobs in morsel order, and
  /// stage outputs are joined in task order, so the result table (rows
  /// *and* row order) is identical for every thread count, and join
  /// output is exactly that of a single build table.
  ///
  /// Observability: when `stages` is non-null one StageInfo per executed
  /// stage is appended in completion order; when `profile` is non-null it
  /// receives the full QueryProfile tree (one node per plan operator per
  /// stage, per-task min/max/sum). With both null the run does no profile
  /// bookkeeping at all beyond the operators' own counters.
  Result<Table> Run(const plan::PlanPtr& plan, ExecContext ctx = {},
                    std::vector<StageInfo>* stages = nullptr,
                    obs::QueryProfile* profile = nullptr);

  /// Runs `plan` the way one Photon task runs (Figure 1: "Photon executes
  /// tasks on partitions of data on a single thread"). The plan is cut
  /// into the same stages as Run, but every stage is one morsel covering
  /// its whole input, drained inline on the calling thread, and a join
  /// hashes its build side inside that task as the build streams instead
  /// of materializing it first. So there is no partial/final aggregate
  /// split and no sorted-run merge, and no pool is used — hence static:
  /// callers need no Driver (and start no threads) to run a plan this way.
  /// `stages` and `profile` as for Run.
  static Result<Table> RunSingleTask(const plan::PlanPtr& plan,
                                     ExecContext ctx = {},
                                     std::vector<StageInfo>* stages = nullptr,
                                     obs::QueryProfile* profile = nullptr);

  /// Worker parallelism: the scheduler's worker count (private or shared).
  int num_threads() const { return scheduler_->num_threads(); }

 private:
  struct RunState;        // per-run bookkeeping (ctx, stage list, profile)
  struct StagedFragment;  // compiled fragment + its materialized inputs

  /// Operator tree to drain for one morsel: the fragment chain, optionally
  /// wrapped (partial aggregate, sort) by the breaker above it.
  using WrapFn =
      std::function<Result<OperatorPtr>(OperatorPtr, const ExecContext&)>;
  /// (operator, profile node) pairs harvested into task shards after a
  /// morsel chain is drained.
  using Harvest = std::vector<std::pair<Operator*, int>>;
  /// A node's output as its last stage left it: one table per task, in
  /// task (morsel or merge-partition) order. Consumers that need one
  /// table concatenate; a join build reads the parts directly.
  using Parts = std::vector<std::unique_ptr<Table>>;

  /// The one execution path behind Run (`driver` = this) and
  /// RunSingleTask (`driver` null).
  static Result<Table> Execute(const plan::PlanPtr& plan, ExecContext ctx,
                               std::vector<StageInfo>* stages,
                               obs::QueryProfile* profile,
                               const Driver* driver);
  static Result<Parts> RunNode(const plan::PlanPtr& node, RunState* state,
                               int parent_node);
  static Result<Parts> RunFragment(const plan::PlanPtr& node,
                                   RunState* state, int parent_node);
  static Result<Parts> RunAggregate(const plan::PlanPtr& node,
                                    RunState* state, int parent_node);
  static Result<Parts> RunSort(const plan::PlanPtr& node, RunState* state,
                               int parent_node);
  static Result<StagedFragment> PrepareFragment(const plan::PlanPtr& root,
                                                RunState* state);
  static Result<OperatorPtr> InstantiateFragment(const StagedFragment& frag,
                                                 Morsel morsel,
                                                 const ExecContext& task_ctx,
                                                 Harvest* harvest);
  static Result<Parts> RunMorselStage(const StagedFragment& frag,
                                      RunState* state, const WrapFn& wrap,
                                      int wrap_node_id, StageInfo* info);
  /// The build stage of an in-fragment join: hashes the build side's
  /// parts (one task each), then fills the shared build state one hash
  /// partition per task.
  static Result<JoinBuildPtr> RunJoinBuild(const plan::PlanNode& join,
                                           Parts inputs, RunState* state);
  /// The one task loop behind every stage: runs task(0..num_tasks) inline
  /// when there is one task or the standalone driver has one worker, else
  /// one scheduler task each on this driver's queue. Joins every task
  /// before returning the first error; task starts and the barrier are
  /// cancellation points. Adds each task's CPU time to the stage's set.
  static Status RunTasks(RunState* state, int stage_id, int num_tasks,
                         const std::function<Status(int)>& task);
  /// Closes a stage that ran `num_tasks` tasks since `t0`: fills `info`
  /// and appends it to the run's stage list.
  static void FinishStage(RunState* state, int num_tasks, int64_t t0,
                          StageInfo* info);

  /// Set by the standalone constructor only.
  std::unique_ptr<TaskScheduler> owned_scheduler_;
  std::unique_ptr<ThreadPool> owned_io_pool_;
  /// Where morsel tasks run, on this driver's queue `query_slot_`: the
  /// private scheduler, or the service's shared one.
  TaskScheduler* scheduler_ = nullptr;
  int64_t query_slot_ = 0;
  /// Dedicated pool for scan read-aheads. Prefetch futures must never
  /// queue behind the worker tasks that block on them — with a saturated
  /// shared pool that is a deadlock. Shared across sessions in service
  /// mode (prefetch tasks are leaf work and never wait on workers).
  ThreadPool* io_pool_ = nullptr;
};

}  // namespace exec
}  // namespace photon

#endif  // PHOTON_EXEC_DRIVER_H_
