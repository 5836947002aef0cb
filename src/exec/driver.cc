#include "exec/driver.h"

#include <chrono>
#include <utility>

#include "expr/fusion.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "ops/file_scan.h"
#include "ops/filter.h"
#include "ops/fused_filter_project.h"
#include "ops/limit.h"
#include "ops/project.h"
#include "ops/scan.h"
#include "ops/sort.h"

namespace photon {
namespace exec {
namespace {

int64_t NowNs() { return obs::WallNowNs(); }

// Morsel granularity: fixed unit counts, NOT derived from the thread
// count, so the decomposition — and with it every per-morsel partial
// result — is identical at any parallelism.
constexpr int kMorselBatches = 8;   // table batches per morsel
constexpr int kFilesPerMorsel = 2;  // scan files per morsel

// Join builds: a build side of several parts and at least
// kMinPartitionedBuildRows rows is inserted one hash partition per task
// into 2^kBuildPartitionBits sub-tables; smaller ones into one table.
// Both are functions of the input only, like the morsel sizes.
constexpr int kBuildPartitionBits = 3;
constexpr int64_t kMinPartitionedBuildRows = 16384;

// Process-wide counter: task groups must be unique across *all* Driver
// instances. Concurrent sessions each construct a driver over one shared
// MemoryManager; colliding group ids would put two queries' consumers in
// one spill-victim set (a cross-thread Spill() race).
std::atomic<int64_t> g_next_task_group{1};

int64_t NextTaskGroup() {
  return g_next_task_group.fetch_add(1, std::memory_order_relaxed);
}

/// Cancellation checkpoint helper: OK when no token is attached.
Status CheckAlive(const ExecContext& ctx) {
  return ctx.control != nullptr ? ctx.control->Check() : Status::OK();
}

/// Concatenates a node's per-task outputs into one table in task order,
/// moving their batches (stage outputs are compact already); empty
/// batches are dropped.
Table Concat(std::vector<std::unique_ptr<Table>> parts, const Schema& schema) {
  if (parts.size() == 1) return std::move(*parts[0]);
  Table out(schema);
  for (std::unique_ptr<Table>& part : parts) {
    for (std::unique_ptr<ColumnBatch>& b : part->ReleaseBatches()) {
      if (b->num_active() == 0) continue;
      out.AppendBatch(b->all_active() ? std::move(b) : CompactBatch(*b));
    }
  }
  return out;
}

std::vector<std::unique_ptr<Table>> OnePart(Table table) {
  std::vector<std::unique_ptr<Table>> parts;
  parts.push_back(std::make_unique<Table>(std::move(table)));
  return parts;
}

/// Profile-node label for an in-fragment (streaming) plan node.
const char* ChainNodeName(plan::PlanKind kind) {
  switch (kind) {
    case plan::PlanKind::kFilter:
      return "Filter";
    case plan::PlanKind::kProject:
      return "Project";
    case plan::PlanKind::kJoin:
      return "HashJoin";
    default:
      return "Node";
  }
}

bool IsFusable(plan::PlanKind kind) {
  return kind == plan::PlanKind::kFilter || kind == plan::PlanKind::kProject;
}

FusedStage StageOf(const plan::PlanNode& node) {
  FusedStage stage;
  stage.is_filter = node.kind == plan::PlanKind::kFilter;
  if (stage.is_filter) {
    stage.predicate = node.predicate;
  } else {
    stage.exprs = node.exprs;
    stage.names = node.names;
  }
  return stage;
}

/// Refuses over-deep expressions anywhere in the plan before any recursive
/// walker (optimizer rewrites, fusion, tree Evaluate) can touch them.
Status CheckExprDepths(const plan::PlanNode& node) {
  PHOTON_RETURN_NOT_OK(plan::CheckNodeExprDepths(node));
  for (const plan::PlanPtr& child : node.children) {
    PHOTON_RETURN_NOT_OK(CheckExprDepths(*child));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

struct Driver::RunState {
  ExecContext ctx;
  std::vector<StageInfo>* stages = nullptr;
  /// Null = no profile bookkeeping this run (the stages/profile-off fast
  /// path); set when either a stage list or a QueryProfile was requested.
  obs::ProfileBuilder* profile = nullptr;
  int next_stage_id = 0;
  /// The driver behind Run; null for RunSingleTask, where every stage is
  /// one morsel, drained inline, and join builds stream inside the task
  /// (StagedFragment::build_frags).
  const Driver* driver = nullptr;

  bool single_task() const { return driver == nullptr; }
};

/// A fragment compiled for morsel execution: the cut plus everything the
/// per-morsel operator chains share — the source table or pruned file
/// list, and the build side of each in-fragment join.
struct Driver::StagedFragment {
  plan::FragmentCut cut;

  const Table* source_table = nullptr;  // kTable / kStage leaf
  std::unique_ptr<Table> staged;        // owns a materialized kStage input
  std::vector<std::string> files;       // kDeltaFiles leaf, post-pruning
  int64_t files_pruned = 0;
  io::IoOptions io;                     // kDeltaFiles leaf's scan IO

  /// One physical operator per group: a [begin, end) root-first range of
  /// cut.nodes. `unit` non-null = the range executes as one
  /// FusedFilterProjectOperator (compiled once here, shared immutably by
  /// every task's FusedUnitState); null = a single legacy node.
  struct FusedGroup {
    int begin = 0;
    int end = 0;
    std::shared_ptr<const FusedUnit> unit;
  };
  std::vector<FusedGroup> groups;

  /// Parallel to cut.nodes; at each kJoin position exactly one is set.
  /// `builds`: built once, probed concurrently by every task (entries own
  /// their bytes). `build_frags` (RunSingleTask): the build side's own
  /// fragment, instantiated inside the one task and hashed as it streams,
  /// so a build input is never materialized first.
  std::vector<JoinBuildPtr> builds;
  std::vector<std::unique_ptr<StagedFragment>> build_frags;

  /// Profile node ids (all -1 when profiling is off): one per *group*,
  /// plus the leaf scan; top_node_id is the chain's root, attached to its
  /// parent (breaker or profile root) by the caller.
  std::vector<int> node_ids;
  int leaf_node_id = -1;
  int top_node_id = -1;

  int units = 0;            // batches or files to split into morsels
  int units_per_morsel = 1;
};

Result<Table> Driver::Run(const plan::PlanPtr& plan, ExecContext ctx,
                          std::vector<StageInfo>* stages,
                          obs::QueryProfile* profile) {
  return Execute(plan, ctx, stages, profile, this);
}

Result<Table> Driver::RunSingleTask(const plan::PlanPtr& plan,
                                    ExecContext ctx,
                                    std::vector<StageInfo>* stages,
                                    obs::QueryProfile* profile) {
  return Execute(plan, ctx, stages, profile, nullptr);
}

Result<Table> Driver::Execute(const plan::PlanPtr& plan, ExecContext ctx,
                              std::vector<StageInfo>* stages,
                              obs::QueryProfile* profile,
                              const Driver* driver) {
  PHOTON_RETURN_NOT_OK(CheckExprDepths(*plan));
  if (ctx.optimizer == OptimizerPolicy::kOn) {
    ctx.optimizer = OptimizerPolicy::kOff;
    return Execute(opt::Optimize(plan), ctx, stages, profile, driver);
  }
  RunState state;
  state.ctx = ctx;
  state.stages = stages;
  state.driver = driver;
  obs::ProfileBuilder builder;
  if (stages != nullptr || profile != nullptr) state.profile = &builder;
  int64_t t0 = NowNs();
  Result<Parts> parts = RunNode(plan, &state, -1);
  Result<Table> out = parts.ok() ? Result<Table>(Concat(std::move(*parts),
                                                        plan->output_schema))
                                 : Result<Table>(parts.status());
  if (profile != nullptr) {
    *profile = builder.Finish(NowNs() - t0,
                              driver != nullptr ? driver->num_threads() : 1);
  }
  return out;
}

Result<Driver::Parts> Driver::RunNode(const plan::PlanPtr& node,
                                      RunState* state, int parent_node) {
  switch (node->kind) {
    case plan::PlanKind::kAggregate:
      return RunAggregate(node, state, parent_node);
    case plan::PlanKind::kSort:
      return RunSort(node, state, parent_node);
    case plan::PlanKind::kLimit: {
      // The child (in TPC-H always a sort or aggregate) is materialized in
      // its deterministic order; the limit just trims the prefix.
      int limit_id = -1;
      if (state->profile != nullptr) {
        limit_id = state->profile->AddNode("Limit", parent_node);
      }
      PHOTON_ASSIGN_OR_RETURN(Parts child,
                              RunNode(node->children[0], state, limit_id));
      Table input =
          Concat(std::move(child), node->children[0]->output_schema);
      LimitOperator limit(OperatorPtr(new InMemoryScanOperator(&input)),
                          node->limit);
      Result<Table> out = CollectAll(&limit, state->ctx.control);
      if (state->profile != nullptr) {
        limit.PublishMetrics();
        state->profile
            ->TaskShard(limit_id, state->profile->NewTaskId())
            ->MergeFrom(limit.op_metrics());
      }
      PHOTON_RETURN_NOT_OK(out.status());
      return OnePart(std::move(*out));
    }
    default:
      return RunFragment(node, state, parent_node);
  }
}

Result<Driver::StagedFragment> Driver::PrepareFragment(
    const plan::PlanPtr& root, RunState* state) {
  StagedFragment frag;
  frag.cut = plan::CutFragment(root);
  const std::vector<const plan::PlanNode*>& nodes = frag.cut.nodes;

  // Group the chain's consecutive filter/project runs into fused units
  // (DESIGN.md §12); every other node stays a singleton legacy group. A
  // unit is compiled once here and shared immutably by every task.
  size_t i = 0;
  while (i < nodes.size()) {
    size_t j = i;
    if (state->ctx.expr_policy != ExprPolicy::kTreeOnly) {
      while (j < nodes.size() && IsFusable(nodes[j]->kind)) j++;
    }
    if (j == i) {  // non-fusable node (or tree-only policy)
      frag.groups.push_back(
          {static_cast<int>(i), static_cast<int>(i) + 1, nullptr});
      i++;
      continue;
    }
    auto try_compile =
        [&](size_t begin, size_t end) -> std::shared_ptr<const FusedUnit> {
      std::vector<FusedStage> stages;
      stages.reserve(end - begin);
      for (size_t k = end; k-- > begin;) stages.push_back(StageOf(*nodes[k]));
      Result<std::shared_ptr<const FusedUnit>> unit = FusedUnit::Compile(
          stages, nodes[end - 1]->children[0]->output_schema);
      return unit.ok() ? std::move(*unit) : nullptr;
    };
    std::shared_ptr<const FusedUnit> unit = try_compile(i, j);
    if (unit != nullptr) {
      frag.groups.push_back(
          {static_cast<int>(i), static_cast<int>(j), std::move(unit)});
    } else {
      // An unsupported expression somewhere in the run: retry each node
      // alone so only the offending node falls back to the legacy path.
      for (size_t k = i; k < j; k++) {
        frag.groups.push_back({static_cast<int>(k), static_cast<int>(k) + 1,
                               try_compile(k, k + 1)});
      }
    }
    i = j;
  }

  // One profile node per group plus the leaf scan, created root-first so
  // a node's streaming child is its profile child. The top stays detached
  // until the caller knows its parent (breaker wrapper or profile root).
  // Single-node groups keep their legacy labels whether fused or not;
  // only a genuinely collapsed run reads "FusedFilterProject".
  obs::ProfileBuilder* profile = state->profile;
  frag.node_ids.assign(frag.groups.size(), -1);
  if (profile != nullptr) {
    int prev = obs::ProfileBuilder::kDetached;
    for (size_t g = 0; g < frag.groups.size(); g++) {
      const StagedFragment::FusedGroup& grp = frag.groups[g];
      const char* name = grp.end - grp.begin > 1
                             ? "FusedFilterProject"
                             : ChainNodeName(nodes[grp.begin]->kind);
      frag.node_ids[g] = profile->AddNode(
          name, g == 0 ? obs::ProfileBuilder::kDetached : prev);
      prev = frag.node_ids[g];
    }
    const char* leaf_name = "TableScan";
    if (frag.cut.leaf_kind == plan::FragmentLeaf::kDeltaFiles) {
      leaf_name = "DeltaScan";
    } else if (frag.cut.leaf_kind == plan::FragmentLeaf::kStage) {
      leaf_name = "StageScan";
    }
    frag.leaf_node_id = profile->AddNode(
        leaf_name,
        frag.groups.empty() ? obs::ProfileBuilder::kDetached : prev);
    frag.top_node_id =
        frag.groups.empty() ? frag.leaf_node_id : frag.node_ids[0];
  }

  // Build sides of in-fragment joins: each is materialized by its own
  // (recursive) stages, then hashed by a build stage into a shared build
  // state; a single task instead keeps the build's fragment and hashes it
  // inside the task. In the profile the build subtree hangs under the
  // join node, next to the probe-side chain. (Joins are always singleton
  // groups.)
  frag.builds.resize(nodes.size());
  frag.build_frags.resize(nodes.size());
  for (size_t g = 0; g < frag.groups.size(); g++) {
    size_t idx = static_cast<size_t>(frag.groups[g].begin);
    const plan::PlanNode* node = nodes[idx];
    if (frag.groups[g].unit != nullptr ||
        node->kind != plan::PlanKind::kJoin) {
      continue;
    }
    if (state->single_task()) {
      PHOTON_ASSIGN_OR_RETURN(StagedFragment build,
                              PrepareFragment(node->children[1], state));
      if (profile != nullptr) {
        profile->SetParent(build.top_node_id, frag.node_ids[g]);
      }
      frag.build_frags[idx] =
          std::make_unique<StagedFragment>(std::move(build));
      continue;
    }
    PHOTON_ASSIGN_OR_RETURN(
        Parts build_parts,
        RunNode(node->children[1], state, frag.node_ids[g]));
    PHOTON_ASSIGN_OR_RETURN(
        frag.builds[idx], RunJoinBuild(*node, std::move(build_parts), state));
  }

  switch (frag.cut.leaf_kind) {
    case plan::FragmentLeaf::kTable:
      frag.source_table = frag.cut.leaf->table;
      frag.units = frag.source_table->num_batches();
      frag.units_per_morsel = kMorselBatches;
      break;
    case plan::FragmentLeaf::kDeltaFiles: {
      const plan::PlanNode* leaf = frag.cut.leaf.get();
      for (DeltaFileEntry& f :
           DeltaTable::PruneFiles(leaf->snapshot, leaf->scan_predicate,
                                  leaf->scan_columns)) {
        frag.files.push_back(std::move(f.key));
      }
      frag.files_pruned = static_cast<int64_t>(leaf->snapshot.files.size() -
                                               frag.files.size());
      frag.units = static_cast<int>(frag.files.size());
      frag.units_per_morsel = kFilesPerMorsel;
      frag.io = leaf->scan_io;
      // Read-aheads go to the driver's IO pool; sharing the worker pool
      // would let a prefetch future queue behind the very task waiting on
      // it. A single-task run has no driver, so it keeps the plan's.
      if (frag.io.prefetch_pool != nullptr && !state->single_task()) {
        frag.io.prefetch_pool = state->driver->io_pool_;
      }
      if (profile != nullptr && frag.files_pruned > 0) {
        // Pruning happens once at plan time, not in any task.
        profile->NodeSet(frag.leaf_node_id)
            ->Add(obs::Metric::kFilesPruned, frag.files_pruned);
      }
      break;
    }
    case plan::FragmentLeaf::kStage: {
      PHOTON_ASSIGN_OR_RETURN(
          Parts staged, RunNode(frag.cut.leaf, state, frag.leaf_node_id));
      frag.staged = std::make_unique<Table>(
          Concat(std::move(staged), frag.cut.leaf->output_schema));
      frag.source_table = frag.staged.get();
      frag.units = frag.source_table->num_batches();
      frag.units_per_morsel = kMorselBatches;
      break;
    }
  }
  if (state->single_task()) frag.units_per_morsel = std::max(1, frag.units);
  return frag;
}

Result<OperatorPtr> Driver::InstantiateFragment(const StagedFragment& frag,
                                                Morsel morsel,
                                                const ExecContext& task_ctx,
                                                Harvest* harvest) {
  OperatorPtr op;
  if (frag.cut.leaf_kind == plan::FragmentLeaf::kDeltaFiles) {
    const plan::PlanNode* leaf = frag.cut.leaf.get();
    std::vector<std::string> subset(frag.files.begin() + morsel.begin,
                                    frag.files.begin() + morsel.end);
    op = OperatorPtr(new FileScanOperator(leaf->store, std::move(subset),
                                          leaf->snapshot.schema,
                                          leaf->scan_columns,
                                          leaf->scan_predicate, frag.io));
  } else {
    op = OperatorPtr(new InMemoryScanOperator(frag.source_table, morsel.begin,
                                              morsel.end));
  }
  if (harvest != nullptr) harvest->emplace_back(op.get(), frag.leaf_node_id);

  for (int g = static_cast<int>(frag.groups.size()) - 1; g >= 0; g--) {
    const StagedFragment::FusedGroup& grp = frag.groups[g];
    if (grp.unit != nullptr) {
      op = OperatorPtr(new FusedFilterProjectOperator(
          std::move(op), grp.unit, task_ctx.expr_policy));
      if (harvest != nullptr) {
        harvest->emplace_back(op.get(), frag.node_ids[g]);
      }
      continue;
    }
    const plan::PlanNode* node = frag.cut.nodes[grp.begin];
    switch (node->kind) {
      case plan::PlanKind::kFilter:
        op = OperatorPtr(new FilterOperator(std::move(op), node->predicate));
        break;
      case plan::PlanKind::kProject:
        op = OperatorPtr(
            new ProjectOperator(std::move(op), node->exprs, node->names));
        break;
      case plan::PlanKind::kJoin:
        if (const StagedFragment* build = frag.build_frags[grp.begin].get()) {
          PHOTON_ASSIGN_OR_RETURN(
              OperatorPtr build_op,
              InstantiateFragment(*build, Morsel{0, build->units}, task_ctx,
                                  harvest));
          op = OperatorPtr(new HashJoinOperator(
              std::move(build_op), std::move(op), node->right_keys,
              node->left_keys, node->join_type, task_ctx, node->residual));
        } else {
          op = OperatorPtr(new HashJoinOperator(
              frag.builds[grp.begin], std::move(op), node->left_keys,
              node->join_type, task_ctx, node->residual));
        }
        break;
      default:
        return Status::Internal("non-streaming node inside fragment");
    }
    if (harvest != nullptr) harvest->emplace_back(op.get(), frag.node_ids[g]);
  }
  return op;
}

Status Driver::RunTasks(RunState* state, int stage_id, int num_tasks,
                        const std::function<Status(int)>& task) {
  const Driver* driver = state->driver;
  obs::MetricSet* stage_set = state->profile != nullptr
                                  ? state->profile->StageSet(stage_id)
                                  : nullptr;
  auto run = [&](int i) -> Status {
    // Task starts are cancellation points: a cancelled or
    // deadline-expired query's queued tasks bail here, which is what makes
    // cancellation prompt at 8 threads.
    PHOTON_RETURN_NOT_OK(CheckAlive(state->ctx));
    int64_t cpu0 = stage_set != nullptr ? obs::ThreadCpuNs() : 0;
    Status status = task(i);
    if (stage_set != nullptr) {
      stage_set->Add(obs::Metric::kCpuNs, obs::ThreadCpuNs() - cpu0);
    }
    return status;
  };

  Status status = Status::OK();
  if (num_tasks <= 1 ||
      (driver->owned_scheduler_ != nullptr && driver->num_threads() == 1)) {
    // One task (always, for RunSingleTask) or a single-worker standalone
    // driver: run the tasks inline on the calling thread. In service mode
    // this keeps point queries off the shared queues entirely — their
    // single task runs on the session's own control thread at zero
    // scheduling latency — but a multi-task stage always goes through
    // the shared scheduler, whatever its size, so the worker cap and
    // round-robin fairness hold.
    for (int i = 0; i < num_tasks && status.ok(); i++) status = run(i);
  } else {
    // The scheduler drains query queues round-robin, so between any two
    // of our tasks every peer query (in service mode) gets a turn.
    std::vector<std::future<Status>> futures;
    futures.reserve(num_tasks);
    for (int i = 0; i < num_tasks; i++) {
      futures.push_back(driver->scheduler_->Submit(
          driver->query_slot_, [&run, i] { return run(i); }));
    }
    // Join every task before surfacing the first error — peers share the
    // output slots. (Also a breaker-barrier cancellation point: the
    // post-join CheckAlive below turns "every task bailed at its start"
    // into a crisp kCancelled for the whole stage.)
    obs::TraceSpan barrier("stage_barrier", stage_id);
    for (auto& f : futures) {
      Status s = f.get();
      if (status.ok() && !s.ok()) status = s;
    }
  }
  if (status.ok()) status = CheckAlive(state->ctx);
  return status;
}

void Driver::FinishStage(RunState* state, int num_tasks, int64_t t0,
                         StageInfo* info) {
  const int workers =
      state->driver != nullptr ? state->driver->num_threads() : 1;
  info->num_tasks = std::max(1, std::min(workers, num_tasks));
  int64_t wall = NowNs() - t0;
  if (state->profile != nullptr) {
    state->profile->StageSet(info->stage_id)->Add(obs::Metric::kWallNs, wall);
    info->m = state->profile->StageSnapshot(info->stage_id);
  } else {
    info->m[obs::Metric::kWallNs] = wall;
  }
  if (state->stages != nullptr) state->stages->push_back(*info);
}

Result<Driver::Parts> Driver::RunMorselStage(const StagedFragment& frag,
                                             RunState* state,
                                             const WrapFn& wrap,
                                             int wrap_node_id,
                                             StageInfo* info) {
  std::vector<Morsel> morsels =
      SplitMorsels(frag.units, frag.units_per_morsel);
  const int num_morsels = static_cast<int>(morsels.size());
  const int stage_id = info->stage_id;
  obs::ProfileBuilder* profile = state->profile;
  obs::MetricSet* stage_set =
      profile != nullptr ? profile->StageSet(stage_id) : nullptr;
  if (profile != nullptr) {
    // In-task build fragments (RunSingleTask) run in this stage too.
    std::function<void(const StagedFragment&)> set_stage =
        [&](const StagedFragment& f) {
          for (int nid : f.node_ids) profile->SetStage(nid, stage_id);
          profile->SetStage(f.leaf_node_id, stage_id);
          for (const auto& build : f.build_frags) {
            if (build != nullptr) set_stage(*build);
          }
        };
    set_stage(frag);
    if (wrap_node_id >= 0) profile->SetStage(wrap_node_id, stage_id);
  }
  int64_t t0 = NowNs();

  Parts slots(num_morsels);

  // One task per morsel, with one metric shard per (node, task): the shard
  // is only ever touched by this task, so the hot path is uncontended
  // relaxed atomics and the merge happens here, after the morsel is
  // drained — the sharded-then-merged-at-barriers design of §5.2.
  auto task = [&](int m) -> Status {
    const int64_t task_id = profile != nullptr ? profile->NewTaskId() : 0;
    obs::TraceSpan morsel_span("morsel", m);
    ExecContext task_ctx = state->ctx;
    task_ctx.task_group = NextTaskGroup();
    // Unique per-task spill namespace: concurrent tasks must never
    // collide on object-store spill keys.
    task_ctx.spill_prefix = state->ctx.spill_prefix + "/s" +
                            std::to_string(stage_id) + "-m" +
                            std::to_string(m);
    Harvest harvest;
    PHOTON_ASSIGN_OR_RETURN(
        OperatorPtr op,
        InstantiateFragment(frag, morsels[m], task_ctx,
                            profile != nullptr ? &harvest : nullptr));
    Operator* chain_top = op.get();
    PHOTON_ASSIGN_OR_RETURN(op, wrap(std::move(op), task_ctx));
    if (profile != nullptr && op.get() != chain_top) {
      harvest.emplace_back(op.get(), wrap_node_id);
    }
    Result<Table> out = CollectAll(op.get(), state->ctx.control);
    if (profile != nullptr) {
      for (const auto& [hop, nid] : harvest) {
        hop->PublishMetrics();
        if (nid >= 0) {
          profile->TaskShard(nid, task_id)->MergeFrom(hop->op_metrics());
        }
        stage_set->MergeResourceFrom(hop->op_metrics());
      }
      if (out.ok()) {
        stage_set->Add(obs::Metric::kRowsOut, out->num_rows());
        stage_set->Add(obs::Metric::kBatches, out->num_batches());
      }
    }
    PHOTON_RETURN_NOT_OK(out.status());
    slots[m] = std::make_unique<Table>(std::move(*out));
    return Status::OK();
  };
  PHOTON_RETURN_NOT_OK(RunTasks(state, stage_id, num_morsels, task));
  FinishStage(state, num_morsels, t0, info);
  return slots;
}

Result<JoinBuildPtr> Driver::RunJoinBuild(const plan::PlanNode& join,
                                          Parts inputs, RunState* state) {
  StageInfo info;
  info.stage_id = state->next_stage_id++;
  int64_t t0 = NowNs();
  obs::TraceSpan span("join_build", info.stage_id);
  int64_t rows = 0;
  for (const std::unique_ptr<Table>& t : inputs) rows += t->num_rows();
  const bool partitioned =
      inputs.size() > 1 && rows >= kMinPartitionedBuildRows;
  ExecContext build_ctx = state->ctx;
  build_ctx.task_group = NextTaskGroup();
  JoinBuildPtr build = JoinBuildState::Make(
      join.children[1]->output_schema, join.right_keys,
      partitioned ? kBuildPartitionBits : 0, build_ctx);

  // Pass 1: one task per input part evaluates and hashes its keys.
  std::vector<std::vector<HashedBuildBatch>> hashed(inputs.size());
  PHOTON_RETURN_NOT_OK(RunTasks(
      state, info.stage_id, static_cast<int>(inputs.size()),
      [&](int i) -> Status {
        PHOTON_ASSIGN_OR_RETURN(
            hashed[i], HashBuildInput(*build, join.right_keys, *inputs[i]));
        return Status::OK();
      }));
  // Pass 2: one task per sub-table inserts its rows in input order, so
  // every key's chain is the one a serial build makes.
  PHOTON_RETURN_NOT_OK(RunTasks(
      state, info.stage_id, build->num_partitions(),
      [&](int p) { return InsertBuildPartition(build.get(), p, hashed); }));
  if (state->profile != nullptr) {
    state->profile->StageSet(info.stage_id)
        ->Add(obs::Metric::kRowsOut, build->build_rows.load());
  }
  FinishStage(state, build->num_partitions(), t0, &info);
  return build;
}

Result<Driver::Parts> Driver::RunFragment(const plan::PlanPtr& node,
                                          RunState* state, int parent_node) {
  PHOTON_ASSIGN_OR_RETURN(StagedFragment frag, PrepareFragment(node, state));
  if (state->profile != nullptr) {
    state->profile->SetParent(frag.top_node_id, parent_node);
  }
  StageInfo info;
  info.stage_id = state->next_stage_id++;
  WrapFn identity = [](OperatorPtr op, const ExecContext&) {
    return Result<OperatorPtr>(std::move(op));
  };
  return RunMorselStage(frag, state, identity, -1, &info);
}

Result<Driver::Parts> Driver::RunAggregate(const plan::PlanPtr& node,
                                           RunState* state, int parent_node) {
  // Pre-project non-trivial aggregate arguments (DESIGN.md §12): the
  // inserted Project joins the input fragment, where it fuses with the
  // scan-side filter chain; the aggregate then reads plain column refs.
  // `pre` owns the rewritten plan nodes for the rest of this function.
  plan::AggPreProject pre;
  if (state->ctx.expr_policy != ExprPolicy::kTreeOnly) {
    pre = plan::PlanAggPreProject(*node);
  }
  const plan::PlanPtr& input = pre.fired ? pre.input : node->children[0];
  const std::vector<ExprPtr>& keys = pre.fired ? pre.keys : node->group_keys;
  const std::vector<AggregateSpec>& aggs =
      pre.fired ? pre.aggregates : node->aggregates;
  PHOTON_ASSIGN_OR_RETURN(StagedFragment frag,
                          PrepareFragment(input, state));
  const int num_morsels = static_cast<int>(
      SplitMorsels(frag.units, frag.units_per_morsel).size());
  obs::ProfileBuilder* profile = state->profile;
  StageInfo info;
  info.stage_id = state->next_stage_id++;

  if (num_morsels <= 1) {
    // One morsel: a classic complete aggregate in one task, no merge
    // stage. (This path is chosen by input size alone, so it is the same
    // at every thread count.)
    int agg_id = -1;
    if (profile != nullptr) {
      agg_id = profile->AddNode("HashAggregate", parent_node);
      profile->SetParent(frag.top_node_id, agg_id);
    }
    WrapFn wrap = [&](OperatorPtr op, const ExecContext& task_ctx) {
      return Result<OperatorPtr>(OperatorPtr(new HashAggregateOperator(
          std::move(op), keys, node->key_names, aggs, task_ctx,
          AggMode::kComplete)));
    };
    return RunMorselStage(frag, state, wrap, agg_id, &info);
  }

  // Partial stage: one exact partial aggregate per morsel, emitting
  // serialized (key, state) blobs split into hash partitions; the profile
  // mirrors the physical shape as Final <- Partial <- input chain.
  int final_id = -1;
  int partial_id = -1;
  if (profile != nullptr) {
    final_id = profile->AddNode("HashAggregateFinal", parent_node);
    partial_id = profile->AddNode("HashAggregatePartial", final_id);
    profile->SetParent(frag.top_node_id, partial_id);
  }
  WrapFn wrap = [&](OperatorPtr op, const ExecContext& task_ctx) {
    return Result<OperatorPtr>(OperatorPtr(new HashAggregateOperator(
        std::move(op), keys, node->key_names, aggs, task_ctx,
        AggMode::kPartial)));
  };
  PHOTON_ASSIGN_OR_RETURN(Parts outputs,
                          RunMorselStage(frag, state, wrap, partial_id, &info));

  // Merge stage: one task per non-empty hash partition (a scalar
  // aggregate has one). Each task merges its partition's blobs in morsel
  // order, and the outputs stay in partition order, so the merge input —
  // and the output rows and order — are independent of the thread count.
  int64_t t0 = NowNs();
  StageInfo merge_info;
  merge_info.stage_id = state->next_stage_id++;
  std::vector<Table> blobs;
  for (int p = 0; p < HashAggregateOperator::kMergePartitions; p++) {
    blobs.emplace_back(HashAggregateOperator::PartialOutputSchema());
  }
  for (std::unique_ptr<Table>& t : outputs) {
    for (std::unique_ptr<ColumnBatch>& b : t->ReleaseBatches()) {
      if (b->num_active() == 0) continue;
      // A partial's output batch holds the blobs of one partition.
      int p = b->column(0)->data<int32_t>()[b->ActiveRow(0)];
      blobs[p].AppendBatch(std::move(b));
    }
  }
  std::vector<int> partitions;
  for (int p = 0; p < HashAggregateOperator::kMergePartitions; p++) {
    if (blobs[p].num_batches() > 0) partitions.push_back(p);
  }
  obs::MetricSet* stage_set =
      profile != nullptr ? profile->StageSet(merge_info.stage_id) : nullptr;
  if (profile != nullptr) profile->SetStage(final_id, merge_info.stage_id);
  Parts merged(partitions.size());
  auto task = [&](int i) -> Status {
    const int p = partitions[i];
    ExecContext task_ctx = state->ctx;
    task_ctx.task_group = NextTaskGroup();
    task_ctx.spill_prefix = state->ctx.spill_prefix + "/s" +
                            std::to_string(merge_info.stage_id) + "-p" +
                            std::to_string(p);
    HashAggregateOperator merge(
        OperatorPtr(new InMemoryScanOperator(&blobs[p])), keys,
        node->key_names, aggs, task_ctx, AggMode::kFinalMerge);
    Result<Table> out = CollectAll(&merge, state->ctx.control);
    if (profile != nullptr) {
      merge.PublishMetrics();
      profile->TaskShard(final_id, profile->NewTaskId())
          ->MergeFrom(merge.op_metrics());
      stage_set->MergeResourceFrom(merge.op_metrics());
      if (out.ok()) {
        stage_set->Add(obs::Metric::kRowsOut, out->num_rows());
        stage_set->Add(obs::Metric::kBatches, out->num_batches());
      }
    }
    PHOTON_RETURN_NOT_OK(out.status());
    merged[i] = std::make_unique<Table>(std::move(*out));
    return Status::OK();
  };
  PHOTON_RETURN_NOT_OK(RunTasks(state, merge_info.stage_id,
                                static_cast<int>(partitions.size()), task));
  FinishStage(state, static_cast<int>(partitions.size()), t0, &merge_info);
  // No group at all (empty keyed input): one empty part.
  if (merged.empty()) return OnePart(Table(node->output_schema));
  return merged;
}

Result<Driver::Parts> Driver::RunSort(const plan::PlanPtr& node,
                                      RunState* state, int parent_node) {
  PHOTON_ASSIGN_OR_RETURN(StagedFragment frag,
                          PrepareFragment(node->children[0], state));
  const int num_morsels = static_cast<int>(
      SplitMorsels(frag.units, frag.units_per_morsel).size());
  obs::ProfileBuilder* profile = state->profile;
  StageInfo info;
  info.stage_id = state->next_stage_id++;

  // One sorted run per morsel; with several morsels a deterministic k-way
  // merge stage sits above the runs (SortMerge <- Sort <- input).
  int sort_id = -1;
  int sort_merge_id = -1;
  if (profile != nullptr) {
    if (num_morsels > 1) {
      sort_merge_id = profile->AddNode("SortMerge", parent_node);
      sort_id = profile->AddNode("Sort", sort_merge_id);
    } else {
      sort_id = profile->AddNode("Sort", parent_node);
    }
    profile->SetParent(frag.top_node_id, sort_id);
  }
  WrapFn wrap = [&](OperatorPtr op, const ExecContext& task_ctx) {
    return Result<OperatorPtr>(OperatorPtr(
        new SortOperator(std::move(op), node->sort_keys, task_ctx)));
  };
  PHOTON_ASSIGN_OR_RETURN(Parts outputs,
                          RunMorselStage(frag, state, wrap, sort_id, &info));
  if (outputs.size() == 1) return outputs;

  // Merge stage: deterministic k-way merge of the runs (ties resolve to
  // the lowest morsel index).
  int64_t t0 = NowNs();
  StageInfo merge_info;
  merge_info.stage_id = state->next_stage_id++;
  // Breaker-barrier cancellation point: don't start a k-way merge for a
  // query that was cancelled while its runs were sorting.
  PHOTON_RETURN_NOT_OK(CheckAlive(state->ctx));
  std::vector<Table*> runs;
  runs.reserve(outputs.size());
  for (auto& t : outputs) runs.push_back(t.get());
  int64_t cpu0 = profile != nullptr ? obs::ThreadCpuNs() : 0;
  Result<Table> merged = MergeSortedRuns(runs, node->sort_keys,
                                         node->output_schema,
                                         state->ctx.batch_size);
  if (profile != nullptr) {
    // MergeSortedRuns is a free function, not an Operator: record its
    // contribution into the SortMerge node by hand.
    profile->SetStage(sort_merge_id, merge_info.stage_id);
    obs::MetricSet* shard =
        profile->TaskShard(sort_merge_id, profile->NewTaskId());
    shard->Add(obs::Metric::kWallNs, NowNs() - t0);
    obs::MetricSet* stage_set = profile->StageSet(merge_info.stage_id);
    stage_set->Add(obs::Metric::kCpuNs, obs::ThreadCpuNs() - cpu0);
    if (merged.ok()) {
      shard->Add(obs::Metric::kRowsOut, merged->num_rows());
      shard->Add(obs::Metric::kBatches, merged->num_batches());
      stage_set->Add(obs::Metric::kRowsOut, merged->num_rows());
      stage_set->Add(obs::Metric::kBatches, merged->num_batches());
    }
  }
  PHOTON_RETURN_NOT_OK(merged.status());
  FinishStage(state, 1, t0, &merge_info);
  return OnePart(std::move(*merged));
}

}  // namespace exec
}  // namespace photon
