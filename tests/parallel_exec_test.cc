// Tests for morsel-parallel plan execution through the generalized Driver:
// result equivalence against single-task execution at 1/2/4/8 threads,
// memory-manager correctness under concurrent tasks (including spilling
// under pressure), and the stage-planner / morsel-split building blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/driver.h"
#include "exec/morsel.h"
#include "expr/builder.h"
#include "io/block_cache.h"
#include "memory/memory_manager.h"
#include "ops/hash_join.h"
#include "plan/logical_plan.h"
#include "plan/stage_planner.h"
#include "storage/delta.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace photon {
namespace {

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size(); i++) {
                int c = (a[i].is_null() && b[i].is_null()) ? 0
                        : a[i].is_null()                   ? -1
                        : b[i].is_null()                   ? 1
                                         : a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });
  return rows;
}

/// (k, v, s): grouped key, unique value, low-cardinality string.
Table MakeTable(int rows, int batch_size, uint64_t seed = 7) {
  Schema schema({Field("k", DataType::Int64()), Field("v", DataType::Int64()),
                 Field("s", DataType::String())});
  TableBuilder builder(schema, batch_size);
  Rng rng(seed);
  for (int i = 0; i < rows; i++) {
    builder.AppendRow({Value::Int64(rng.Uniform(0, 99)), Value::Int64(i),
                       Value::String("s" + std::to_string(i % 37))});
  }
  return builder.Finish();
}

ExprPtr ColK() { return eb::Col(0, DataType::Int64(), "k"); }
ExprPtr ColV() { return eb::Col(1, DataType::Int64(), "v"); }
ExprPtr ColS() { return eb::Col(2, DataType::String(), "s"); }

/// Runs `plan` single-task and through parallel drivers at 1/2/4/8 threads;
/// asserts every parallel run matches the single-task row set and that all
/// parallel runs are bitwise-identical to each other (thread-count
/// independence, including row order).
void ExpectParallelMatchesSingle(const plan::PlanPtr& plan,
                                 ExecContext ctx = {}) {
  exec::Driver reference(1);
  Result<Table> single = reference.RunSingleTask(plan, ctx);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  std::vector<std::vector<std::vector<Value>>> parallel_rows;
  for (int threads : {1, 2, 4, 8}) {
    exec::Driver driver(threads);
    std::vector<exec::StageInfo> stages;
    Result<Table> out = driver.Run(plan, ctx, &stages);
    ASSERT_TRUE(out.ok()) << "threads=" << threads << ": "
                          << out.status().ToString();
    EXPECT_EQ(out->num_rows(), single->num_rows()) << "threads=" << threads;
    EXPECT_EQ(Sorted(out->ToRows()), Sorted(single->ToRows()))
        << "threads=" << threads;
    ASSERT_FALSE(stages.empty());
    for (const exec::StageInfo& s : stages) EXPECT_GE(s.num_tasks, 1);
    parallel_rows.push_back(out->ToRows());
  }
  // Morsel decomposition is input-derived, so thread count must not change
  // anything — not even row order.
  for (size_t i = 1; i < parallel_rows.size(); i++) {
    EXPECT_EQ(parallel_rows[0], parallel_rows[i]);
  }
}

// --- Building blocks --------------------------------------------------------

TEST(MorselTest, SplitIsInputDerived) {
  std::vector<exec::Morsel> m = exec::SplitMorsels(20, 8);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].begin, 0);
  EXPECT_EQ(m[0].end, 8);
  EXPECT_EQ(m[2].begin, 16);
  EXPECT_EQ(m[2].end, 20);
  // Empty input still yields one (empty) morsel: stages always run a task.
  m = exec::SplitMorsels(0, 8);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].begin, m[0].end);
}

TEST(StagePlannerTest, BreakerKinds) {
  EXPECT_TRUE(plan::IsPipelineBreaker(plan::PlanKind::kAggregate));
  EXPECT_TRUE(plan::IsPipelineBreaker(plan::PlanKind::kSort));
  EXPECT_TRUE(plan::IsPipelineBreaker(plan::PlanKind::kLimit));
  EXPECT_FALSE(plan::IsPipelineBreaker(plan::PlanKind::kScan));
  EXPECT_FALSE(plan::IsPipelineBreaker(plan::PlanKind::kFilter));
  EXPECT_FALSE(plan::IsPipelineBreaker(plan::PlanKind::kJoin));
}

TEST(StagePlannerTest, CutsThroughProbeSideAndStopsAtBreakers) {
  Table probe = MakeTable(100, 32);
  Table build = MakeTable(10, 32);
  plan::PlanPtr p = plan::Filter(
      plan::Join(plan::Filter(plan::Scan(&probe),
                              eb::Gt(ColV(), eb::Lit(int64_t{10}))),
                 plan::Scan(&build), JoinType::kInner, {ColK()}, {ColK()}),
      eb::Gt(eb::Col(1, DataType::Int64(), "v"), eb::Lit(int64_t{20})));
  plan::FragmentCut cut = plan::CutFragment(p);
  // Root-first chain: Filter, Join, Filter; leaf is the probe-side scan.
  ASSERT_EQ(cut.nodes.size(), 3u);
  EXPECT_EQ(cut.nodes[0]->kind, plan::PlanKind::kFilter);
  EXPECT_EQ(cut.nodes[1]->kind, plan::PlanKind::kJoin);
  EXPECT_EQ(cut.nodes[2]->kind, plan::PlanKind::kFilter);
  EXPECT_EQ(cut.leaf_kind, plan::FragmentLeaf::kTable);
  EXPECT_EQ(cut.leaf->table, &probe);

  // An aggregate below a filter becomes a staged input, not chain interior.
  plan::PlanPtr agg = plan::Aggregate(
      plan::Scan(&probe), {ColK()}, {"k"},
      {AggregateSpec{AggKind::kSum, ColV(), "sv"}});
  plan::PlanPtr above = plan::Filter(
      agg, eb::Gt(eb::Col(1, DataType::Int64(), "sv"), eb::Lit(int64_t{0})));
  cut = plan::CutFragment(above);
  ASSERT_EQ(cut.nodes.size(), 1u);
  EXPECT_EQ(cut.leaf_kind, plan::FragmentLeaf::kStage);
  EXPECT_EQ(cut.leaf.get(), agg.get());
}

// --- Equivalence: parallel vs single-task -----------------------------------

TEST(ParallelEquivalenceTest, GroupedAggregate) {
  Table t = MakeTable(20000, 256);  // 79 batches -> 10 morsels
  plan::PlanPtr p = plan::Aggregate(
      plan::Filter(plan::Scan(&t), eb::Gt(ColV(), eb::Lit(int64_t{1000}))),
      {ColK()}, {"k"},
      {AggregateSpec{AggKind::kSum, ColV(), "sv"},
       AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kAvg, ColV(), "av"},
       AggregateSpec{AggKind::kMin, ColS(), "smin"},
       AggregateSpec{AggKind::kMax, ColS(), "smax"}});
  ExpectParallelMatchesSingle(p);
}

TEST(ParallelEquivalenceTest, ScalarAggregate) {
  Table t = MakeTable(20000, 256);
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {}, {},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kSum, ColV(), "sv"},
       AggregateSpec{AggKind::kAvg, ColV(), "av"}});
  ExpectParallelMatchesSingle(p);
}

TEST(ParallelEquivalenceTest, ScalarAggregateOverEmptyInput) {
  Table t = MakeTable(1000, 256);
  // Nothing survives the filter; count must still be one row of 0.
  plan::PlanPtr p = plan::Aggregate(
      plan::Filter(plan::Scan(&t), eb::Gt(ColV(), eb::Lit(int64_t{1 << 30}))),
      {}, {}, {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  exec::Driver driver(4);
  Result<Table> out = driver.Run(p);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetRow(0)[0], Value::Int64(0));
}

TEST(ParallelEquivalenceTest, HashJoinSharedBuild) {
  Table probe = MakeTable(20000, 256, 7);
  Table build = MakeTable(500, 64, 11);
  plan::PlanPtr p = plan::Join(
      plan::Filter(plan::Scan(&probe), eb::Gt(ColV(), eb::Lit(int64_t{50}))),
      plan::Filter(plan::Scan(&build), eb::Lt(ColV(), eb::Lit(int64_t{400}))),
      JoinType::kInner, {ColK()}, {ColK()});
  ExpectParallelMatchesSingle(p);
}

TEST(ParallelEquivalenceTest, LeftOuterAndSemiJoins) {
  Table probe = MakeTable(8000, 128, 3);
  Table build = MakeTable(300, 64, 5);
  // Build keys cover only part of the probe key domain.
  plan::PlanPtr build_side =
      plan::Filter(plan::Scan(&build), eb::Lt(ColK(), eb::Lit(int64_t{40})));
  for (JoinType jt :
       {JoinType::kLeftOuter, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    plan::PlanPtr p = plan::Join(plan::Scan(&probe), build_side, jt, {ColK()},
                                 {ColK()});
    ExpectParallelMatchesSingle(p);
  }
}

/// A build side of several morsels and more rows than the partitioning
/// threshold, with ~400 rows per key: the driver inserts it one hash
/// partition per task into sub-tables, and every join type must still
/// return exactly the rows, in exactly the order, of the single task's one
/// streaming table — each key's match chain is unchanged.
TEST(ParallelEquivalenceTest, PartitionedJoinBuildKeepsChainOrder) {
  Table probe = MakeTable(300, 64, 13);
  Table build = MakeTable(40000, 256, 17);  // 157 batches -> 20 morsels
  // Build keys cover only part of the probe key domain.
  plan::PlanPtr build_side =
      plan::Filter(plan::Scan(&build), eb::Lt(ColK(), eb::Lit(int64_t{80})));
  exec::Driver reference(1);
  for (JoinType jt : {JoinType::kInner, JoinType::kLeftOuter,
                      JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    plan::PlanPtr p = plan::Join(plan::Scan(&probe), build_side, jt,
                                 {ColK()}, {ColK()});
    Result<Table> single = reference.RunSingleTask(p);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    const std::vector<std::vector<Value>> want = single->ToRows();
    for (int threads : {1, 4, 8}) {
      SCOPED_TRACE("join type " + std::to_string(static_cast<int>(jt)) +
                   ", threads " + std::to_string(threads));
      exec::Driver driver(threads);
      std::vector<exec::StageInfo> stages;
      Result<Table> out = driver.Run(p, {}, &stages);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->ToRows(), want);
      // Build-side scan, build (8 partition tasks), probe.
      ASSERT_EQ(stages.size(), 3u);
      EXPECT_EQ(stages[1].num_tasks, std::min(threads, 8));
      EXPECT_GT(stages[1].cpu_ns(), 0);
    }
  }
}

/// Every final-merge partition runs as its own task of the merge stage,
/// which reports its tasks and CPU like any other stage.
TEST(ParallelEquivalenceTest, FinalMergeRunsOneTaskPerPartition) {
  Table t = MakeTable(20000, 256);  // 79 batches -> 10 morsels
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {ColV()}, {"v"},  // v unique: every partition used
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  exec::Driver driver(4);
  std::vector<exec::StageInfo> stages;
  Result<Table> out = driver.Run(p, {}, &stages);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 20000);
  ASSERT_EQ(stages.size(), 2u);  // partial, merge
  EXPECT_EQ(stages[1].num_tasks, 4);
  EXPECT_EQ(stages[1].rows_out(), 20000);
  EXPECT_GT(stages[1].cpu_ns(), 0);
  ExpectParallelMatchesSingle(p);
}

TEST(ParallelEquivalenceTest, SortedRunsMerge) {
  Table t = MakeTable(20000, 256);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{ColK(), true, true});
  keys.push_back(SortKey{ColV(), false, true});  // v unique -> total order
  plan::PlanPtr p = plan::Sort(
      plan::Filter(plan::Scan(&t), eb::Gt(ColV(), eb::Lit(int64_t{100}))),
      keys);
  ExpectParallelMatchesSingle(p);

  // The merged output must actually be ordered.
  exec::Driver driver(8);
  Result<Table> out = driver.Run(p);
  ASSERT_TRUE(out.ok());
  std::vector<std::vector<Value>> rows = out->ToRows();
  for (size_t i = 1; i < rows.size(); i++) {
    int64_t k0 = rows[i - 1][0].i64(), k1 = rows[i][0].i64();
    ASSERT_LE(k0, k1) << "row " << i;
    if (k0 == k1) {
      ASSERT_GE(rows[i - 1][1].i64(), rows[i][1].i64());
    }
  }
}

TEST(ParallelEquivalenceTest, LimitOverSort) {
  Table t = MakeTable(20000, 256);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{ColV(), false, true});  // unique key: stable prefix
  plan::PlanPtr p = plan::Limit(plan::Sort(plan::Scan(&t), keys), 100);
  exec::Driver reference(1);
  Result<Table> single = reference.RunSingleTask(p);
  ASSERT_TRUE(single.ok());
  for (int threads : {1, 2, 8}) {
    exec::Driver driver(threads);
    Result<Table> out = driver.Run(p);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->num_rows(), 100);
    EXPECT_EQ(out->ToRows(), single->ToRows()) << "threads=" << threads;
  }
}

TEST(ParallelEquivalenceTest, DeltaScanWithDataSkipping) {
  Schema schema(
      {Field("id", DataType::Int64()), Field("v", DataType::Int64())});
  ObjectStore store;
  Result<std::unique_ptr<DeltaTable>> dt =
      DeltaTable::Create(&store, "dl/t", schema);
  ASSERT_TRUE(dt.ok());
  Rng rng(13);
  for (int f = 0; f < 6; f++) {
    TableBuilder builder(schema, 512);
    for (int i = 0; i < 2000; i++) {
      builder.AppendRow({Value::Int64(f * 2000 + i),
                         Value::Int64(rng.Uniform(0, 999))});
    }
    FormatWriteOptions options;
    options.row_group_rows = 500;
    ASSERT_TRUE((*dt)->Append(builder.Finish(), options).ok());
  }
  Result<DeltaSnapshot> snap = (*dt)->Snapshot();
  ASSERT_TRUE(snap.ok());

  ThreadPool scan_pool(2);
  io::BlockCache cache;
  io::IoOptions io;
  io.cache = &cache;
  io.prefetch_pool = &scan_pool;  // driver reroutes to its own IO pool
  ExprPtr pred = eb::Between(eb::Col(0, DataType::Int64(), "id"),
                             eb::Lit(int64_t{3000}), eb::Lit(int64_t{8999}));
  plan::PlanPtr p = plan::Aggregate(
      plan::DeltaScan(&store, *snap, {}, pred, io), {}, {},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kSum, eb::Col(1, DataType::Int64(), "v"),
                     "sv"}});
  ExpectParallelMatchesSingle(p);

  // File pruning + row-group skipping survive the parallel path: only the
  // 4 overlapping files are read, and the non-overlapping row groups of
  // the two boundary files are skipped.
  exec::Driver driver(4);
  std::vector<exec::StageInfo> stages;
  Result<Table> out = driver.Run(p, {}, &stages);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[0], Value::Int64(6000));
  int64_t files_read = 0, row_groups_skipped = 0;
  for (const exec::StageInfo& s : stages) {
    files_read += s.files_read();
    row_groups_skipped += s.row_groups_skipped();
  }
  EXPECT_EQ(files_read, 4);
  EXPECT_EQ(row_groups_skipped, 4);
}

/// Every TPC-H query at 1/2/4/8 threads must reproduce the single-task
/// result — the acceptance bar for the morsel-parallel driver.
class TpchParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchParallelTest, MatchesSingleTask) {
  constexpr double kScale = 0.002;
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kScale));
  int q = GetParam();
  Result<plan::PlanPtr> p = tpch::TpchQuery(q, *data, kScale);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectParallelMatchesSingle(*p);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchParallelTest,
                         ::testing::Range(1, 23));

// --- Memory manager under concurrent tasks ----------------------------------

TEST(ParallelMemoryTest, ConcurrentAggregateSpillsUnderPressure) {
  Table t = MakeTable(60000, 512);
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {ColV()}, {"v"},  // v unique: 60k groups, real memory
      {AggregateSpec{AggKind::kSum, ColK(), "sk"},
       AggregateSpec{AggKind::kMax, ColS(), "smax"}});

  exec::Driver reference(1);
  Result<Table> unlimited = reference.RunSingleTask(p);
  ASSERT_TRUE(unlimited.ok());

  // Below a single morsel task's working set (~4k unique groups), so
  // spilling is forced regardless of how tasks overlap in time.
  MemoryManager mm(192 * 1024);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  ctx.spill_prefix = "ptest/agg-pressure";
  exec::Driver driver(4);
  Result<Table> out = driver.Run(p, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), unlimited->num_rows());
  EXPECT_EQ(Sorted(out->ToRows()), Sorted(unlimited->ToRows()));
  // The limit actually forced spilling, and every task released what it
  // reserved (no leaked reservations once the query is done).
  EXPECT_GT(mm.spill_count(), 0);
  EXPECT_EQ(mm.reserved(), 0);
}

TEST(ParallelMemoryTest, ConcurrentSortSpillsUnderPressure) {
  Table t = MakeTable(60000, 512);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{ColV(), true, true});
  plan::PlanPtr p = plan::Sort(plan::Scan(&t), keys);

  exec::Driver reference(1);
  Result<Table> unlimited = reference.RunSingleTask(p);
  ASSERT_TRUE(unlimited.ok());

  // Below a single morsel task's materialized input, so every task spills
  // at least one run no matter the overlap.
  MemoryManager mm(128 * 1024);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  ctx.spill_prefix = "ptest/sort-pressure";
  exec::Driver driver(4);
  Result<Table> out = driver.Run(p, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), unlimited->num_rows());
  EXPECT_EQ(Sorted(out->ToRows()), Sorted(unlimited->ToRows()));
  EXPECT_GT(mm.spill_count(), 0);
  EXPECT_EQ(mm.reserved(), 0);
}

/// The partitioned build's insert tasks all reserve on one JoinBuildState
/// at once (through the manager's lock); every reservation must land, and
/// all of it must come back when the build is dropped.
TEST(ParallelMemoryTest, ConcurrentBuildReservationsOnOneJoinBuildState) {
  Table build = MakeTable(40000, 256, 19);
  MemoryManager mm(int64_t{1} << 30);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  JoinBuildPtr state =
      JoinBuildState::Make(build.schema(), {ColK()}, /*partition_bits=*/3, ctx);
  ASSERT_EQ(state->num_partitions(), 8);
  Result<std::vector<HashedBuildBatch>> hashed =
      HashBuildInput(*state, {ColK()}, build);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  std::vector<std::vector<HashedBuildBatch>> inputs;
  inputs.push_back(std::move(*hashed));
  std::vector<std::thread> threads;
  std::vector<Status> results(state->num_partitions());
  for (int p = 0; p < state->num_partitions(); p++) {
    threads.emplace_back([&, p] {
      results[p] = InsertBuildPartition(state.get(), p, inputs);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : results) EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(state->build_rows.load(), 40000);
  int64_t entries = 0;
  for (const auto& table : state->tables) entries += table->num_entries();
  EXPECT_EQ(entries, 40000);
  const int64_t expected = int64_t{40000} * (state->payload_bytes + 96);
  EXPECT_EQ(state->reserved_bytes(), expected);
  EXPECT_EQ(mm.reserved(), expected);
  state.reset();
  EXPECT_EQ(mm.reserved(), 0);

  // The same through the driver: a partitioned build under a manager
  // returns the unlimited rows and leaves nothing reserved.
  Table probe = MakeTable(2000, 128, 23);
  plan::PlanPtr p = plan::Join(plan::Scan(&probe), plan::Scan(&build),
                               JoinType::kLeftSemi, {ColK()}, {ColK()});
  exec::Driver reference(1);
  Result<Table> want = reference.RunSingleTask(p);
  ASSERT_TRUE(want.ok());
  exec::Driver driver(8);
  Result<Table> got = driver.Run(p, ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->ToRows(), want->ToRows());
  EXPECT_EQ(mm.reserved(), 0);
}

TEST(ParallelMemoryTest, TaskGroupsIsolateSpillVictims) {
  // Two consumers in different task groups: pressure from group 1 must
  // spill group-1 consumers (or spill-safe ones), never group 2's.
  MemoryManager mm(1000);

  class Recorder : public MemoryConsumer {
   public:
    Recorder(std::string name, MemoryManager* mm)
        : MemoryConsumer(std::move(name)), mm_(mm) {}
    int64_t Spill(int64_t) override {
      spilled = true;
      int64_t r = held;
      held = 0;
      mm_->Release(this, r);
      return r;
    }
    bool spilled = false;
    int64_t held = 0;

   private:
    MemoryManager* mm_;
  };

  Recorder own("own", &mm);
  own.set_task_group(1);
  Recorder other("other", &mm);
  other.set_task_group(2);
  mm.RegisterConsumer(&own);
  mm.RegisterConsumer(&other);
  ASSERT_TRUE(mm.Reserve(&own, 400).ok());
  own.held = 400;
  ASSERT_TRUE(mm.Reserve(&other, 400).ok());
  other.held = 400;

  Recorder requester("req", &mm);
  requester.set_task_group(1);
  mm.RegisterConsumer(&requester);
  // 200 free; needs 400 more -> must evict `own` (same group), not `other`.
  ASSERT_TRUE(mm.Reserve(&requester, 600).ok());
  EXPECT_TRUE(own.spilled);
  EXPECT_FALSE(other.spilled);

  mm.Release(&requester, 600);
  mm.Release(&other, 400);
  mm.UnregisterConsumer(&own);
  mm.UnregisterConsumer(&other);
  mm.UnregisterConsumer(&requester);
}

}  // namespace
}  // namespace photon
