#include <gtest/gtest.h>

#include <atomic>

#include "exec/thread_pool.h"
#include "expr/builder.h"
#include "ops/file_scan.h"
#include "ops/filter.h"
#include "ops/hash_aggregate.h"
#include "ops/scan.h"
#include "storage/format.h"

namespace photon {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; i++) {
    futures.push_back(pool.Submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(sum, 99 * 100);  // 2 * (0 + 1 + ... + 99)
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; i++) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }  // join
  EXPECT_EQ(done.load(), 20);
}

// --- Per-operator metrics / explain (§3.3 observability) -------------------

TEST(MetricsTest, ExplainAnalyzeReportsPerOperatorCounts) {
  Schema schema({Field("x", DataType::Int64())});
  TableBuilder builder(schema);
  for (int i = 0; i < 1000; i++) builder.AppendRow({Value::Int64(i)});
  Table t = builder.Finish();

  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan),
      eb::Lt(eb::Col(0, DataType::Int64(), "x"), eb::Lit(int64_t{100})));
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(filter), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs));

  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(100));

  // Operator-level metrics survive because operator boundaries survive.
  EXPECT_EQ(agg->metrics().rows_out, 1);
  EXPECT_GT(agg->metrics().time_ns, 0);

  std::string explain = ExplainAnalyze(agg.get());
  EXPECT_NE(explain.find("PhotonHashAggregate"), std::string::npos);
}

// --- FileScan row-group skipping --------------------------------------------

TEST(FileScanTest, SkipsRowGroupsByStats) {
  // One file, clustered ids, small row groups -> the predicate should skip
  // most groups without decoding them.
  Schema schema({Field("id", DataType::Int64())});
  TableBuilder builder(schema);
  for (int64_t i = 0; i < 10000; i++) builder.AppendRow({Value::Int64(i)});
  Table t = builder.Finish();

  ObjectStore store;
  FormatWriteOptions options;
  options.row_group_rows = 1000;  // 10 groups
  Result<FileMeta> meta =
      WriteTableToStore(t, &store, "skip/test.pho", options);
  ASSERT_TRUE(meta.ok());

  ExprPtr pred = eb::Between(eb::Col(0, DataType::Int64(), "id"),
                             eb::Lit(int64_t{4500}), eb::Lit(int64_t{4600}));
  auto scan = std::make_unique<FileScanOperator>(
      &store, std::vector<std::string>{"skip/test.pho"}, schema,
      std::vector<int>{}, pred);
  Result<Table> result = CollectAll(scan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 101);
  EXPECT_EQ(scan->op_metrics().Value(obs::Metric::kRowGroupsSkipped), 9)
      << "only group [4000,5000) should be read";
}

TEST(FileScanTest, MultipleFilesAndProjection) {
  Schema schema({Field("id", DataType::Int64()),
                 Field("payload", DataType::String())});
  ObjectStore store;
  for (int f = 0; f < 3; f++) {
    TableBuilder builder(schema);
    for (int i = 0; i < 100; i++) {
      builder.AppendRow({Value::Int64(f * 100 + i),
                         Value::String("p" + std::to_string(i))});
    }
    Table t = builder.Finish();
    ASSERT_TRUE(
        WriteTableToStore(t, &store, "multi/f" + std::to_string(f)).ok());
  }
  auto scan = std::make_unique<FileScanOperator>(
      &store,
      std::vector<std::string>{"multi/f0", "multi/f1", "multi/f2"}, schema,
      std::vector<int>{0});  // ids only
  Result<Table> result = CollectAll(scan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 300);
  EXPECT_EQ(result->schema().num_fields(), 1);
  EXPECT_EQ(scan->op_metrics().Value(obs::Metric::kFilesRead), 3);
}

}  // namespace
}  // namespace photon
