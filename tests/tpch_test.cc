#include <gtest/gtest.h>

#include <algorithm>

#include "exec/driver.h"
#include "plan/logical_plan.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace photon {
namespace {

constexpr double kTestScale = 0.002;  // ~12k lineitems: fast but non-trivial

const tpch::TpchData& Data() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kTestScale));
  return *data;
}

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

TEST(TpchGenTest, TableCardinalities) {
  const tpch::TpchData& d = Data();
  EXPECT_EQ(d.region.num_rows(), 5);
  EXPECT_EQ(d.nation.num_rows(), 25);
  EXPECT_GT(d.supplier.num_rows(), 0);
  EXPECT_EQ(d.partsupp.num_rows(), d.part.num_rows() * 4);
  EXPECT_GT(d.lineitem.num_rows(), d.orders.num_rows());
  // Lineitem count averages ~4 per order.
  EXPECT_LT(d.lineitem.num_rows(), d.orders.num_rows() * 8);
}

TEST(TpchGenTest, Deterministic) {
  tpch::TpchData a = tpch::GenerateTpch(0.001, 42);
  tpch::TpchData b = tpch::GenerateTpch(0.001, 42);
  EXPECT_EQ(a.lineitem.num_rows(), b.lineitem.num_rows());
  EXPECT_EQ(a.lineitem.GetRow(100), b.lineitem.GetRow(100));
  tpch::TpchData c = tpch::GenerateTpch(0.001, 43);
  EXPECT_NE(a.lineitem.GetRow(100), c.lineitem.GetRow(100));
}

/// Every TPC-H query must produce identical results from Photon and from
/// the baseline engine — the full-plan version of §5.6's end-to-end tests,
/// and the precondition for Figure 8 being meaningful.
class TpchConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchConsistencyTest, PhotonMatchesBaseline) {
  int q = GetParam();
  Result<plan::PlanPtr> p = tpch::TpchQuery(q, Data(), kTestScale);
  ASSERT_TRUE(p.ok()) << p.status().ToString();

  exec::Driver driver(1);
  Result<Table> photon_result = driver.RunSingleTask(*p);
  ASSERT_TRUE(photon_result.ok()) << photon_result.status().ToString();

  Result<baseline::RowOperatorPtr> base_op = plan::CompileBaseline(*p);
  ASSERT_TRUE(base_op.ok()) << base_op.status().ToString();
  Result<Table> base_result = baseline::CollectAllRows(base_op->get());
  ASSERT_TRUE(base_result.ok()) << base_result.status().ToString();

  ASSERT_EQ(photon_result->num_rows(), base_result->num_rows())
      << "Q" << q << " row counts diverge";
  // Queries ending in Limit after a sort with ties may legitimately pick
  // different tied rows; compare as sets, which the spec's validation also
  // effectively does at this granularity.
  EXPECT_EQ(Sorted(photon_result->ToRows()), Sorted(base_result->ToRows()))
      << "Q" << q << " results diverge";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchConsistencyTest,
                         ::testing::Range(1, 23));

TEST(TpchResultTest, Q1ShapeIsSane) {
  Result<plan::PlanPtr> p = tpch::TpchQuery(1, Data(), kTestScale);
  ASSERT_TRUE(p.ok());
  exec::Driver driver(1);
  Result<Table> r = driver.RunSingleTask(*p);
  ASSERT_TRUE(r.ok());
  // Q1 groups by (returnflag, linestatus): at most 2x3 combinations exist
  // in generated data (A/F, N/F, N/O, R/F).
  EXPECT_GE(r->num_rows(), 3);
  EXPECT_LE(r->num_rows(), 6);
  // Every aggregate column is non-null and positive.
  for (auto& row : r->ToRows()) {
    EXPECT_FALSE(row[2].is_null());  // sum_qty
    EXPECT_GT(row[9].i64(), 0);      // count_order
  }
}

TEST(TpchResultTest, Q6ReturnsSingleScalar) {
  Result<plan::PlanPtr> p = tpch::TpchQuery(6, Data(), kTestScale);
  ASSERT_TRUE(p.ok());
  exec::Driver driver(1);
  Result<Table> r = driver.RunSingleTask(*p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);
}

}  // namespace
}  // namespace photon
