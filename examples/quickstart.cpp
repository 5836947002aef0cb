// Quickstart: build an in-memory table, run a filter + aggregation through
// the Photon engine, and print the result — the SQL query from Listing 1
// of the paper, expressed with the C++ plan-builder API:
//
//   SELECT upper(c_name), sum(o_price)
//   FROM customer, orders
//   WHERE o_shipdate > '2021-01-01'
//     AND customer.c_age > 25
//     AND customer.c_orderid = orders.o_orderid
//   GROUP BY c_name

#include <cstdio>

#include "common/rng.h"
#include "common/time_util.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "plan/logical_plan.h"

using namespace photon;

int main() {
  // ---- Create the two input tables ---------------------------------------
  Schema customer_schema({Field("c_name", DataType::String()),
                          Field("c_age", DataType::Int32()),
                          Field("c_orderid", DataType::Int64())});
  Schema orders_schema({Field("o_orderid", DataType::Int64()),
                        Field("o_price", DataType::Decimal(12, 2)),
                        Field("o_shipdate", DataType::Date32())});

  Rng rng(2021);
  const char* names[] = {"alice", "bob", "carol", "dave", "erin"};
  TableBuilder customers(customer_schema);
  for (int64_t i = 0; i < 1000; i++) {
    customers.AppendRow({Value::String(names[i % 5]),
                         Value::Int32(static_cast<int32_t>(
                             rng.Uniform(18, 70))),
                         Value::Int64(i)});
  }
  Table customer = customers.Finish();

  int32_t epoch_2021;
  PHOTON_CHECK(ParseDate("2021-01-01", &epoch_2021));
  TableBuilder orders(orders_schema);
  for (int64_t i = 0; i < 1000; i++) {
    orders.AppendRow(
        {Value::Int64(i),
         Value::Decimal(Decimal128::FromInt64(rng.Uniform(100, 99999))),
         Value::Date32(epoch_2021 +
                       static_cast<int32_t>(rng.Uniform(-200, 400)))});
  }
  Table order_table = orders.Finish();

  // ---- Build the logical plan --------------------------------------------
  plan::PlanPtr c = plan::Scan(&customer);
  c = plan::Filter(c, eb::Gt(plan::ColOf(c, "c_age"), eb::Lit(int32_t{25})));

  plan::PlanPtr o = plan::Scan(&order_table);
  o = plan::Filter(
      o, eb::Gt(plan::ColOf(o, "o_shipdate"), eb::DateLit("2021-01-01")));

  plan::PlanPtr joined =
      plan::Join(c, o, JoinType::kInner, {plan::ColOf(c, "c_orderid")},
                 {plan::ColOf(o, "o_orderid")});

  plan::PlanPtr agg = plan::Aggregate(
      joined, {eb::Call("upper", {plan::ColOf(joined, "c_name")})},
      {"name"},
      {AggregateSpec{AggKind::kSum, plan::ColOf(joined, "o_price"),
                     "total"}});
  agg = plan::Sort(agg, {SortKey{plan::ColOf(agg, "name"), true, true}});

  std::printf("plan:\n%s\n", agg->ToString(1).c_str());

  // ---- Execute in Photon and print ---------------------------------------
  exec::Driver driver(1);
  Result<Table> result = driver.RunSingleTask(agg);
  PHOTON_CHECK(result.ok());

  std::printf("%-8s %14s\n", "name", "sum(o_price)");
  for (const auto& row : result->ToRows()) {
    std::printf("%-8s %14s\n", row[0].str().c_str(),
                row[1].decimal().ToString(2).c_str());
  }

  // The same plan runs on the row-oriented baseline engine, byte-for-byte
  // equal — the semantics-consistency guarantee of §5.6.
  Result<baseline::RowOperatorPtr> base = plan::CompileBaseline(agg);
  PHOTON_CHECK(base.ok());
  Result<Table> base_result = baseline::CollectAllRows(base->get());
  PHOTON_CHECK(base_result.ok());
  PHOTON_CHECK(result->ToRows() == base_result->ToRows());
  std::printf("\nbaseline engine produced identical results.\n");
  return 0;
}
