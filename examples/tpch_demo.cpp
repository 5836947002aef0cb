// Runs a TPC-H query end to end on generated data, in both engines, and
// prints the result rows plus per-engine timings. Usage:
//
//   tpch_demo [query=1] [scale_factor=0.01]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "exec/driver.h"
#include "plan/logical_plan.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

using namespace photon;

int main(int argc, char** argv) {
  int q = argc > 1 ? std::atoi(argv[1]) : 1;
  double sf = argc > 2 ? std::atof(argv[2]) : 0.01;

  std::printf("generating TPC-H data at SF=%.3f...\n", sf);
  tpch::TpchData data = tpch::GenerateTpch(sf);
  std::printf("  lineitem: %lld rows, orders: %lld rows\n",
              static_cast<long long>(data.lineitem.num_rows()),
              static_cast<long long>(data.orders.num_rows()));

  Result<plan::PlanPtr> p = tpch::TpchQuery(q, data, sf);
  PHOTON_CHECK(p.ok());
  std::printf("\nQ%d plan:\n%s\n", q, (*p)->ToString(1).c_str());

  exec::Driver driver(1);
  auto t0 = std::chrono::steady_clock::now();
  Result<Table> photon_result = driver.RunSingleTask(*p);
  PHOTON_CHECK(photon_result.ok());
  auto photon_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  t0 = std::chrono::steady_clock::now();
  Result<baseline::RowOperatorPtr> base_op = plan::CompileBaseline(*p);
  PHOTON_CHECK(base_op.ok());
  Result<Table> base_result = baseline::CollectAllRows(base_op->get());
  PHOTON_CHECK(base_result.ok());
  auto dbr_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  // Print up to 10 result rows.
  const Schema& schema = photon_result->schema();
  std::printf("result (%lld rows):\n",
              static_cast<long long>(photon_result->num_rows()));
  for (int c = 0; c < schema.num_fields(); c++) {
    std::printf("%-20s", schema.field(c).name.c_str());
  }
  std::printf("\n");
  int64_t shown = std::min<int64_t>(photon_result->num_rows(), 10);
  for (int64_t r = 0; r < shown; r++) {
    std::vector<Value> row = photon_result->GetRow(r);
    for (int c = 0; c < schema.num_fields(); c++) {
      std::printf("%-20s",
                  row[c].ToString(schema.field(c).type).substr(0, 19).c_str());
    }
    std::printf("\n");
  }
  if (photon_result->num_rows() > shown) std::printf("...\n");

  std::printf("\nPhoton: %lld ms | baseline: %lld ms | speedup %.2fx | "
              "rows equal: %s\n",
              static_cast<long long>(photon_ms),
              static_cast<long long>(dbr_ms),
              photon_ms > 0 ? static_cast<double>(dbr_ms) / photon_ms : 0.0,
              photon_result->num_rows() == base_result->num_rows() ? "yes"
                                                                   : "NO");
  return 0;
}
