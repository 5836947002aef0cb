// Partial rollout (§3.5, §5.1, §5.2): the same query executed three ways.
//
//   1. pure legacy engine (row-at-a-time Volcano, like pre-Photon DBR);
//   2. mixed plan where the conversion rule stops at an "unsupported"
//      aggregate: scan+filter run in Photon, a transition node pivots to
//      rows, and the aggregate runs in the legacy engine;
//   3. full Photon with one final transition at the top.
//
// All three produce identical results — Photon rolls out operator by
// operator without changing query answers (checked below, as sorted rows)
// — and the timing shows the speedup arriving incrementally.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "expr/builder.h"
#include "plan/converter.h"

using namespace photon;

namespace {

Table MakeData(int64_t rows) {
  Schema schema({Field("region", DataType::Int64()),
                 Field("value", DataType::Int64()),
                 Field("tag", DataType::String())});
  TableBuilder builder(schema);
  Rng rng(3);
  for (int64_t i = 0; i < rows; i++) {
    builder.AppendRow({Value::Int64(rng.Uniform(0, 40)),
                       Value::Int64(rng.Uniform(0, 1000)),
                       Value::String(rng.NextAsciiString(10))});
  }
  return builder.Finish();
}

using Rows = std::vector<std::vector<Value>>;

/// Drains `root`, returning its rows sorted (the aggregate's group order
/// differs between engines) and the elapsed milliseconds.
long long RunMs(baseline::RowOperator* root, Rows* rows_out) {
  auto t0 = std::chrono::steady_clock::now();
  Result<Table> result = baseline::CollectAllRows(root);
  PHOTON_CHECK(result.ok());
  long long ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  *rows_out = result->ToRows();
  std::sort(rows_out->begin(), rows_out->end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size(); i++) {
                int c = a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });
  return ms;
}

}  // namespace

int main() {
  Table data = MakeData(2000000);
  plan::PlanPtr p = plan::Scan(&data);
  p = plan::Filter(p, eb::Lt(plan::ColOf(p, "value"), eb::Lit(int64_t{800})));
  p = plan::Project(
      p,
      {plan::ColOf(p, "region"),
       eb::Call("upper", {plan::ColOf(p, "tag")}), plan::ColOf(p, "value")},
      {"region", "TAG", "value"});
  p = plan::Aggregate(p, {plan::ColOf(p, "region")}, {"region"},
                      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "value"),
                                     "total"},
                       AggregateSpec{AggKind::kCountStar, nullptr, "n"}});

  Rows legacy_rows;
  Rows mixed_rows;
  Rows full_rows;

  // 1. Pure legacy.
  auto legacy = plan::ConvertPlan(
      p, {}, [](const plan::PlanNode&) { return false; });
  PHOTON_CHECK(legacy.ok());
  long long legacy_ms = RunMs(legacy->root.get(), &legacy_rows);
  std::printf("legacy engine only:    %6lld ms  (%lld groups; %d photon "
              "nodes, %d legacy nodes)\n",
              legacy_ms, static_cast<long long>(legacy_rows.size()),
              legacy->photon_nodes, legacy->legacy_nodes);

  // 2. Mixed: aggregate "not yet supported" in Photon.
  auto mixed = plan::ConvertPlan(p, {}, [](const plan::PlanNode& node) {
    return node.kind != plan::PlanKind::kAggregate;
  });
  PHOTON_CHECK(mixed.ok());
  long long mixed_ms = RunMs(mixed->root.get(), &mixed_rows);
  std::printf("mixed (partial rollout):%5lld ms  (%d photon nodes, %d "
              "legacy, %d transitions, %d adapters)\n",
              mixed_ms, mixed->photon_nodes, mixed->legacy_nodes,
              mixed->transitions, mixed->adapters);

  // 3. Full Photon.
  auto full = plan::ConvertPlan(p);
  PHOTON_CHECK(full.ok());
  long long full_ms = RunMs(full->root.get(), &full_rows);
  std::printf("full photon:           %6lld ms  (%d photon nodes, %d "
              "transitions)\n",
              full_ms, full->photon_nodes, full->transitions);

  PHOTON_CHECK(mixed_rows == legacy_rows);
  PHOTON_CHECK(full_rows == legacy_rows);
  std::printf("\nspeedup so far: mixed %.2fx, full %.2fx — and every stage "
              "returned identical results\n",
              static_cast<double>(legacy_ms) / mixed_ms,
              static_cast<double>(legacy_ms) / full_ms);
  return 0;
}
