// Lakehouse ETL walkthrough: the storage side of the paper's stack (§2).
//
//   1. create a Delta table over the (simulated) object store;
//   2. append batches of raw event data as columnar files — each commit is
//      a new log version with per-file min/max statistics;
//   3. run a Photon query whose scan prunes files via those statistics
//      (data skipping) and row groups via chunk statistics;
//   4. time-travel to an earlier version;
//   5. compact small files with a Rewrite transaction.

#include <cstdio>

#include "common/rng.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "ops/file_scan.h"
#include "plan/logical_plan.h"
#include "storage/delta.h"

using namespace photon;

namespace {

Table MakeEvents(int64_t day_lo, int64_t day_hi, int rows, uint64_t seed) {
  Schema schema({Field("event_day", DataType::Int64()),
                 Field("user_id", DataType::Int64()),
                 Field("action", DataType::String()),
                 Field("amount", DataType::Decimal(12, 2))});
  TableBuilder builder(schema);
  Rng rng(seed);
  const char* actions[] = {"view", "click", "purchase", "refund"};
  for (int i = 0; i < rows; i++) {
    builder.AppendRow(
        {Value::Int64(rng.Uniform(day_lo, day_hi)),
         Value::Int64(rng.Uniform(1, 5000)),
         Value::String(actions[rng.Uniform(0, 3)]),
         Value::Decimal(Decimal128::FromInt64(rng.Uniform(99, 50000)))});
  }
  return builder.Finish();
}

}  // namespace

int main() {
  ObjectStore store;
  Schema schema = MakeEvents(0, 1, 1, 0).schema();

  // 1. Create the table.
  auto table = DeltaTable::Create(&store, "warehouse/events", schema);
  PHOTON_CHECK(table.ok());
  std::printf("created delta table at warehouse/events\n");

  // 2. Ingest three daily batches; each lands in its own file whose stats
  //    record the day range it covers (well-clustered by event_day).
  for (int day = 0; day < 3; day++) {
    Result<int64_t> version =
        (*table)->Append(MakeEvents(day * 10, day * 10 + 9, 20000, day + 1));
    PHOTON_CHECK(version.ok());
    std::printf("  committed version %lld (days %d..%d)\n",
                static_cast<long long>(*version), day * 10, day * 10 + 9);
  }

  // 3. Query one day: the scan prunes two of the three files by stats.
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  PHOTON_CHECK(snap.ok());
  ExprPtr day_filter = eb::And(
      eb::Ge(eb::Col(0, DataType::Int64(), "event_day"), eb::Lit(int64_t{12})),
      eb::Le(eb::Col(0, DataType::Int64(), "event_day"),
             eb::Lit(int64_t{14})));
  plan::PlanPtr scan =
      plan::DeltaScan(&store, *snap, /*columns=*/{}, day_filter);
  plan::PlanPtr agg = plan::Aggregate(
      scan, {plan::ColOf(scan, "action")}, {"action"},
      {AggregateSpec{AggKind::kCountStar, nullptr, "events"},
       AggregateSpec{AggKind::kSum, plan::ColOf(scan, "amount"), "total"}});
  agg = plan::Sort(agg, {SortKey{plan::ColOf(agg, "action"), true, true}});

  exec::Driver driver(1);
  Result<Table> result = driver.RunSingleTask(agg);
  PHOTON_CHECK(result.ok());
  std::printf("\nquery: events for days 12..14, grouped by action\n");
  std::printf("  (files pruned by min/max stats: %zu of %zu survive)\n",
              DeltaTable::PruneFiles(*snap, day_filter).size(),
              snap->files.size());
  for (const auto& row : result->ToRows()) {
    std::printf("  %-10s %8lld  %12s\n", row[0].str().c_str(),
                static_cast<long long>(row[1].i64()),
                row[2].decimal().ToString(2).c_str());
  }

  // 4. Time travel: version 1 only has day 0-9 data.
  Result<DeltaSnapshot> old_snap = (*table)->Snapshot(1);
  PHOTON_CHECK(old_snap.ok());
  std::printf("\ntime travel to version 1: %lld rows (latest has %lld)\n",
              static_cast<long long>(old_snap->num_rows()),
              static_cast<long long>(snap->num_rows()));

  // 5. Compaction: rewrite all current files into one.
  plan::PlanPtr full = plan::DeltaScan(&store, *snap);
  Result<Table> everything = driver.RunSingleTask(full);
  PHOTON_CHECK(everything.ok());
  std::vector<std::string> old_keys;
  for (const DeltaFileEntry& f : snap->files) old_keys.push_back(f.key);
  Result<int64_t> compacted = (*table)->Rewrite(old_keys, *everything);
  PHOTON_CHECK(compacted.ok());
  Result<DeltaSnapshot> after = (*table)->Snapshot();
  PHOTON_CHECK(after.ok());
  std::printf("compacted %zu files into %zu at version %lld (%lld rows)\n",
              old_keys.size(), after->files.size(),
              static_cast<long long>(*compacted),
              static_cast<long long>(after->num_rows()));
  return 0;
}
