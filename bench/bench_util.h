#ifndef PHOTON_BENCH_BENCH_UTIL_H_
#define PHOTON_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/row_operator.h"
#include "common/json_writer.h"
#include "exec/driver.h"
#include "ops/operator.h"
#include "plan/logical_plan.h"
#include "vector/table.h"

namespace photon {
namespace bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock for one baseline execution of the same plan.
inline int64_t TimeBaseline(
    const plan::PlanPtr& p, int64_t* rows = nullptr,
    plan::BaselineJoinImpl join = plan::BaselineJoinImpl::kSortMerge) {
  Result<baseline::RowOperatorPtr> op = plan::CompileBaseline(p, join);
  PHOTON_CHECK(op.ok());
  int64_t t0 = NowNs();
  Result<Table> result = baseline::CollectAllRows(op->get());
  int64_t elapsed = NowNs() - t0;
  PHOTON_CHECK(result.ok());
  if (rows != nullptr) *rows = result->num_rows();
  return elapsed;
}

inline uint64_t TableChecksum(const Table& t);  // defined below

/// Wall-clock for one morsel-parallel Driver::Run of a plan; the result's
/// row count and order-insensitive checksum are out-params for verifying
/// parallel runs against the single-task reference.
inline int64_t TimeDriver(exec::Driver* driver, const plan::PlanPtr& p,
                          int64_t* rows = nullptr,
                          uint64_t* checksum = nullptr,
                          const ExecContext& ctx = ExecContext()) {
  int64_t t0 = NowNs();
  Result<Table> result = driver->Run(p, ctx);
  int64_t elapsed = NowNs() - t0;
  PHOTON_CHECK(result.ok());
  if (rows != nullptr) *rows = result->num_rows();
  if (checksum != nullptr) *checksum = TableChecksum(*result);
  return elapsed;
}

/// Wall-clock for one single-task Driver run (the per-thread reference).
inline int64_t TimeSingleTask(exec::Driver* driver, const plan::PlanPtr& p,
                              int64_t* rows = nullptr,
                              uint64_t* checksum = nullptr,
                              const ExecContext& ctx = ExecContext()) {
  int64_t t0 = NowNs();
  Result<Table> result = driver->RunSingleTask(p, ctx);
  int64_t elapsed = NowNs() - t0;
  PHOTON_CHECK(result.ok());
  if (rows != nullptr) *rows = result->num_rows();
  if (checksum != nullptr) *checksum = TableChecksum(*result);
  return elapsed;
}

/// Wall-clock for one single-task Photon run of a plan, planning
/// included; result rows out-param.
inline int64_t TimePhoton(const plan::PlanPtr& p, int64_t* rows = nullptr) {
  exec::Driver driver(1);
  return TimeSingleTask(&driver, p, rows);
}

/// Best of `reps` runs (the paper reports minimum across runs, §6.2).
template <typename Fn>
int64_t BestOf(int reps, Fn&& fn) {
  int64_t best = INT64_MAX;
  for (int i = 0; i < reps; i++) {
    best = std::min(best, static_cast<int64_t>(fn()));
  }
  return best;
}

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Order-insensitive content checksum of a table: per-row FNV-1a over the
/// printed cell values, summed (commutative) across rows. Lets a bench
/// assert that a parallel run produced the same multiset of rows as the
/// single-task reference without sorting either side. Doubles print at %g
/// precision, so ulp-level differences from reassociated merges don't trip
/// the comparison.
inline uint64_t TableChecksum(const Table& t) {
  uint64_t sum = 0;
  for (const std::vector<Value>& row : t.ToRows()) {
    uint64_t h = 1469598103934665603ull;  // FNV offset basis
    for (const Value& v : row) {
      const std::string s = v.ToString();
      for (char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
      }
      h ^= '|';  // cell separator
      h *= 1099511628211ull;
    }
    sum += h;
  }
  return sum;
}

/// Returns the value following `--name` in argv, or `fallback` if absent.
inline const char* FlagValue(int argc, char** argv, const char* name,
                             const char* fallback = nullptr) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// True when the standalone flag `--name` appears anywhere in argv.
inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Bench results use the shared JSON emitter (also used by the profile
/// exporter in src/obs).
using photon::JsonWriter;

}  // namespace bench
}  // namespace photon

#endif  // PHOTON_BENCH_BENCH_UTIL_H_
