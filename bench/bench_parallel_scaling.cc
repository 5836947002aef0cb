// Thread scaling of the morsel-parallel driver: every TPC-H query at
// 1/2/4/8 worker threads, each verified against the single-task
// reference. The paper's Photon scales by running one single-threaded
// task per core under the DBR driver (§2.2, Figure 1); this bench is the
// miniature equivalent — one Driver, one scheduler task per morsel, and
// parallel breakers: partial aggregates with hash-partitioned final
// merges, partitioned join builds, sorted runs with a k-way merge.
//
// Usage: bench_parallel_scaling [sf] [--sf F] [--json PATH]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

int main(int argc, char** argv) {
  using namespace photon;
  double sf = 0.05;
  if (argc > 1 && argv[1][0] != '-') sf = std::atof(argv[1]);
  if (const char* v = bench::FlagValue(argc, argv, "--sf")) sf = std::atof(v);
  const char* json_path = bench::FlagValue(argc, argv, "--json");

  const int kThreads[] = {1, 2, 4, 8};
  constexpr int kNumConfigs = 4;

  std::printf("Parallel scaling: TPC-H SF=%.3f through Driver::Run\n", sf);
  tpch::TpchData data = tpch::GenerateTpch(sf);
  std::printf("  lineitem rows: %lld\n",
              static_cast<long long>(data.lineitem.num_rows()));
  std::printf("  %4s %10s %10s %10s %10s %9s %8s\n", "Q", "1t (ms)",
              "2t (ms)", "4t (ms)", "8t (ms)", "8t-spdup", "rows");

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("parallel_scaling"));
  json.Field("sf", sf);
  json.BeginArray("queries");

  double log_sum[kNumConfigs] = {0, 0, 0, 0};
  int count = 0;
  int mismatches = 0;
  for (int q = 1; q <= 22; q++) {
    Result<plan::PlanPtr> p = tpch::TpchQuery(q, data, sf);
    PHOTON_CHECK(p.ok());

    exec::Driver reference(1);
    int64_t ref_rows = 0;
    uint64_t ref_checksum = 0;
    int64_t base_ns = bench::BestOf(2, [&] {
      return bench::TimeSingleTask(&reference, *p, &ref_rows, &ref_checksum);
    });

    int64_t ns[kNumConfigs];
    for (int c = 0; c < kNumConfigs; c++) {
      exec::Driver driver(kThreads[c]);
      int64_t rows = 0;
      uint64_t checksum = 0;
      ns[c] = bench::BestOf(
          2, [&] { return bench::TimeDriver(&driver, *p, &rows, &checksum); });
      if (rows != ref_rows || checksum != ref_checksum) {
        std::printf("  Q%d @%dt MISMATCH: %lld rows (single-task %lld)\n", q,
                    kThreads[c], static_cast<long long>(rows),
                    static_cast<long long>(ref_rows));
        mismatches++;
      }
      log_sum[c] += std::log(static_cast<double>(base_ns) / ns[c]);
    }
    std::printf("  %4d %10.1f %10.1f %10.1f %10.1f %8.2fx %8lld\n", q,
                bench::Ms(ns[0]), bench::Ms(ns[1]), bench::Ms(ns[2]),
                bench::Ms(ns[3]),
                static_cast<double>(base_ns) / ns[kNumConfigs - 1],
                static_cast<long long>(ref_rows));

    json.BeginObject();
    json.Field("q", q);
    json.Field("single_task_ms", bench::Ms(base_ns));
    json.Field("rows", ref_rows);
    json.BeginArray("threads");
    for (int c = 0; c < kNumConfigs; c++) {
      json.BeginObject();
      json.Field("n", kThreads[c]);
      json.Field("ms", bench::Ms(ns[c]));
      json.Field("speedup", static_cast<double>(base_ns) / ns[c]);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    count++;
  }

  std::printf("  geomean speedup vs single task:");
  json.EndArray();
  json.BeginArray("geomean_speedups");
  for (int c = 0; c < kNumConfigs; c++) {
    double g = std::exp(log_sum[c] / count);
    std::printf("  %dt=%.2fx", kThreads[c], g);
    json.BeginObject();
    json.Field("n", kThreads[c]);
    json.Field("speedup", g);
    json.EndObject();
  }
  std::printf("\n");
  json.EndArray();
  json.Field("mismatches", mismatches);
  json.EndObject();
  if (mismatches > 0) {
    std::printf("  %d runs MISMATCHED the single-task reference\n",
                mismatches);
  }
  if (json_path != nullptr) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
    std::printf("  wrote %s\n", json_path);
  }
  return mismatches == 0 ? 0 : 1;
}
