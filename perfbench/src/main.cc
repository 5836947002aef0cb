// Benchmark driver binary. Runs one workload and prints, as the last line
// of standard output, one JSON object: correct / attempted / failed, the
// metric values by name, free-form notes and the build record. run.py
// builds this binary, attaches units from BENCHMARK.json and prints the
// final result line.
//
// Usage: photon_perf --workload tpch_power|service_mix|lakehouse_merge
//                    [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//                    [--corrupt-reference] [--trace-out PATH]
// Exit code: 0 when every operation succeeded and matched its reference,
// 1 when any failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/json_writer.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      o->trace_out = argv[++i];
    } else if (arg == "--tiny") {
      o->tiny = true;
    } else if (arg == "--corrupt-reference") {
      o->corrupt_reference = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", argv[i]);
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

/// Numbers keep all their digits (JsonWriter's own doubles keep four).
std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintJson(const perfbench::RunResult& r) {
  photon::JsonWriter w;
  w.BeginObject();
  w.Raw("correct", r.failed == 0 ? "true" : "false");
  w.Field("attempted", r.attempted);
  w.Field("failed", r.failed);
  auto numbers = [&w](const std::string& key,
                      const std::vector<std::pair<std::string, double>>& entries) {
    w.BeginObject(key);
    for (const auto& [name, value] : entries) w.Raw(name, Number(value));
    w.EndObject();
  };
  numbers("metrics", r.metrics);
  numbers("notes", r.notes);
  w.BeginObject("build");
  w.Field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  w.Field("compiler", std::string(PERFBENCH_COMPILER));
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: photon_perf --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--tiny] [--corrupt-reference] "
                 "[--trace-out PATH]\n");
    return 2;
  }
  perfbench::RunResult result;
  if (options.workload == "tpch_power") {
    result = perfbench::RunTpchPower(options);
  } else if (options.workload == "service_mix") {
    result = perfbench::RunServiceMix(options);
  } else if (options.workload == "lakehouse_merge") {
    result = perfbench::RunLakehouseMerge(options);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  PrintJson(result);
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
