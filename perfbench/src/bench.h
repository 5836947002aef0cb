// Shared pieces of the repository benchmark: run options, the result a
// workload reports, timing and statistics helpers, the result checksum,
// process resource usage, and the per-layer accumulator that turns
// QueryProfiles and StageInfos into the traced run's layer metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "exec/driver.h"
#include "io/block_cache.h"
#include "obs/profile.h"
#include "sql/catalog.h"
#include "storage/object_store.h"
#include "vector/table.h"

namespace perfbench {

/// Command-line options of one benchmark process.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: spans, profiles and allocation counts on (alternating
  /// with untraced segments, so the run also measures its own overhead).
  bool trace = false;
  /// Tiny scale for the benchmark's self-test.
  bool tiny = false;
  /// Self-test hook: perturb one reference checksum, so the run must fail.
  bool corrupt_reference = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// What one workload run reports. `metrics` holds raw values by metric
/// name; run.py attaches the units declared in BENCHMARK.json.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  /// Free-form facts printed beside the metrics (sample counts, sizes).
  std::vector<std::pair<std::string, double>> notes;

  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Note(const std::string& name, double value) {
    notes.emplace_back(name, value);
  }
  /// Counts one failed operation and says why on stderr.
  void Fail(const std::string& why);
};

using photon::bench::Ms;
using photon::bench::NowNs;
/// Order-insensitive content checksum of a result; doubles print at %g
/// precision, so reassociated float sums from a different plan or thread
/// count still agree.
using photon::bench::TableChecksum;

double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
double Geomean(const std::vector<double>& v);

/// Whole-process CPU time (user + sys) in seconds.
double ProcessCpuSeconds();
/// Starts a new peak-resident-set window: returns the heap that set-up
/// freed to the OS (malloc_trim) and resets the kernel's high-water mark
/// (/proc/self/clear_refs), so PeakRssMb() covers only what follows.
/// False when the mark cannot be reset.
bool ResetPeakRss();
/// Peak resident set in MB since the last ResetPeakRss() (VmHWM), or -1
/// when it cannot be read.
double PeakRssMb();

/// Heap allocations counted by the traced binary's replaced operator new
/// while counting is on; always 0 in the untraced binary.
void SetAllocCounting(bool on);
int64_t AllocCount();
/// While alive, allocations on the constructing thread are not counted:
/// wraps the benchmark's own bookkeeping (result checks, input generation).
class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;
};

/// One read query the way every workload runs it: SQL text through
/// sql::CompileSql, then opt::Optimize, then one Driver::Run, each call in
/// its own span (the caller opens the request's root span). `stages` and
/// `profile` turn on the driver's profile (traced segments only).
photon::Result<photon::Table> ExecuteSql(
    const std::string& sql, const photon::sql::Catalog& catalog,
    photon::exec::Driver* driver, const photon::ExecContext& ctx,
    std::vector<photon::exec::StageInfo>* stages = nullptr,
    photon::obs::QueryProfile* profile = nullptr);

/// Process-wide counters read at segment boundaries; a traced run sums
/// the differences over its traced segments.
struct Counters {
  int64_t store_gets = 0, store_puts = 0;
  int64_t store_bytes_written = 0, store_bytes_read = 0;
  int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  int64_t allocs = 0;
  double cpu_s = 0;

  static Counters Read(const photon::ObjectStore& store,
                       const photon::io::BlockCache& cache);
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
  /// Writes the io.cache_* and store.* metrics, per client operation.
  void Emit(int64_t operations, RunResult* out) const;
};

/// Sums the traced queries' per-layer counters. Fed from QueryProfiles
/// (every workload) and StageInfo lists (where the benchmark calls
/// Driver::Run itself).
class LayerTotals {
 public:
  void AddProfile(const photon::obs::QueryProfile& profile);
  void AddStages(const std::vector<photon::exec::StageInfo>& stages,
                 int64_t run_wall_ns, int workers);
  /// Worker utilization measured outside the driver (the service hides
  /// its StageInfos); replaces the per-run StageInfo average.
  void SetCpuUtil(double util);
  /// Writes the ops/expr/memory/io/exec metrics, per traced query.
  void Emit(int64_t queries, RunResult* out) const;
  int64_t rows_scanned() const { return rows_scanned_; }

 private:
  void AddNode(const photon::obs::ProfileNode& node);

  // Self wall time (ns, summed over tasks) per operator kind.
  int64_t scan_ns_ = 0, filter_project_ns_ = 0, agg_ns_ = 0, join_ns_ = 0,
          sort_ns_ = 0;
  int64_t rows_out_ = 0, batch_rows_ = 0;
  int64_t fused_batches_ = 0, compiled_batches_ = 0;
  int64_t scratch_hits_ = 0, scratch_misses_ = 0;
  int64_t peak_reserved_ = 0, reserve_wait_ns_ = 0, spill_bytes_ = 0;
  int64_t bytes_read_ = 0, prefetch_wait_ns_ = 0, row_groups_skipped_ = 0,
          files_pruned_ = 0;
  int64_t rows_scanned_ = 0;
  // exec (driver) layer: from StageInfos when the benchmark calls
  // Driver::Run itself, else derived from the profile's stage ids.
  bool has_stage_infos_ = false;
  int64_t stages_ = 0, serial_stage_ns_ = 0;
  double cpu_util_sum_ = 0;
  int64_t cpu_util_samples_ = 0;
};

RunResult RunTpchPower(const Options& options);
RunResult RunServiceMix(const Options& options);
RunResult RunLakehouseMerge(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
