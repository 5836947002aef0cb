#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "opt/optimizer.h"
#include "sql/analyzer.h"
#include "trace.h"

namespace perfbench {

using photon::obs::Metric;

void RunResult::Fail(const std::string& why) {
  failed++;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5 = reset the peak RSS to the current RSS
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return -1;
}

#ifndef PERFBENCH_COUNT_ALLOCS
void SetAllocCounting(bool) {}
int64_t AllocCount() { return 0; }
UncountedScope::UncountedScope() {}
UncountedScope::~UncountedScope() {}
#endif

photon::Result<photon::Table> ExecuteSql(
    const std::string& sql, const photon::sql::Catalog& catalog,
    photon::exec::Driver* driver, const photon::ExecContext& ctx,
    std::vector<photon::exec::StageInfo>* stages,
    photon::obs::QueryProfile* profile) {
  photon::Result<photon::plan::PlanPtr> compiled = [&] {
    trace::Span span("sql.compile");
    return photon::sql::CompileSql(sql, catalog);
  }();
  if (!compiled.ok()) return compiled.status();
  photon::plan::PlanPtr optimized = [&] {
    trace::Span span("opt.optimize");
    return photon::opt::Optimize(*compiled);
  }();
  trace::Span span("exec.run");
  return driver->Run(optimized, ctx, stages, profile);
}

Counters Counters::Read(const photon::ObjectStore& store,
                        const photon::io::BlockCache& cache) {
  Counters c;
  c.store_gets = store.num_gets();
  c.store_puts = store.num_puts();
  c.store_bytes_written = store.bytes_written();
  c.store_bytes_read = store.bytes_read();
  photon::io::BlockCache::Stats cs = cache.stats();
  c.cache_hits = cs.hits;
  c.cache_misses = cs.misses;
  c.cache_evictions = cs.evictions;
  c.allocs = AllocCount();
  c.cpu_s = ProcessCpuSeconds();
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.store_gets -= o.store_gets;
  d.store_puts -= o.store_puts;
  d.store_bytes_written -= o.store_bytes_written;
  d.store_bytes_read -= o.store_bytes_read;
  d.cache_hits -= o.cache_hits;
  d.cache_misses -= o.cache_misses;
  d.cache_evictions -= o.cache_evictions;
  d.allocs -= o.allocs;
  d.cpu_s -= o.cpu_s;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  store_gets += o.store_gets;
  store_puts += o.store_puts;
  store_bytes_written += o.store_bytes_written;
  store_bytes_read += o.store_bytes_read;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  allocs += o.allocs;
  cpu_s += o.cpu_s;
  return *this;
}

void Counters::Emit(int64_t operations, RunResult* out) const {
  const double n = static_cast<double>(std::max<int64_t>(operations, 1));
  const double mb = 1 << 20;
  int64_t lookups = cache_hits + cache_misses;
  out->Set("io.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0);
  out->Set("io.cache_evictions", static_cast<double>(cache_evictions) / n);
  out->Set("store.gets", static_cast<double>(store_gets) / n);
  out->Set("store.puts", static_cast<double>(store_puts) / n);
  out->Set("store.bytes_written_mb",
           static_cast<double>(store_bytes_written) / mb / n);
  out->Set("store.bytes_read_mb", static_cast<double>(store_bytes_read) / mb / n);
}

// --- per-layer accumulation --------------------------------------------------

namespace {

enum class OpKind { kScan, kFilterProject, kAgg, kJoin, kSort, kOther };

/// Profile node names are the driver's labels (exec/driver.cc).
OpKind KindOf(const std::string& name) {
  if (name == "DeltaScan" || name == "TableScan" || name == "StageScan") {
    return OpKind::kScan;
  }
  if (name == "Filter" || name == "Project" || name == "FusedFilterProject") {
    return OpKind::kFilterProject;
  }
  if (name.rfind("HashAggregate", 0) == 0) return OpKind::kAgg;
  if (name == "HashJoin") return OpKind::kJoin;
  if (name == "Sort" || name == "SortMerge") return OpKind::kSort;
  return OpKind::kOther;
}

/// Stage ids and, per stage, whether every node ran as a single task and
/// the stage's wall time (its top node's GetNext wall includes the rest).
struct StageShape {
  int max_tasks = 0;
  int64_t wall_ns = 0;
};

void CollectStages(const photon::obs::ProfileNode& node,
                   std::map<int, StageShape>* stages) {
  if (node.stage_id >= 0) {
    StageShape& s = (*stages)[node.stage_id];
    s.max_tasks = std::max(s.max_tasks, node.num_tasks);
    s.wall_ns = std::max(s.wall_ns, node.metrics[static_cast<int>(
                                        Metric::kWallNs)].max);
  }
  for (const auto& child : node.children) CollectStages(child, stages);
}

}  // namespace

void LayerTotals::AddNode(const photon::obs::ProfileNode& node) {
  // A node's GetNext wall includes its streaming children in the same
  // stage; children in other stages (join builds, the partial side of a
  // final aggregate) ran before it and are not part of its wall.
  int64_t self = node.Sum(Metric::kWallNs);
  for (const auto& child : node.children) {
    if (child.stage_id == node.stage_id) self -= child.Sum(Metric::kWallNs);
  }
  self = std::max<int64_t>(self, 0);
  switch (KindOf(node.name)) {
    case OpKind::kScan:
      scan_ns_ += self;
      // Rows decoded, before any pushed-down predicate drops them.
      if (node.name != "StageScan") {
        rows_scanned_ += std::max(node.Sum(Metric::kBatchRows),
                                  node.Sum(Metric::kRowsOut));
      }
      break;
    case OpKind::kFilterProject:
      filter_project_ns_ += self;
      break;
    case OpKind::kAgg:
      agg_ns_ += self;
      break;
    case OpKind::kJoin:
      join_ns_ += self;
      break;
    case OpKind::kSort:
      sort_ns_ += self;
      break;
    case OpKind::kOther:
      break;
  }
  rows_out_ += node.Sum(Metric::kRowsOut);
  batch_rows_ += node.Sum(Metric::kBatchRows);
  fused_batches_ += node.Sum(Metric::kExprFusedBatches);
  compiled_batches_ += node.Sum(Metric::kExprCompiledBatches);
  scratch_hits_ += node.Sum(Metric::kScratchPoolHits);
  scratch_misses_ += node.Sum(Metric::kScratchPoolMisses);
  peak_reserved_ = std::max(peak_reserved_, node.Sum(Metric::kPeakReservedBytes));
  reserve_wait_ns_ += node.Sum(Metric::kReserveWaitNs);
  spill_bytes_ += node.Sum(Metric::kSpillBytes);
  bytes_read_ += node.Sum(Metric::kBytesRead);
  prefetch_wait_ns_ += node.Sum(Metric::kPrefetchWaitNs);
  row_groups_skipped_ += node.Sum(Metric::kRowGroupsSkipped);
  files_pruned_ += node.Sum(Metric::kFilesPruned);
  for (const auto& child : node.children) AddNode(child);
}

void LayerTotals::AddProfile(const photon::obs::QueryProfile& profile) {
  AddNode(profile.root);
  if (has_stage_infos_) return;
  std::map<int, StageShape> stages;
  CollectStages(profile.root, &stages);
  stages_ += static_cast<int64_t>(stages.size());
  for (const auto& [id, shape] : stages) {
    if (shape.max_tasks <= 1) serial_stage_ns_ += shape.wall_ns;
  }
}

void LayerTotals::AddStages(const std::vector<photon::exec::StageInfo>& stages,
                            int64_t run_wall_ns, int workers) {
  has_stage_infos_ = true;
  int64_t cpu_ns = 0;
  for (const photon::exec::StageInfo& s : stages) {
    stages_++;
    if (s.num_tasks <= 1) serial_stage_ns_ += s.wall_ns();
    cpu_ns += s.cpu_ns();
  }
  if (run_wall_ns > 0 && workers > 0) {
    cpu_util_sum_ += static_cast<double>(cpu_ns) /
                     (static_cast<double>(run_wall_ns) * workers);
    cpu_util_samples_++;
  }
}

void LayerTotals::SetCpuUtil(double util) {
  cpu_util_sum_ = util;
  cpu_util_samples_ = 1;
}

void LayerTotals::Emit(int64_t queries, RunResult* out) const {
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  out->Set("exec.stages_per_query", static_cast<double>(stages_) / n);
  out->Set("exec.serial_stage_ms", Ms(serial_stage_ns_) / n);
  out->Set("exec.cpu_util",
           cpu_util_samples_ > 0 ? cpu_util_sum_ / cpu_util_samples_ : 0.0);
  out->Set("ops.scan_ms", Ms(scan_ns_) / n);
  out->Set("ops.filter_project_ms", Ms(filter_project_ns_) / n);
  out->Set("ops.agg_ms", Ms(agg_ns_) / n);
  out->Set("ops.join_ms", Ms(join_ns_) / n);
  out->Set("ops.sort_ms", Ms(sort_ns_) / n);
  out->Set("ops.active_row_frac", ratio(rows_out_, batch_rows_));
  out->Set("expr.compiled_batch_frac",
           ratio(compiled_batches_, fused_batches_ + compiled_batches_));
  out->Set("expr.scratch_hit_ratio",
           ratio(scratch_hits_, scratch_hits_ + scratch_misses_));
  out->Set("memory.peak_reserved_mb",
           static_cast<double>(peak_reserved_) / (1 << 20));
  out->Set("memory.reserve_wait_ms", Ms(reserve_wait_ns_) / n);
  out->Set("memory.spill_bytes", static_cast<double>(spill_bytes_) / n);
  out->Set("io.bytes_read_mb", static_cast<double>(bytes_read_) / (1 << 20) / n);
  out->Set("io.prefetch_wait_ms", Ms(prefetch_wait_ns_) / n);
  out->Set("io.row_groups_skipped", static_cast<double>(row_groups_skipped_) / n);
  out->Set("io.files_pruned", static_cast<double>(files_pruned_) / n);
}

}  // namespace perfbench
