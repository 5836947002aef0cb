// The two TPC-H workloads over Delta tables (see README.md for why each
// exists):
//   tpch_power  — one client, the 22 queries in order, each through
//                 CompileSql → Optimize → one 4-worker Driver::Run; no
//                 store latency, a block cache that holds all the data.
//   service_mix — four closed-loop clients, each in its own seeded query
//                 order, submitting to one QueryService (optimizer on,
//                 admission capped below the client count); every GET pays
//                 a simulated S3-like latency and bandwidth and the cache
//                 holds a quarter of the stored bytes.
// Every result is checked against a reference computed once per process
// from the in-memory tables with the hand-built plans.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "bench.h"
#include "exec/thread_pool.h"
#include "memory/memory_manager.h"
#include "service/query_service.h"
#include "sql/analyzer.h"
#include "storage/delta.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"
#include "tpch/tpch_sql.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace photon;

constexpr int kNumQueries = 22;
constexpr int kWorkers = 4;
/// Set-up is repeated and its median reported, so one slow repetition
/// does not move setup_s.
constexpr int kSetupReps = 3;
/// Rows per Delta data file: lineitem at SF 0.1 becomes ~25 files, so
/// file-range morsels (two files each) keep four workers busy.
constexpr int64_t kRowsPerFile = 24576;
/// service_mix: a GET costs 5 ms to the first byte (the "single-digit
/// millisecond" latency quoted for S3 Express One Zone) plus its size at
/// the 200 MB/s of the repository's S3 model (bench/bench_io_cache.cc).
/// That model's 30 ms first byte leaves too few reads per run; see
/// README.md.
constexpr int64_t kServiceGetLatencyUs = 5000;
constexpr int64_t kServiceBandwidth = 200LL * 1024 * 1024;
constexpr int kServiceClients = 4;
constexpr int kServiceMaxRunning = 3;
/// tpch_power measures whole passes until --seconds have passed, but at
/// least this many, so a run holds over 200 reads even on a slow host.
constexpr int kMinPasses = 10;
/// Traced service runs alternate traced and untraced segments this long.
constexpr int64_t kTraceSegmentNs = 500'000'000;

double ScaleFactor(const Options& o) { return o.tiny ? 0.01 : 0.1; }

struct QueryRef {
  int64_t rows = 0;
  uint64_t checksum = 0;
};

/// The TPC-H tables generated in memory and loaded as Delta tables into
/// one object store.
struct TpchLake {
  std::unique_ptr<tpch::TpchData> data;
  std::unique_ptr<ObjectStore> store;
  std::vector<std::pair<std::string, std::unique_ptr<DeltaTable>>> tables;
};

Status LoadTable(ObjectStore* store, const std::string& name, const Table& t,
                 std::unique_ptr<DeltaTable>* out) {
  PHOTON_ASSIGN_OR_RETURN(std::unique_ptr<DeltaTable> table,
                          DeltaTable::Create(store, "tpch/" + name, t.schema()));
  const int batches_per_file =
      static_cast<int>(std::max<int64_t>(1, kRowsPerFile / kDefaultBatchSize));
  for (int b = 0; b < t.num_batches(); b += batches_per_file) {
    Table file(t.schema());
    for (int i = b; i < std::min(b + batches_per_file, t.num_batches()); i++) {
      file.AppendBatch(CompactBatch(t.batch(i)));
    }
    PHOTON_RETURN_NOT_OK(table->Append(file).status());
  }
  *out = std::move(table);
  return Status::OK();
}

Result<TpchLake> BuildLake(double sf, uint64_t seed,
                           ObjectStore::Options store_options) {
  TpchLake lake;
  lake.data = std::make_unique<tpch::TpchData>(tpch::GenerateTpch(sf, seed));
  lake.store = std::make_unique<ObjectStore>(store_options);
  const tpch::TpchData& d = *lake.data;
  const std::pair<const char*, const Table*> sources[] = {
      {"region", &d.region},     {"nation", &d.nation},
      {"supplier", &d.supplier}, {"customer", &d.customer},
      {"part", &d.part},         {"partsupp", &d.partsupp},
      {"orders", &d.orders},     {"lineitem", &d.lineitem}};
  for (const auto& [name, table] : sources) {
    std::unique_ptr<DeltaTable> delta;
    PHOTON_RETURN_NOT_OK(LoadTable(lake.store.get(), name, *table, &delta));
    lake.tables.emplace_back(name, std::move(delta));
  }
  return lake;
}

/// Everything a TPC-H workload needs once set up.
struct TpchEnv {
  double sf = 0;
  TpchLake lake;
  std::vector<QueryRef> refs;  // index q-1
  std::vector<std::string> sql;
  std::unique_ptr<io::BlockCache> cache;
  std::unique_ptr<ThreadPool> prefetch_pool;
  sql::Catalog catalog;
  std::vector<double> build_s;  // one per set-up repetition
  double reference_s = 0;
  int64_t stored_bytes = 0;
};

/// Generates and loads the lake kSetupReps times (keeping the last), then
/// computes the reference answers and binds the catalog. The reference is
/// timed apart from set-up.
Status SetUp(const Options& options, ObjectStore::Options store_options,
             double cache_share, TpchEnv* env) {
  env->sf = ScaleFactor(options);
  for (int rep = 0; rep < kSetupReps; rep++) {
    env->lake = TpchLake();
    int64_t t0 = NowNs();
    PHOTON_ASSIGN_OR_RETURN(env->lake,
                            BuildLake(env->sf, options.seed, store_options));
    env->build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  env->stored_bytes = env->lake.store->bytes_written();

  int64_t r0 = NowNs();
  exec::Driver reference(1, 1);
  for (int q = 1; q <= kNumQueries; q++) {
    PHOTON_ASSIGN_OR_RETURN(plan::PlanPtr p,
                            tpch::TpchQuery(q, *env->lake.data, env->sf));
    PHOTON_ASSIGN_OR_RETURN(Table t, reference.RunSingleTask(p));
    env->refs.push_back({t.num_rows(), TableChecksum(t)});
  }
  if (options.corrupt_reference) env->refs[0].checksum ^= 1;
  env->reference_s = static_cast<double>(NowNs() - r0) / 1e9;
  // The in-memory tables served only the reference; the workload reads
  // the Delta copies.
  env->lake.data.reset();

  int64_t t0 = NowNs();
  io::BlockCache::Options cache_options;
  cache_options.capacity_bytes = std::max<int64_t>(
      static_cast<int64_t>(static_cast<double>(env->stored_bytes) * cache_share),
      1 << 20);
  env->cache = std::make_unique<io::BlockCache>(cache_options);
  // The driver swaps in its own IO pool for scan read-aheads; a non-null
  // pool here is what turns prefetch on.
  env->prefetch_pool = std::make_unique<ThreadPool>(1);
  io::IoOptions io;
  io.cache = env->cache.get();
  io.prefetch_pool = env->prefetch_pool.get();
  for (const auto& [name, table] : env->lake.tables) {
    PHOTON_RETURN_NOT_OK(env->catalog.RegisterDeltaTable(name, table.get(), io));
  }
  for (int q = 1; q <= kNumQueries; q++) {
    PHOTON_ASSIGN_OR_RETURN(std::string text, tpch::TpchSqlText(q, env->sf));
    env->sql.push_back(std::move(text));
  }
  env->build_s.back() += static_cast<double>(NowNs() - t0) / 1e9;
  return Status::OK();
}

/// Checks one query's outcome against its reference: "" when it matches,
/// else what went wrong.
std::string Check(int q, const Status& status, const Table* out,
                  const TpchEnv& env) {
  if (!status.ok()) return "Q" + std::to_string(q) + ": " + status.ToString();
  const QueryRef& ref = env.refs[q - 1];
  if (out->num_rows() != ref.rows || TableChecksum(*out) != ref.checksum) {
    return "Q" + std::to_string(q) + ": result differs from the reference (" +
           std::to_string(out->num_rows()) + " rows, " +
           std::to_string(ref.rows) + " expected)";
  }
  return "";
}

int64_t LogVersions(const TpchEnv& env) {
  int64_t versions = 0;
  for (const auto& [name, table] : env.lake.tables) {
    Result<int64_t> v = table->LatestVersion();
    if (v.ok()) versions += *v;
  }
  return versions;
}

/// Per-query latency samples, split by whether the query ran traced.
struct Samples {
  std::vector<std::vector<double>> ms[2];  // [traced][q-1]
  Samples() {
    for (auto& s : ms) s.resize(kNumQueries);
  }
  std::vector<double> All(bool traced) const {
    std::vector<double> all;
    for (const auto& q : ms[traced]) all.insert(all.end(), q.begin(), q.end());
    return all;
  }
  /// Geometric mean over the queries of each one's median latency.
  double Geomean(bool traced) const {
    std::vector<double> medians;
    for (const auto& q : ms[traced]) {
      if (!q.empty()) medians.push_back(Median(q));
    }
    return perfbench::Geomean(medians);
  }
  /// Tracing overhead in percent: geometric mean over the queries of the
  /// traced median over the untraced median, minus one.
  double OverheadPct() const {
    std::vector<double> ratios;
    for (int q = 0; q < kNumQueries; q++) {
      if (ms[0][q].empty() || ms[1][q].empty()) continue;
      ratios.push_back(Median(ms[1][q]) / Median(ms[0][q]));
    }
    return ratios.empty() ? 0 : (perfbench::Geomean(ratios) - 1) * 100;
  }
};

void EmitEndToEnd(const Samples& samples, double phase_s, double setup_s,
                  double peak_rss_mb, RunResult* out) {
  std::vector<double> all = samples.All(false);
  out->Set("setup_s", setup_s);
  out->Set("queries_per_s", static_cast<double>(all.size()) / phase_s);
  out->Set("query_p50_ms", Median(all));
  out->Set("query_p95_ms", Percentile(all, 0.95));
  out->Set("query_geomean_ms", samples.Geomean(false));
  out->Set("peak_rss_mb", peak_rss_mb);
  out->Note("query_samples", static_cast<double>(all.size()));
}

/// Per-layer metrics no TPC-H workload exercises: writes and commits.
void EmitNoWrites(RunResult* out) {
  for (const char* name :
       {"delta.snapshot_ms", "delta.commit_attempts_per_commit",
        "dml.merge_rows_per_s", "dml.merge_p50_ms", "dml.merge_p90_ms",
        "dml.files_rewritten_per_merge", "dml.files_pruned_per_merge",
        "store.write_amp", "store.space_amp", "compactor.commits",
        "compactor.conflicts", "compactor.files_compacted"}) {
    out->Set(name, 0);
  }
}

/// Span self times per query, and the share of the root "query" span the
/// child spans cover. Returns the span summary.
std::map<std::string, trace::SpanStats> EmitSpanMetrics(
    int64_t queries, RunResult* out, double* coverage_pct) {
  std::map<std::string, trace::SpanStats> spans = trace::Summarize();
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  out->Set("sql.compile_ms", Ms(spans["sql.compile"].self_ns) / n);
  out->Set("opt.optimize_ms", Ms(spans["opt.optimize"].self_ns) / n);
  const trace::SpanStats& root = spans["query"];
  *coverage_pct =
      root.total_ns > 0
          ? 100.0 * (1.0 - static_cast<double>(root.self_ns) / root.total_ns)
          : 0.0;
  out->Set("obs.span_coverage_pct", *coverage_pct);
  return spans;
}

}  // namespace

RunResult RunTpchPower(const Options& options) {
  RunResult result;
  TpchEnv env;
  Status st = SetUp(options, ObjectStore::Options(), /*cache_share=*/2.0, &env);
  if (!st.ok()) {
    result.attempted = 1;
    result.Fail("set-up: " + st.ToString());
    return result;
  }

  exec::Driver driver(kWorkers);
  // Reservations are tracked (memory.* metrics) but never block.
  MemoryManager memory(8LL << 30);
  ExecContext ctx;
  ctx.memory_manager = &memory;

  Samples samples;
  LayerTotals layers, q1_layers;
  Counters traced_counters;
  int64_t traced_queries = 0, q1_allocs = 0;
  double first_pass_ms = 0;

  // One pass = the 22 queries in order. Pass 0 is the warm-up (set-up);
  // in a traced run, odd passes are traced and even ones are not.
  auto run_pass = [&](bool traced, bool record) {
    trace::SetEnabled(traced);
    SetAllocCounting(traced);
    Counters before = Counters::Read(*env.lake.store, *env.cache);
    double pass_ms = 0;
    for (int q = 1; q <= kNumQueries; q++) {
      std::vector<exec::StageInfo> stages;
      obs::QueryProfile profile;
      int64_t allocs0 = AllocCount();
      int64_t t0 = NowNs();
      Result<Table> out = [&] {
        trace::Span root("query", /*root=*/true);
        return ExecuteSql(env.sql[q - 1], env.catalog, &driver, ctx,
                          traced ? &stages : nullptr,
                          traced ? &profile : nullptr);
      }();
      int64_t latency = NowNs() - t0;
      const int64_t allocs = AllocCount() - allocs0;
      UncountedScope uncounted;
      result.attempted++;
      if (record) samples.ms[traced][q - 1].push_back(Ms(latency));
      pass_ms += Ms(latency);
      std::string error = Check(q, out.status(), out.ok() ? &*out : nullptr, env);
      if (!error.empty()) result.Fail(error);
      if (traced) {
        layers.AddStages(stages, profile.wall_ns, kWorkers);
        layers.AddProfile(profile);
        traced_queries++;
        if (q == 1) {
          q1_layers.AddProfile(profile);
          q1_allocs += allocs;
        }
      }
    }
    if (traced) traced_counters += Counters::Read(*env.lake.store, *env.cache) - before;
    trace::SetEnabled(false);
    SetAllocCounting(false);
    return pass_ms;
  };

  int64_t w0 = NowNs();
  first_pass_ms = run_pass(false, false);
  double setup_s = Median(env.build_s) + static_cast<double>(NowNs() - w0) / 1e9;

  if (!ResetPeakRss()) result.Fail("cannot reset the peak RSS mark");
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(options.seconds * 1e9);
  int passes = 0;
  while (NowNs() < deadline || (!options.tiny && passes < kMinPasses)) {
    run_pass(options.trace && passes % 2 == 1, true);
    passes++;
  }
  double phase_s = static_cast<double>(NowNs() - t0) / 1e9;
  double cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();

  result.Note("scale_factor", env.sf);
  result.Note("passes", passes);
  result.Note("reference_s", env.reference_s);
  result.Note("stored_mb", static_cast<double>(env.stored_bytes) / (1 << 20));
  if (!options.trace) {
    EmitEndToEnd(samples, phase_s, setup_s, peak_rss_mb, &result);
    return result;
  }

  double coverage = 0;
  std::map<std::string, trace::SpanStats> spans =
      EmitSpanMetrics(traced_queries, &result, &coverage);
  // On this workload the three layers' spans are back to back, so their
  // self times must account for the query latency.
  if (coverage < 95.0) {
    result.Fail("sql+opt+exec spans cover only " + std::to_string(coverage) +
                "% of the traced query latency");
  }
  result.Set("exec.run_ms",
             Ms(spans["exec.run"].self_ns) /
                 static_cast<double>(std::max<int64_t>(traced_queries, 1)));
  layers.Emit(traced_queries, &result);
  traced_counters.Emit(traced_queries, &result);
  result.Set("alloc.per_row",
             layers.rows_scanned() > 0
                 ? static_cast<double>(traced_counters.allocs) /
                       static_cast<double>(layers.rows_scanned())
                 : 0.0);
  result.Set("alloc.q1_per_row",
             q1_layers.rows_scanned() > 0
                 ? static_cast<double>(q1_allocs) /
                       static_cast<double>(q1_layers.rows_scanned())
                 : 0.0);
  result.Set("service.queue_ms", 0);
  result.Set("service.admission_waits", 0);
  result.Set("service.tasks", 0);
  result.Set("delta.log_versions", static_cast<double>(LogVersions(env)));
  EmitNoWrites(&result);
  result.Set("proc.cpu_s", cpu_s);
  result.Set("warmup.first_pass_ms", first_pass_ms);
  result.Set("obs.trace_overhead_pct", samples.OverheadPct());
  if (!options.trace_out.empty() && !trace::WriteJsonLines(options.trace_out)) {
    result.Fail("could not write spans to " + options.trace_out);
  }
  return result;
}

RunResult RunServiceMix(const Options& options) {
  RunResult result;
  TpchEnv env;
  ObjectStore::Options store_options;
  store_options.get_latency_us = kServiceGetLatencyUs;
  store_options.bandwidth_bytes_per_sec = kServiceBandwidth;
  Status st = SetUp(options, store_options, /*cache_share=*/0.25, &env);
  if (!st.ok()) {
    result.attempted = 1;
    result.Fail("set-up: " + st.ToString());
    return result;
  }

  service::ServiceOptions service_options;
  service_options.worker_threads = kWorkers;
  service_options.max_concurrent_queries = kServiceMaxRunning;
  service_options.memory_limit_bytes = 2LL << 30;
  service::QueryService svc(service_options);
  service::SessionOptions session_options;
  session_options.optimizer = OptimizerPolicy::kOn;
  session_options.memory_bytes = 256LL << 20;

  std::mutex mu;  // guards what the clients record below
  Samples samples;
  LayerTotals layers;
  int64_t traced_queries = 0;
  double queue_ms = 0, exec_ms = 0;
  int64_t last_done_ns = 0;

  // One query the service way: SQL text compiled on the client, then
  // Submit → Wait; the service applies the optimizer inside its driver.
  auto run_query = [&](int q, bool record) {
    const bool traced = trace::Enabled();
    std::shared_ptr<service::QuerySession> session;
    Status status;
    int64_t session_ns = 0;
    int64_t t0 = NowNs();
    {
      trace::Span root("query", /*root=*/true);
      Result<plan::PlanPtr> compiled = [&] {
        trace::Span span("sql.compile");
        return sql::CompileSql(env.sql[q - 1], env.catalog);
      }();
      if (compiled.ok()) {
        trace::Span span("service.submit_wait");
        int64_t s0 = NowNs();
        session = svc.Submit(*compiled, session_options);
        status = session->Wait();
        session_ns = NowNs() - s0;
      } else {
        status = compiled.status();
      }
    }
    int64_t done = NowNs();
    UncountedScope uncounted;
    std::string error =
        Check(q, status, status.ok() ? &session->table() : nullptr, env);
    std::lock_guard<std::mutex> lock(mu);
    result.attempted++;
    if (!error.empty()) result.Fail(error);
    if (!record) return;
    last_done_ns = std::max(last_done_ns, done);
    samples.ms[traced][q - 1].push_back(Ms(done - t0));
    if (traced && session != nullptr) {
      const obs::QueryProfile& profile = session->profile();
      layers.AddProfile(profile);
      traced_queries++;
      queue_ms += Ms(session_ns - profile.wall_ns);
      exec_ms += Ms(profile.wall_ns);
    }
  };

  // Warm-up (set-up): the 22 queries once, shared out over the clients.
  int64_t w0 = NowNs();
  {
    std::atomic<int> next{1};
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; c++) {
      clients.emplace_back([&] {
        for (int q = next++; q <= kNumQueries; q = next++) run_query(q, false);
      });
    }
    for (auto& t : clients) t.join();
  }
  const double first_pass_ms = Ms(NowNs() - w0);
  const double setup_s = Median(env.build_s) + first_pass_ms / 1e3;

  // Measured phase: closed-loop clients, each in its own seeded order.
  // In a traced run the main thread alternates traced and untraced
  // segments and sums the counters over the traced ones.
  auto stats_now = [&] {
    return std::make_pair(svc.admission().waited_total(),
                          svc.stats().tasks_executed);
  };
  Counters traced_counters;
  int64_t traced_waits = 0, traced_tasks = 0, traced_wall_ns = 0;
  if (!ResetPeakRss()) result.Fail("cannot reset the peak RSS mark");
  const Counters start_counters = Counters::Read(*env.lake.store, *env.cache);
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServiceClients; c++) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ull + c + 1);
      std::vector<int> order(kNumQueries);
      std::iota(order.begin(), order.end(), 1);
      for (;;) {
        std::shuffle(order.begin(), order.end(), rng);
        for (int q : order) {
          if (NowNs() >= deadline) return;
          run_query(q, true);
        }
      }
    });
  }
  bool traced_segment = false;
  Counters segment_counters = Counters::Read(*env.lake.store, *env.cache);
  auto segment_stats = stats_now();
  int64_t segment_start = NowNs();
  auto end_segment = [&] {
    if (traced_segment) {
      traced_counters += Counters::Read(*env.lake.store, *env.cache) -
                         segment_counters;
      auto s = stats_now();
      traced_waits += s.first - segment_stats.first;
      traced_tasks += s.second - segment_stats.second;
      traced_wall_ns += NowNs() - segment_start;
    }
  };
  while (options.trace && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min(kTraceSegmentNs, std::max<int64_t>(deadline - NowNs(), 0))));
    end_segment();
    traced_segment = !traced_segment && NowNs() < deadline;
    trace::SetEnabled(traced_segment);
    SetAllocCounting(traced_segment);
    segment_counters = Counters::Read(*env.lake.store, *env.cache);
    segment_stats = stats_now();
    segment_start = NowNs();
  }
  for (auto& t : clients) t.join();
  end_segment();
  trace::SetEnabled(false);
  SetAllocCounting(false);
  svc.Drain();
  double phase_s =
      static_cast<double>(std::max<int64_t>(last_done_ns - t0, 1)) / 1e9;
  double cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();
  const Counters phase_counters =
      Counters::Read(*env.lake.store, *env.cache) - start_counters;

  result.Note("scale_factor", env.sf);
  result.Note("reference_s", env.reference_s);
  result.Note("stored_mb", static_cast<double>(env.stored_bytes) / (1 << 20));
  result.Note("cache_mb",
              static_cast<double>(env.cache->capacity_bytes()) / (1 << 20));
  // Simulated GET time per read, summed over its GETs (which may overlap),
  // beside the read latency it sits in.
  const double get_ms = static_cast<double>(phase_counters.store_gets) *
                            kServiceGetLatencyUs / 1e3 +
                        static_cast<double>(phase_counters.store_bytes_read) *
                            1e3 / kServiceBandwidth;
  const size_t reads = samples.All(false).size() + samples.All(true).size();
  result.Note("get_ms_per_query",
              get_ms / static_cast<double>(std::max<size_t>(reads, 1)));
  if (!options.trace) {
    EmitEndToEnd(samples, phase_s, setup_s, peak_rss_mb, &result);
    return result;
  }

  double coverage = 0;
  EmitSpanMetrics(traced_queries, &result, &coverage);
  const double n = static_cast<double>(std::max<int64_t>(traced_queries, 1));
  result.Set("exec.run_ms", exec_ms / n);
  if (traced_wall_ns > 0) {
    layers.SetCpuUtil(traced_counters.cpu_s /
                      (static_cast<double>(traced_wall_ns) / 1e9 * kWorkers));
  }
  layers.Emit(traced_queries, &result);
  traced_counters.Emit(traced_queries, &result);
  result.Set("alloc.per_row",
             layers.rows_scanned() > 0
                 ? static_cast<double>(traced_counters.allocs) /
                       static_cast<double>(layers.rows_scanned())
                 : 0.0);
  result.Set("alloc.q1_per_row", 0);  // not separable under concurrency
  result.Set("service.queue_ms", queue_ms / n);
  result.Set("service.admission_waits", static_cast<double>(traced_waits) / n);
  result.Set("service.tasks", static_cast<double>(traced_tasks) / n);
  result.Set("delta.log_versions", static_cast<double>(LogVersions(env)));
  EmitNoWrites(&result);
  result.Set("proc.cpu_s", cpu_s);
  result.Set("warmup.first_pass_ms", first_pass_ms);
  result.Set("obs.trace_overhead_pct", samples.OverheadPct());
  if (!options.trace_out.empty() && !trace::WriteJsonLines(options.trace_out)) {
    result.Fail("could not write spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
