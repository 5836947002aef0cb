// lakehouse_merge: MERGE upserts beside readers on one Delta key-value
// table (see README.md for why). Two writer clients each run a fixed
// number of MERGEs through dml::ExecuteMerge — half of each MERGE's keys
// match existing rows, half are new — while one reader client runs small
// aggregates over the latest snapshot and the background Compactor
// coalesces small files. The run length is a MERGE count, not a time, so
// every run ends at the same log length (Snapshot() cost grows with it).
//
// Correctness gates: no log version is committed twice (a lost commit);
// the final row count is the seed rows plus every inserted row, and equals
// the count the key ranges imply; every reader result matches what its
// snapshot version must hold.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "exec/compactor.h"
#include "exec/dml.h"
#include "expr/builder.h"
#include "storage/delta.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace photon;

constexpr int kWriters = 2;
constexpr int kSetupReps = 5;
constexpr int64_t kSeedChunk = 16384;
/// MERGEs per writer per second of --seconds: the count is fixed by the
/// argument, not by how fast the MERGEs go.
constexpr double kMergesPerWriterPerSecond = 4.0;
constexpr int kMinMergesPerWriter = 50;
/// Traced runs alternate traced and untraced segments this long.
constexpr int64_t kTraceSegmentNs = 500'000'000;

struct Scale {
  int64_t seed_rows;
  int64_t batch;  // rows per MERGE source; even
  int merges_per_writer;
};

Scale ScaleFor(const Options& o) {
  if (o.tiny) return {20000, 400, 4};
  int merges = std::max(
      kMinMergesPerWriter,
      static_cast<int>(std::lround(kMergesPerWriterPerSecond * o.seconds)));
  return {200000, 2000, merges};
}

Schema KvSchema() {
  return Schema({Field("id", DataType::Int64()), Field("val", DataType::Int64())});
}

/// splitmix64: the seeded value of a key.
int64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<int64_t>((x ^ (x >> 31)) % 1000000);
}

int64_t SeedValue(uint64_t seed, int64_t id) {
  return Mix(seed * 0x100000001B3ull + static_cast<uint64_t>(id));
}

Table KvRows(int64_t begin, int64_t end, uint64_t value_seed) {
  TableBuilder b(KvSchema(), static_cast<int>(end - begin));
  for (int64_t i = begin; i < end; i++) {
    b.AppendRow({Value::Int64(i), Value::Int64(SeedValue(value_seed, i))});
  }
  return b.Finish();
}

/// MERGE number `base` upserts keys [lo, lo + batch), lo sliding right by
/// batch/2 per base from seed_rows - batch/2: its front half matches the
/// previous base's inserts (or the seed rows), its back half is new.
int64_t MergeLo(const Scale& s, int64_t base) {
  return s.seed_rows - s.batch / 2 + base * s.batch / 2;
}

struct Lake {
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<DeltaTable> table;
};

Result<Lake> BuildLake(const Scale& s, uint64_t seed) {
  Lake lake;
  lake.store = std::make_unique<ObjectStore>();
  PHOTON_ASSIGN_OR_RETURN(lake.table,
                          DeltaTable::Create(lake.store.get(), "lake/kv",
                                             KvSchema()));
  for (int64_t lo = 0; lo < s.seed_rows; lo += kSeedChunk) {
    PHOTON_RETURN_NOT_OK(
        lake.table->Append(KvRows(lo, std::min(lo + kSeedChunk, s.seed_rows),
                                  seed))
            .status());
  }
  return lake;
}

/// The reader's two queries. The range one reads only seed keys no MERGE
/// touches (zone maps could skip every other file), so its answer is known
/// exactly; the full one's row count is checked against the commits its
/// snapshot version includes.
constexpr const char* kFullSql = "SELECT count(*) AS n, sum(val) AS s FROM kv";

struct ReadObservation {
  int64_t version;
  int64_t rows;
};

struct CommitRecord {
  int64_t version;
  int64_t rows_inserted;
};

}  // namespace

RunResult RunLakehouseMerge(const Options& options) {
  RunResult result;
  const Scale scale = ScaleFor(options);
  const int64_t range_keys = scale.seed_rows / 2;
  const std::string range_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM kv WHERE id < " +
      std::to_string(range_keys);
  int64_t range_sum = 0;
  for (int64_t i = 0; i < range_keys; i++) range_sum += SeedValue(options.seed, i);
  if (options.corrupt_reference) range_sum ^= 1;

  // Set-up, repeated for a steady setup_s: create and seed the table.
  std::vector<double> build_s;
  Lake lake;
  for (int rep = 0; rep < kSetupReps; rep++) {
    lake = Lake();
    int64_t t0 = NowNs();
    Result<Lake> built = BuildLake(scale, options.seed);
    if (!built.ok()) {
      result.attempted = 1;
      result.Fail("set-up: " + built.status().ToString());
      return result;
    }
    lake = std::move(*built);
    build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ObjectStore* store = lake.store.get();
  DeltaTable* table = lake.table.get();

  io::BlockCache cache;  // 64 MB: holds the whole table
  io::IoOptions io;
  io.cache = &cache;
  table->SetIoCache(&cache);  // log replay reads through the cache too

  std::mutex mu;  // guards the records below
  std::set<int64_t> versions;
  std::vector<CommitRecord> commits;
  std::vector<ReadObservation> reads;
  auto claim_version = [&](int64_t v) {  // caller holds mu
    if (!versions.insert(v).second) {
      result.Fail("log version " + std::to_string(v) +
                  " committed by two transactions (lost commit)");
    }
  };

  // --- the writers' and the reader's single operations --------------------

  struct MergeStats {
    std::vector<double> latency_ms;
    int64_t merges = 0, rows_upserted = 0, rows_inserted = 0, conflicts = 0,
            files_rewritten = 0, files_pruned = 0;
  };
  auto run_merge = [&](int64_t base, exec::Driver* driver, MergeStats* stats) {
    const int64_t lo = MergeLo(scale, base);
    Table source = [&] {
      UncountedScope uncounted;  // the benchmark's input, not engine work
      return KvRows(lo, lo + scale.batch,
                    options.seed + 1000 + static_cast<uint64_t>(base));
    }();
    dml::MergeSpec spec;
    spec.source = plan::Scan(&source);
    spec.target_keys = {0};
    spec.source_keys = {0};
    spec.matched_exprs = {eb::Col(0, DataType::Int64()),
                          eb::Col(3, DataType::Int64())};
    spec.insert_exprs = {eb::Col(0, DataType::Int64()),
                         eb::Col(1, DataType::Int64())};
    dml::DmlOptions dml_options;
    dml_options.io = io;
    dml_options.max_retries = 256;  // MERGE reads every file: contention
    int64_t t0 = NowNs();
    Result<dml::DmlResult> merged = [&] {
      trace::Span span("dml.merge", /*root=*/true);
      return dml::ExecuteMerge(table, spec, driver, ExecContext(), dml_options);
    }();
    int64_t latency = NowNs() - t0;
    std::lock_guard<std::mutex> lock(mu);
    result.attempted++;
    if (!merged.ok()) {
      result.Fail("MERGE " + std::to_string(base) + ": " +
                  merged.status().ToString());
      return;
    }
    claim_version(merged->version);
    commits.push_back({merged->version, merged->rows_inserted});
    stats->latency_ms.push_back(Ms(latency));
    stats->merges++;
    stats->rows_upserted += merged->rows_affected + merged->rows_inserted;
    stats->rows_inserted += merged->rows_inserted;
    stats->conflicts += merged->conflicts_retried;
    stats->files_rewritten += merged->files_rewritten;
    stats->files_pruned += merged->files_pruned;
  };

  exec::Driver reader_driver(1, 1);
  sql::Catalog catalog;
  std::vector<double> read_ms[2][2];  // [traced][query kind]
  LayerTotals layers;
  int64_t traced_reads = 0;
  // One read: snapshot, bind, then SQL → Optimize → Driver::Run.
  auto run_read = [&](int kind, bool record) {
    const bool traced = trace::Enabled();
    std::vector<exec::StageInfo> stages;
    obs::QueryProfile profile;
    int64_t version = -1;
    int64_t t0 = NowNs();
    Result<Table> out = [&]() -> Result<Table> {
      trace::Span root("query", /*root=*/true);
      Result<DeltaSnapshot> snapshot = [&] {
        trace::Span span("delta.snapshot");
        return table->Snapshot();
      }();
      if (!snapshot.ok()) return snapshot.status();
      version = snapshot->version;
      catalog.Register("kv", plan::DeltaScan(store, *std::move(snapshot), {},
                                             nullptr, io));
      return ExecuteSql(kind == 0 ? kFullSql : range_sql, catalog,
                        &reader_driver, ExecContext(),
                        traced ? &stages : nullptr, traced ? &profile : nullptr);
    }();
    int64_t latency = NowNs() - t0;
    UncountedScope uncounted;
    std::lock_guard<std::mutex> lock(mu);
    result.attempted++;
    if (record) read_ms[traced][kind].push_back(Ms(latency));
    if (!out.ok() || out->num_rows() != 1) {
      result.Fail("read: " + (out.ok() ? std::string("wrong row count")
                                       : out.status().ToString()));
      return;
    }
    std::vector<Value> row = out->GetRow(0);
    const std::string n = row[0].ToString();
    if (kind == 0) {
      reads.push_back({version, std::stoll(n)});
    } else if (n != std::to_string(range_keys) ||
               row[1].ToString() != std::to_string(range_sum)) {
      result.Fail("range read returned " + n + ", " + row[1].ToString() +
                  "; expected " + std::to_string(range_keys) + ", " +
                  std::to_string(range_sum));
    }
    if (traced && record) {
      layers.AddStages(stages, profile.wall_ns, reader_driver.num_threads());
      layers.AddProfile(profile);
      traced_reads++;
    }
  };

  // --- warm-up (set-up): one MERGE per writer, one read of each kind -----
  int64_t w0 = NowNs();
  MergeStats warmup;
  {
    exec::Driver driver(1, 1);
    for (int w = 0; w < kWriters; w++) run_merge(w, &driver, &warmup);
  }
  run_read(0, false);
  run_read(1, false);
  const double first_pass_ms = Ms(NowNs() - w0);
  const double setup_s = Median(build_s) + first_pass_ms / 1e3;

  // --- measured phase ------------------------------------------------------
  exec::Compactor::Options compactor_options;
  // A MERGE leaves files of one to two source batches; with the "small"
  // threshold at one batch the compactor would almost never find a group
  // and the file count (and with it every scan) would drift with timing.
  compactor_options.small_file_rows = scale.batch * 4;
  compactor_options.target_file_rows = scale.batch * 16;
  compactor_options.interval_ms = 5;
  compactor_options.io = io;
  exec::Compactor compactor(table, compactor_options);
  compactor.set_commit_listener([&](int64_t v) {
    std::lock_guard<std::mutex> lock(mu);
    claim_version(v);
  });

  if (!ResetPeakRss()) result.Fail("cannot reset the peak RSS mark");
  Counters start_counters = Counters::Read(*store, cache);
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  compactor.Start();
  std::atomic<int> writers_running{kWriters};
  std::vector<MergeStats> writer_stats(kWriters);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      exec::Driver driver(1, 1);
      for (int j = 0; j < scale.merges_per_writer; j++) {
        run_merge(kWriters + static_cast<int64_t>(j) * kWriters + w, &driver,
                  &writer_stats[w]);
      }
      writers_running--;
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; writers_running.load() > 0; i++) run_read(i % 2, true);
  });

  // Traced runs alternate traced and untraced segments until the writers
  // finish, summing the counters over the traced ones.
  Counters traced_counters;
  int64_t traced_merges = 0;
  bool traced_segment = false;
  Counters segment_counters = start_counters;
  int64_t segment_merges = 0;
  auto merges_done = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<int64_t>(commits.size());
  };
  auto end_segment = [&] {
    if (!traced_segment) return;
    traced_counters += Counters::Read(*store, cache) - segment_counters;
    traced_merges += merges_done() - segment_merges;
  };
  while (options.trace && writers_running.load() > 0) {
    int64_t segment_end = NowNs() + kTraceSegmentNs;
    while (writers_running.load() > 0 && NowNs() < segment_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    end_segment();
    traced_segment = !traced_segment && writers_running.load() > 0;
    trace::SetEnabled(traced_segment);
    SetAllocCounting(traced_segment);
    segment_counters = Counters::Read(*store, cache);
    segment_merges = merges_done();
  }
  for (auto& t : threads) t.join();
  end_segment();
  trace::SetEnabled(false);
  SetAllocCounting(false);
  const double phase_s = static_cast<double>(NowNs() - t0) / 1e9;
  const Counters phase_counters = Counters::Read(*store, cache) - start_counters;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();

  compactor.Stop();
  Status drained = compactor.RunOncePass();  // coalesce the small-file tail
  if (!drained.ok()) result.Fail("final compaction: " + drained.ToString());
  exec::Compactor::Stats cstats = compactor.stats();

  // --- correctness gates ----------------------------------------------------
  MergeStats merged;
  for (const MergeStats& w : writer_stats) {
    merged.latency_ms.insert(merged.latency_ms.end(), w.latency_ms.begin(),
                             w.latency_ms.end());
    merged.merges += w.merges;
    merged.rows_upserted += w.rows_upserted;
    merged.rows_inserted += w.rows_inserted;
    merged.conflicts += w.conflicts;
    merged.files_rewritten += w.files_rewritten;
    merged.files_pruned += w.files_pruned;
  }
  const int64_t total_bases = kWriters + kWriters * scale.merges_per_writer;
  const int64_t inserted = merged.rows_inserted + warmup.rows_inserted;
  Result<DeltaSnapshot> final_snapshot = table->Snapshot();
  int64_t live_bytes = 0;
  int64_t final_rows = -1;
  if (!final_snapshot.ok()) {
    result.Fail("final snapshot: " + final_snapshot.status().ToString());
  } else {
    exec::Driver driver(1, 1);
    Result<Table> all = driver.Run(plan::DeltaScan(store, *final_snapshot));
    final_rows = all.ok() ? all->num_rows() : -1;
    for (const DeltaFileEntry& f : final_snapshot->files) {
      Result<std::string> bytes = store->Get(f.key);
      if (bytes.ok()) live_bytes += static_cast<int64_t>(bytes->size());
    }
  }
  if (final_rows != scale.seed_rows + inserted ||
      final_rows != scale.seed_rows + total_bases * scale.batch / 2) {
    result.Fail("row conservation: " + std::to_string(final_rows) +
                " rows; seed " + std::to_string(scale.seed_rows) + " + " +
                std::to_string(inserted) + " inserted; key ranges imply " +
                std::to_string(scale.seed_rows +
                               total_bases * scale.batch / 2));
  }
  std::sort(commits.begin(), commits.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.version < b.version;
            });
  for (const ReadObservation& r : reads) {
    int64_t expected = scale.seed_rows;
    for (const CommitRecord& c : commits) {
      if (c.version > r.version) break;
      expected += c.rows_inserted;
    }
    if (r.rows != expected) {
      result.Fail("read at version " + std::to_string(r.version) + " saw " +
                  std::to_string(r.rows) + " rows; expected " +
                  std::to_string(expected));
    }
  }

  // --- metrics ----------------------------------------------------------------
  // The end-to-end metrics see the writers too: queries_per_s counts every
  // client operation (reads and committed MERGEs), and query_geomean_ms is
  // the geometric mean over the three operation kinds (full read, range
  // read, MERGE) of each kind's mean latency. A MERGE's latency depends on
  // how many attempts it lost to rival commits, so its quantiles jump
  // from run to run while its mean holds; the latency percentiles are
  // therefore the reads' alone.
  std::vector<double> all_reads;
  std::vector<double> kind_means = {Mean(merged.latency_ms)};
  for (int kind = 0; kind < 2; kind++) {
    const std::vector<double>& v = read_ms[0][kind];
    all_reads.insert(all_reads.end(), v.begin(), v.end());
    if (!v.empty()) kind_means.push_back(Mean(v));
  }
  const int64_t completed_ops =
      merged.merges + static_cast<int64_t>(read_ms[0][0].size() +
                                           read_ms[0][1].size() +
                                           read_ms[1][0].size() +
                                           read_ms[1][1].size());
  const double logical_row_bytes = 2 * sizeof(int64_t);
  result.Note("seed_rows", static_cast<double>(scale.seed_rows));
  result.Note("merges", static_cast<double>(merged.merges));
  result.Note("final_rows", static_cast<double>(final_rows));
  result.Note("phase_s", phase_s);
  result.Note("conflicts_retried", static_cast<double>(merged.conflicts));
  result.Note("compactor_commits", static_cast<double>(cstats.commits));
  if (!options.trace) {
    result.Set("setup_s", setup_s);
    result.Set("queries_per_s", static_cast<double>(completed_ops) / phase_s);
    result.Set("query_p50_ms", Median(all_reads));
    result.Set("query_p95_ms", Percentile(all_reads, 0.95));
    result.Set("query_geomean_ms", Geomean(kind_means));
    result.Set("peak_rss_mb", peak_rss_mb);
    result.Note("query_samples", static_cast<double>(all_reads.size()));
    result.Note("merge_samples", static_cast<double>(merged.latency_ms.size()));
    result.Note("merge_mean_ms", Mean(merged.latency_ms));
    return result;
  }

  std::map<std::string, trace::SpanStats> spans = trace::Summarize();
  const double reads_n = static_cast<double>(std::max<int64_t>(traced_reads, 1));
  result.Set("sql.compile_ms", Ms(spans["sql.compile"].self_ns) / reads_n);
  result.Set("opt.optimize_ms", Ms(spans["opt.optimize"].self_ns) / reads_n);
  result.Set("exec.run_ms", Ms(spans["exec.run"].self_ns) / reads_n);
  result.Set("delta.snapshot_ms", Ms(spans["delta.snapshot"].self_ns) / reads_n);
  const trace::SpanStats& root = spans["query"];
  result.Set("obs.span_coverage_pct",
             root.total_ns > 0 ? 100.0 * (1.0 - static_cast<double>(root.self_ns) /
                                                    root.total_ns)
                               : 0.0);
  layers.Emit(traced_reads, &result);
  traced_counters.Emit(traced_reads + traced_merges, &result);
  result.Set("alloc.per_row",
             layers.rows_scanned() > 0
                 ? static_cast<double>(traced_counters.allocs) /
                       static_cast<double>(layers.rows_scanned())
                 : 0.0);
  result.Set("alloc.q1_per_row", 0);
  result.Set("service.queue_ms", 0);
  result.Set("service.admission_waits", 0);
  result.Set("service.tasks", 0);
  result.Set("delta.log_versions",
             final_snapshot.ok() ? static_cast<double>(final_snapshot->version) : 0);
  const double merges_n = static_cast<double>(std::max<int64_t>(merged.merges, 1));
  result.Set("delta.commit_attempts_per_commit",
             static_cast<double>(merged.merges + merged.conflicts) / merges_n);
  result.Set("dml.merge_rows_per_s",
             static_cast<double>(merged.rows_upserted) / phase_s);
  result.Set("dml.merge_p50_ms", Median(merged.latency_ms));
  result.Set("dml.merge_p90_ms", Percentile(merged.latency_ms, 0.90));
  result.Set("dml.files_rewritten_per_merge",
             static_cast<double>(merged.files_rewritten) / merges_n);
  result.Set("dml.files_pruned_per_merge",
             static_cast<double>(merged.files_pruned) / merges_n);
  result.Set("store.write_amp",
             merged.rows_upserted > 0
                 ? static_cast<double>(phase_counters.store_bytes_written) /
                       (static_cast<double>(merged.rows_upserted) *
                        logical_row_bytes)
                 : 0.0);
  result.Set("store.space_amp",
             final_rows > 0 ? static_cast<double>(live_bytes) /
                                  (static_cast<double>(final_rows) *
                                   logical_row_bytes)
                            : 0.0);
  result.Set("compactor.commits", static_cast<double>(cstats.commits));
  result.Set("compactor.conflicts", static_cast<double>(cstats.conflicts));
  result.Set("compactor.files_compacted",
             static_cast<double>(cstats.files_compacted));
  result.Set("proc.cpu_s", cpu_s);
  result.Set("warmup.first_pass_ms", first_pass_ms);
  std::vector<double> ratios;
  for (int kind = 0; kind < 2; kind++) {
    if (read_ms[0][kind].empty() || read_ms[1][kind].empty()) continue;
    ratios.push_back(Median(read_ms[1][kind]) / Median(read_ms[0][kind]));
  }
  result.Set("obs.trace_overhead_pct",
             ratios.empty() ? 0.0 : (Geomean(ratios) - 1) * 100);
  if (!options.trace_out.empty() && !trace::WriteJsonLines(options.trace_out)) {
    result.Fail("could not write spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
