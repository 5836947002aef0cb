#ifndef PHOTON_EXEC_COMPACTOR_H_
#define PHOTON_EXEC_COMPACTOR_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "io/caching_store.h"
#include "storage/delta.h"

namespace photon {
namespace exec {

/// Background small-file compaction (the lakehouse's OPTIMIZE): coalesces
/// runs of small data files into fewer large ones via copy-on-write
/// Rewrite commits. Purely physical — every pass preserves the table's
/// logical contents, so it coexists with readers (their snapshots pin the
/// old files) and with writers (a compaction that races a DELETE/UPDATE of
/// the same files loses read-set validation, counts a conflict, and simply
/// leaves the group for the next pass — writer progress is never blocked).
class Compactor {
 public:
  struct Options {
    /// Files below this row count are compaction candidates.
    int64_t small_file_rows = 1024;
    /// Greedy group budget: a group closes when its rows reach this.
    int64_t target_file_rows = 8192;
    /// Groups smaller than this are not worth a commit.
    int min_group_files = 2;
    /// Background pass period.
    int64_t interval_ms = 10;
    /// IO wiring for the group read-back.
    io::IoOptions io;
    /// Format options for the coalesced file.
    FormatWriteOptions write;
  };

  struct Stats {
    int64_t passes = 0;
    int64_t commits = 0;
    /// Rewrites that lost read-set validation to a concurrent writer.
    int64_t conflicts = 0;
    /// Non-conflict pass failures (store errors).
    int64_t failed_passes = 0;
    int64_t files_compacted = 0;
  };

  /// Background passes run on the compactor's own thread (Start/Stop).
  Compactor(DeltaTable* table, Options options);
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// One synchronous pass: snapshot, group small files greedily, rewrite
  /// each group. Conflicts are absorbed (counted, group skipped); other
  /// errors abort the pass.
  Status RunOncePass();

  /// Starts/stops the background loop. Stop joins the thread and is safe
  /// to call twice; the destructor calls it.
  void Start();
  void Stop();

  Stats stats() const;

  /// Observer invoked with each committed compaction's log version, from
  /// the pass thread (the differential harness records commit order).
  void set_commit_listener(std::function<void(int64_t)> fn) {
    commit_listener_ = std::move(fn);
  }

 private:
  void Loop();

  DeltaTable* table_;
  Options options_;
  std::function<void(int64_t)> commit_listener_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  Stats stats_;
  std::thread thread_;
};

}  // namespace exec
}  // namespace photon

#endif  // PHOTON_EXEC_COMPACTOR_H_
