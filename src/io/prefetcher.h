#ifndef PHOTON_IO_PREFETCHER_H_
#define PHOTON_IO_PREFETCHER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/thread_pool.h"
#include "io/caching_store.h"

namespace photon {
namespace io {

/// Async read-ahead scheduler: overlaps object-store IO with compute the
/// way Photon's scans overlap NVMe/S3 reads with decoding (§2). While the
/// scan decodes object k, the prefetcher keeps up to the store's
/// `IoOptions::prefetch_depth` of the next objects in flight on its
/// `IoOptions::prefetch_pool` (depth 2 = classic double buffering); their
/// bytes land in the shared BlockCache via the CachingStore, so Fetch() of
/// a prefetched key is a cache hit.
///
/// Cancellation: Cancel() (also run from the destructor and the scan
/// operator's Close) prevents queued tasks from issuing new reads and
/// drains in-flight ones, so a LIMIT that stops a scan early does not leak
/// background IO into the pool.
///
/// Thread-safe; one instance per scan, sharing a pool/cache with others.
class Prefetcher {
 public:
  struct Stats {
    int64_t issued = 0;        // read-ahead tasks submitted
    int64_t skipped = 0;       // tasks that saw cancellation and bailed
    int64_t waits = 0;         // Fetch() calls that blocked on a read-ahead
    int64_t wait_ns = 0;       // total time Fetch() spent blocked
  };

  /// `store->options()` must name a prefetch pool and a positive depth.
  explicit Prefetcher(CachingStore* store);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Keeps keys[cursor..] flowing: issues read-aheads until `depth` are in
  /// flight. Call just before (or while) processing keys[cursor - 1].
  void ScheduleAhead(const std::vector<std::string>& keys, size_t cursor);

  /// The consumer-side read: waits for an in-flight read-ahead of `key`
  /// (accounting the stall as prefetch wait), then serves it through the
  /// caching store — a cache hit when the prefetch landed, a synchronous
  /// load otherwise.
  Result<std::shared_ptr<const std::string>> Fetch(const std::string& key);

  /// Stops issuing, drains in-flight tasks, forgets pending keys.
  void Cancel();

  Stats stats() const;

 private:
  CachingStore* store_;

  std::atomic<bool> cancelled_{false};
  std::mutex mu_;
  std::unordered_map<std::string, std::future<void>> inflight_;

  std::atomic<int64_t> issued_{0};
  std::atomic<int64_t> skipped_{0};
  std::atomic<int64_t> waits_{0};
  std::atomic<int64_t> wait_ns_{0};
};

}  // namespace io
}  // namespace photon

#endif  // PHOTON_IO_PREFETCHER_H_
