#include "io/prefetcher.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "obs/trace.h"

namespace photon {
namespace io {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Prefetcher::Prefetcher(CachingStore* store) : store_(store) {
  PHOTON_CHECK(store_->options().prefetch_pool != nullptr);
  PHOTON_CHECK(store_->options().prefetch_depth > 0);
}

Prefetcher::~Prefetcher() { Cancel(); }

void Prefetcher::ScheduleAhead(const std::vector<std::string>& keys,
                               size_t cursor) {
  if (cancelled_.load(std::memory_order_acquire)) return;
  const IoOptions& io = store_->options();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = cursor;
       i < keys.size() &&
       inflight_.size() < static_cast<size_t>(io.prefetch_depth);
       i++) {
    const std::string& key = keys[i];
    if (inflight_.count(key) > 0) continue;
    issued_.fetch_add(1, std::memory_order_relaxed);
    inflight_[key] = io.prefetch_pool->Submit([this, key] {
      if (cancelled_.load(std::memory_order_acquire)) {
        skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Result intentionally dropped: the payload lands in the BlockCache
      // (or the single-flight table) for the consumer; a failure here will
      // surface — with retries — when the consumer Fetches the key.
      store_->Get(key);
    });
  }
}

Result<std::shared_ptr<const std::string>> Prefetcher::Fetch(
    const std::string& key) {
  std::future<void> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      pending = std::move(it->second);
      inflight_.erase(it);
    }
  }
  if (pending.valid()) {
    int64_t t0 = NowNs();
    pending.wait();
    int64_t waited = NowNs() - t0;
    waits_.fetch_add(1, std::memory_order_relaxed);
    wait_ns_.fetch_add(waited, std::memory_order_relaxed);
    obs::Tracer::Record("io.prefetch_wait", -1, t0, waited);
  }
  return store_->Get(key);
}

void Prefetcher::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  std::unordered_map<std::string, std::future<void>> drain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drain.swap(inflight_);
  }
  // Queued-but-unstarted tasks see cancelled_ and bail; running ones are
  // drained so no task outlives this object.
  for (auto& [key, fut] : drain) fut.wait();
}

Prefetcher::Stats Prefetcher::stats() const {
  Stats s;
  s.issued = issued_.load(std::memory_order_relaxed);
  s.skipped = skipped_.load(std::memory_order_relaxed);
  s.waits = waits_.load(std::memory_order_relaxed);
  s.wait_ns = wait_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace io
}  // namespace photon
