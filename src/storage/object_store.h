#ifndef PHOTON_STORAGE_OBJECT_STORE_H_
#define PHOTON_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace photon {

/// In-process blob store standing in for S3/ADLS/GCS (see DESIGN.md
/// substitutions). Keys are flat strings with '/' conventions; values are
/// immutable byte strings. Optional latency/bandwidth simulation lets the
/// Parquet-write benchmark exhibit an IO component like the paper's
/// S3-backed Figure 7.
///
/// Thread-safe. Also used as the engine's spill and shuffle target.
class ObjectStore {
 public:
  struct Options {
    /// Fixed per-operation latency in microseconds (0 = in-memory speed).
    int64_t put_latency_us = 0;
    int64_t get_latency_us = 0;
    /// Simulated throughput in bytes/second (0 = unlimited).
    int64_t bandwidth_bytes_per_sec = 0;
  };

  ObjectStore() = default;
  explicit ObjectStore(Options options) : options_(options) {}

  /// Process-wide default instance (no simulated latency).
  static ObjectStore& Default();

  Status Put(const std::string& key, std::string bytes);
  /// Atomic insert-if-missing: stores `bytes` and returns true iff no
  /// object existed at `key`; returns false (and writes nothing) when one
  /// did. This is the primitive the Delta log's optimistic concurrency
  /// stands on — claiming log version v+1 is a single PutIfAbsent, so two
  /// racing committers can never both believe they own the same version
  /// (real object stores expose the same thing as If-None-Match puts).
  /// Injected Put failures (FailNextPuts) apply here too.
  Result<bool> PutIfAbsent(const std::string& key, std::string bytes);
  Result<std::string> Get(const std::string& key) const;
  bool Exists(const std::string& key) const;
  Status Delete(const std::string& key);
  /// Keys with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;
  /// Deletes all keys under a prefix; returns count removed.
  int64_t DeletePrefix(const std::string& prefix);

  int64_t bytes_written() const { return bytes_written_; }
  int64_t bytes_read() const { return bytes_read_; }
  int64_t num_puts() const { return num_puts_; }
  int64_t num_gets() const { return num_gets_; }

  /// Injects a failure on `n` Put calls (failure-injection tests): the
  /// next `after` puts succeed, the `n` after them fail.
  void FailNextPuts(int n, int after = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    pass_puts_ = after;
    fail_puts_ = n;
  }
  /// Injects a failure on the next `n` Get calls (read-side fault
  /// injection, exercised by CachingStore's retry path).
  void FailNextGets(int n) { fail_gets_ = n; }

 private:
  void SimulateIo(int64_t latency_us, size_t bytes) const;
  /// Consumes one put of the FailNextPuts schedule; true = fail it.
  /// Caller holds mu_.
  bool InjectPutFailure() {
    if (fail_puts_ == 0) return false;
    if (pass_puts_ > 0) {
      pass_puts_--;
      return false;
    }
    fail_puts_--;
    return true;
  }

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> blobs_;
  mutable int64_t bytes_written_ = 0;
  mutable int64_t bytes_read_ = 0;
  mutable int64_t num_puts_ = 0;
  mutable int64_t num_gets_ = 0;
  int pass_puts_ = 0;
  int fail_puts_ = 0;
  mutable int fail_gets_ = 0;
};

}  // namespace photon

#endif  // PHOTON_STORAGE_OBJECT_STORE_H_
