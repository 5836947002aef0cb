#include "storage/object_store.h"

#include <thread>

namespace photon {

ObjectStore& ObjectStore::Default() {
  static ObjectStore* store = new ObjectStore();
  return *store;
}

void ObjectStore::SimulateIo(int64_t latency_us, size_t bytes) const {
  int64_t total_us = latency_us;
  if (options_.bandwidth_bytes_per_sec > 0) {
    total_us += static_cast<int64_t>(bytes) * 1000000 /
                options_.bandwidth_bytes_per_sec;
  }
  if (total_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(total_us));
  }
}

Status ObjectStore::Put(const std::string& key, std::string bytes) {
  SimulateIo(options_.put_latency_us, bytes.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (InjectPutFailure()) {
    return Status::IoError("injected failure writing '" + key + "'");
  }
  bytes_written_ += static_cast<int64_t>(bytes.size());
  num_puts_++;
  blobs_[key] = std::move(bytes);
  return Status::OK();
}

Result<bool> ObjectStore::PutIfAbsent(const std::string& key,
                                      std::string bytes) {
  SimulateIo(options_.put_latency_us, bytes.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (InjectPutFailure()) {
    return Status::IoError("injected failure writing '" + key + "'");
  }
  auto [it, inserted] = blobs_.try_emplace(key, std::move(bytes));
  if (inserted) {
    bytes_written_ += static_cast<int64_t>(it->second.size());
    num_puts_++;
  }
  return inserted;
}

Result<std::string> ObjectStore::Get(const std::string& key) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (fail_gets_ > 0) {
    fail_gets_--;
    return Status::IoError("injected failure reading '" + key + "'");
  }
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::KeyError("object not found: " + key);
  }
  std::string out = it->second;
  bytes_read_ += static_cast<int64_t>(out.size());
  num_gets_++;
  lock.unlock();
  SimulateIo(options_.get_latency_us, out.size());
  return out;
}

bool ObjectStore::Exists(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_.count(key) > 0;
}

Status ObjectStore::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (blobs_.erase(key) == 0) {
    return Status::KeyError("object not found: " + key);
  }
  return Status::OK();
}

std::vector<std::string> ObjectStore::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = blobs_.lower_bound(prefix);
       it != blobs_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

int64_t ObjectStore::DeletePrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.lower_bound(prefix);
  int64_t count = 0;
  while (it != blobs_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0) {
    it = blobs_.erase(it);
    count++;
  }
  return count;
}

}  // namespace photon
