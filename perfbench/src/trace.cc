#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace trace {

namespace {

struct Record {
  const char* name;
  int64_t id;
  int64_t parent;
  int64_t request;
  int64_t start_ns;
  int64_t end_ns;
  int thread;
};

/// One thread's spans and its stack of open spans. Owned by the global
/// registry so the records outlive the thread.
struct ThreadBuffer {
  int thread = 0;
  std::vector<Record> records;
  std::vector<std::pair<int64_t, int64_t>> open;  // (span id, request id)
};

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_span{0};
std::atomic<int64_t> g_next_request{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<int>(g_buffers.size()) - 1;
  }
  return buffer;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, bool root) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  active_ = true;
  name_ = name;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  if (root || buffer->open.empty()) {
    request_ = g_next_request.fetch_add(1, std::memory_order_relaxed);
  } else {
    parent_ = buffer->open.back().first;
    request_ = buffer->open.back().second;
  }
  buffer->open.emplace_back(id_, request_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  int64_t end_ns = NowNs();
  ThreadBuffer* buffer = LocalBuffer();
  buffer->open.pop_back();
  buffer->records.push_back(
      {name_, id_, parent_, request_, start_ns_, end_ns, buffer->thread});
}

std::map<std::string, SpanStats> Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::unordered_map<int64_t, int64_t> child_ns;  // parent id -> children
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, SpanStats> out;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      SpanStats& s = out[r.name];
      int64_t duration = r.end_ns - r.start_ns;
      auto it = child_ns.find(r.id);
      s.count++;
      s.total_ns += duration;
      s.self_ns += duration - (it == child_ns.end() ? 0 : it->second);
    }
  }
  return out;
}

bool WriteJsonLines(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                   "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"thread\":%d}\n",
                   r.name, static_cast<long long>(r.id),
                   static_cast<long long>(r.parent),
                   static_cast<long long>(r.request),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns), r.thread);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace trace
}  // namespace perfbench
