// In-memory spans recorded by the benchmark around its calls into the
// engine's public functions (CompileSql, Optimize, Driver::Run,
// Submit→Wait, Snapshot, ExecuteMerge). Each span has a name, start, end,
// parent span and request id; they stay in per-thread buffers until the run
// ends, when they are summarized into self times and written out.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {
namespace trace {

/// Spans open only while tracing is on; a span keeps recording once opened
/// even if tracing is switched off before it closes.
void SetEnabled(bool on);
bool Enabled();

/// RAII span. A root span starts a new request; a nested span joins the
/// request and parent of the innermost open span on its thread.
class Span {
 public:
  explicit Span(const char* name, bool root = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  int64_t id_ = 0;
  int64_t parent_ = -1;
  int64_t request_ = -1;
  int64_t start_ns_ = 0;
};

struct SpanStats {
  int64_t count = 0;
  int64_t total_ns = 0;
  /// Duration minus the time covered by the span's direct children.
  int64_t self_ns = 0;
};

/// Per-name totals over every span recorded so far. Call after the
/// threads that record spans have been joined.
std::map<std::string, SpanStats> Summarize();

/// Writes every span as one JSON object per line. False on IO error.
bool WriteJsonLines(const std::string& path);

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
