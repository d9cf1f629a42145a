// Spans recorded by the benchmark around its own calls into kbtim's
// layers. A span carries a name, start and end, the span that was open
// when it started (its parent) and the request it belongs to. Spans stay
// in memory until the run ends and are then written as JSON lines.
//
// One thread records: the benchmark drives every workload from a single
// closed-loop client, and its probes run on that same thread. A disabled
// tracer reads no clock and stores nothing, so the untraced run pays one
// branch per call site.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  std::string name;
  uint64_t request = 0;  ///< Query index, or 0 for set-up and checks.
  int32_t parent = -1;   ///< Index into the span list, -1 for a root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Busy time of one span name: spans closed, their summed duration, and
/// their summed self time (duration minus what child spans cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A traced run alternates traced and untraced passes to measure the
  /// tracer's own overhead; while not recording, Begin stores nothing.
  void SetRecording(bool recording) { recording_ = recording; }

  /// Opens a span as a child of the innermost open one. Returns its
  /// index, or -1 when disabled.
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t span);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t request = 0)
        : tracer_(tracer), span_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_.End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t span_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes one JSON object per span, then one per span-name total.
  kbtim::Status Write(const std::string& path) const;

 private:
  /// Duration of `span` not covered by the union of its children.
  int64_t SelfNs(size_t span) const;

  const bool enabled_;
  bool recording_ = true;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  std::vector<std::vector<int32_t>> children_;
};

/// Monotonic clock in nanoseconds (the tracer's time base).
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
