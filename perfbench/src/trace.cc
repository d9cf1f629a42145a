#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

int32_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_ || !recording_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  if (span.parent >= 0) children_[span.parent].push_back(index);
  spans_.push_back(std::move(span));
  children_.emplace_back();
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::End(int32_t span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  // Scopes close innermost first, so the span is on top of the stack.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int64_t Tracer::SelfNs(size_t span) const {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (int32_t child : children_[span]) {
    covered.emplace_back(spans_[child].start_ns, spans_[child].end_ns);
  }
  std::sort(covered.begin(), covered.end());
  int64_t busy = 0;
  int64_t cursor = spans_[span].start_ns;
  for (const auto& [start, end] : covered) {
    const int64_t from = std::max(start, cursor);
    const int64_t to = std::min(end, spans_[span].end_ns);
    if (to > from) {
      busy += to - from;
      cursor = to;
    }
  }
  return (spans_[span].end_ns - spans_[span].start_ns) - busy;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) /
                  1e6;
    t.self_ms += static_cast<double>(SelfNs(i)) / 1e6;
  }
  return totals;
}

kbtim::Status Tracer::Write(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
  if (out == nullptr) {
    return kbtim::Status::IOError("cannot write trace file " + path);
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "{\"span\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3);
  }
  for (const auto& [name, t] : Totals()) {
    std::fprintf(out.get(),
                 "{\"totals\": \"%s\", \"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}\n",
                 name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_ms, t.self_ms);
  }
  if (std::ferror(out.get()) != 0) {
    return kbtim::Status::IOError("failed writing trace file " + path);
  }
  return kbtim::Status::OK();
}

}  // namespace perfbench
