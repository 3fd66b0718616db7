// Host-side span recorder for the benchmark's traced run.
//
// A span is one crossing of a layer boundary by the benchmark: a name, a start and
// an end on the host's steady clock, and the span that caused it. Spans are kept in
// memory while the run executes and written once at the end as a Chrome trace-event
// file (load it in chrome://tracing or Perfetto). Untraced runs pass a null
// recorder, and every helper below is then a no-op, so end-to-end numbers never pay
// for tracing.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  // Opens a span now and returns its id. `name` must be a string literal.
  int Begin(const char* name, int parent) {
    spans_.push_back(Span{name, NowNs(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  // Records an already-timed interval (hot paths time themselves once).
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int parent) {
    spans_.push_back(Span{name, start_ns, end_ns, parent});
  }
  void Reserve(size_t n) { spans_.reserve(spans_.size() + n); }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes every span as a complete ("X") trace event; timestamps are microseconds
  // relative to the first span. Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// RAII span on an optional recorder: does nothing when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
