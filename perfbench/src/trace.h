// In-memory span recorder for the traced run. The benchmark wraps its own
// calls into each library module's public functions in spans, so the
// library itself runs unmodified. A span records its name ("<layer>.<op>"),
// the request it belongs to, its parent span, start and end on the
// steady clock, and the calling thread's CPU time. Spans stay in memory
// until the run ends and are then written out as JSON lines.
//
// The client is a single thread, so spans nest strictly: the open-span
// stack gives each new span its parent, and a layer's self time is its
// spans' wall time minus the part their children cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

class Tracer {
 public:
  struct SpanRecord {
    const char* name = "";  ///< "<layer>.<op>", a string literal
    uint64_t request = 0;
    int64_t parent = -1;  ///< index into spans(), -1 for a root span
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t cpu_ns = 0;
  };

  /// RAII span; a no-op when the tracer is null or disabled.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    int64_t cpu_start_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_ns_(NowNs()) {}

  bool enabled() const { return enabled_; }
  /// Starts a new request: root spans opened after this share a fresh id.
  void BeginRequest() { ++request_; }

  /// Durations of every span with this name, in microseconds.
  Samples DurationsUs(const std::string& name) const;
  /// For every span with this name, in order: the summed duration of its
  /// direct children, in microseconds.
  Samples ChildrenUs(const std::string& name) const;

  struct LayerTime {
    double wall_s = 0.0;  ///< Sum of span wall time (children included).
    double self_s = 0.0;  ///< Wall time minus time covered by child spans.
    double cpu_s = 0.0;   ///< Calling-thread CPU time inside the spans.
    uint64_t spans = 0;
  };
  /// Self time per layer (the part of a span's name before the first '.').
  std::map<std::string, LayerTime> ByLayer() const;

  /// Prints the self-time table and writes every span as one JSON line.
  /// Returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;
  void PrintSelfTimeTable() const;

 private:
  bool enabled_;
  int64_t epoch_ns_;
  uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
