// Result collection for one benchmark run: latency samples, named metrics
// with unit and sample count, output checks, and the environment record.
// The last line the run prints is the machine-readable summary:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// where `metrics` holds exactly the end-to-end metrics (untraced run) or
// exactly the per-layer metrics (traced run) that main.cc lists.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Latency (or duration) samples in the unit the caller chose.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// In the order they were added.
  const std::vector<double>& values() const { return values_; }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in [0, 100]. 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Sum() const;
  /// The highest of p90/p99/p99.9/p99.99 that still has at least ten
  /// samples beyond it (0 when even p90 has fewer); `label` gets "p99" etc.
  double Tail(std::string* label) const;

 private:
  std::vector<double> values_;
};

/// Each probe's lowest latency over repeated passes through a fixed set of
/// `set_size` probes, where `latencies[i]` is a latency of probe
/// `i % set_size`. Other work on the host only ever adds to a latency, and
/// on a shared host it comes and goes over seconds, so the best of several
/// passes per probe tracks the program's own cost much more closely than
/// any one pass does. Only complete passes count.
Samples PerProbeMin(const std::vector<double>& latencies, size_t set_size);

/// One named metric as printed: value, unit, and how many samples it
/// summarizes (1 for a single measurement or an exact count).
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  /// False for a per-layer metric whose layer this workload does not
  /// exercise; it is still printed (as 0) so every run has every key.
  bool exercised = true;
};

/// Everything one run reports.
class Report {
 public:
  /// Records a metric (overwrites an earlier value of the same name).
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  /// Flags a metric as belonging to a layer this workload does not run.
  void MarkUnexercised(const std::string& name) { metrics_[name].exercised = false; }
  /// Records median and tail of `s` as "<prefix>_p50_<unit>" and
  /// "<prefix>_<tail>_<unit>" (extra, not part of the gated sets unless
  /// the names match).
  void SetLatency(const std::string& prefix, const Samples& s, const std::string& unit);

  /// Counts operations: every request, insert, build and check is one
  /// attempt; a non-OK status or a failed check is one failure.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  /// A named output check; failures are counted and listed.
  void Check(bool ok, const std::string& what);

  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);

  bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// Prints the human-readable table (every metric with unit and sample
  /// count, the environment and every failure) and returns the detail
  /// record as one JSON document.
  std::string PrintDetails(const std::string& title) const;

  /// The final summary line. `gated` lists the metric names that go into
  /// "metrics"; a gated name this run never set is an error, reported by
  /// returning false (the summary is not printed then).
  bool PrintSummary(const std::vector<std::string>& gated) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::vector<std::string> failures_;
  uint64_t checks_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// JSON string literal with escapes.
std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
