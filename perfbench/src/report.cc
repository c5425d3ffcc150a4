#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

/// Round-trip decimal for a double ("null" for non-finite).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::Sum() const {
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum;
}

double Samples::Tail(std::string* label) const {
  static const struct {
    double p;
    const char* label;
  } kTails[] = {{99.99, "p9999"}, {99.9, "p999"}, {99.0, "p99"}, {90.0, "p90"}};
  const double n = static_cast<double>(values_.size());
  for (const auto& t : kTails) {
    if (n * (100.0 - t.p) / 100.0 >= 10.0 - 1e-9) {
      *label = t.label;
      return Percentile(t.p);
    }
  }
  *label = "none";
  return 0.0;
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  Metric& m = metrics_[name];
  m.value = value;
  m.unit = unit;
  m.samples = samples;
  m.exercised = true;
}

Samples PerProbeMin(const std::vector<double>& latencies, size_t set_size) {
  Samples out;
  const size_t passes = set_size == 0 ? 0 : latencies.size() / set_size;
  if (passes == 0) return out;
  for (size_t p = 0; p < set_size; ++p) {
    double best = latencies[p];
    for (size_t k = 1; k < passes; ++k) best = std::min(best, latencies[k * set_size + p]);
    out.Add(best);
  }
  return out;
}

void Report::SetLatency(const std::string& prefix, const Samples& s,
                        const std::string& unit) {
  Set(prefix + "_p50_" + unit, s.Median(), unit, s.size());
  std::string label;
  const double tail = s.Tail(&label);
  if (label != "none") Set(prefix + "_" + label + "_" + unit, tail, unit, s.size());
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 50) failures_.push_back(what);
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  ++attempted_;
  if (!ok) Fail("check failed: " + what);
}

void Report::Env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, JsonQuote(value));
}

void Report::Env(const std::string& key, double value) {
  env_.emplace_back(key, JsonNumber(value));
}

std::string Report::PrintDetails(const std::string& title) const {
  std::printf("== %s ==\n", title.c_str());
  for (const auto& [key, value] : env_) {
    std::printf("  env %-28s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  %-40s %16s %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-40s %16.6g %-6s %10llu%s\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.exercised ? "" : "  (layer not exercised)");
  }
  std::printf("  checks %llu, operations attempted %llu, failed %llu "
              "(failed_op_share %.6g)\n",
              static_cast<unsigned long long>(checks_),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_));
  for (const std::string& f : failures_) std::printf("  FAIL %s\n", f.c_str());

  std::ostringstream out;
  out << "{\"title\": " << JsonQuote(title) << ", \"env\": {";
  for (size_t i = 0; i < env_.size(); ++i) {
    out << (i ? ", " : "") << JsonQuote(env_[i].first) << ": " << env_[i].second;
  }
  out << "}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << JsonQuote(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonQuote(m.unit)
        << ", \"samples\": " << m.samples
        << ", \"exercised\": " << (m.exercised ? "true" : "false") << "}";
    first = false;
  }
  out << "}, \"checks\": " << checks_ << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << JsonQuote(failures_[i]);
  }
  out << "]}";
  return out.str();
}

bool Report::PrintSummary(const std::vector<std::string>& gated) const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < gated.size(); ++i) {
    const auto it = metrics_.find(gated[i]);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was never measured\n",
                   gated[i].c_str());
      return false;
    }
    out << (i ? ", " : "") << JsonQuote(gated[i])
        << ": {\"value\": " << JsonNumber(it->second.value)
        << ", \"unit\": " << JsonQuote(it->second.unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return true;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
