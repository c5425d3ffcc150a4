#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  SpanRecord rec;
  rec.name = name;
  rec.request = tracer_->request_;
  rec.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(rec));
  tracer_->open_.push_back(index_);
  cpu_start_ = ThreadCpuNs();
  tracer_->spans_.back().start_ns = NowNs() - tracer_->epoch_ns_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs() - tracer_->epoch_ns_;
  SpanRecord& rec = tracer_->spans_[static_cast<size_t>(index_)];
  rec.end_ns = end;
  rec.cpu_ns = ThreadCpuNs() - cpu_start_;
  tracer_->open_.pop_back();
}

Samples Tracer::DurationsUs(const std::string& name) const {
  Samples s;
  for (const SpanRecord& r : spans_) {
    if (name == r.name) s.Add(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
  }
  return s;
}

Samples Tracer::ChildrenUs(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& r : spans_) {
    if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  Samples s;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) s.Add(static_cast<double>(child_ns[i]) / 1e3);
  }
  return s;
}

std::map<std::string, Tracer::LayerTime> Tracer::ByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& r : spans_) {
    if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    const std::string name = r.name;
    LayerTime& t = out[name.substr(0, name.find('.'))];
    const int64_t wall = r.end_ns - r.start_ns;
    t.wall_s += static_cast<double>(wall) / 1e9;
    t.self_s += static_cast<double>(wall - child_ns[i]) / 1e9;
    t.cpu_s += static_cast<double>(r.cpu_ns) / 1e9;
    ++t.spans;
  }
  return out;
}

void Tracer::PrintSelfTimeTable() const {
  std::printf("  %-12s %10s %12s %12s %12s\n", "layer", "spans", "wall s", "self s",
              "thread-cpu s");
  for (const auto& [layer, t] : ByLayer()) {
    std::printf("  %-12s %10llu %12.6f %12.6f %12.6f\n", layer.c_str(),
                static_cast<unsigned long long>(t.spans), t.wall_s, t.self_s, t.cpu_s);
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": %s, \"request\": %llu, \"parent\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"wall_ns\": %lld, "
                 "\"cpu_ns\": %lld}\n",
                 i, JsonQuote(r.name).c_str(), static_cast<unsigned long long>(r.request),
                 static_cast<long long>(r.parent), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.end_ns - r.start_ns),
                 static_cast<long long>(r.cpu_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
