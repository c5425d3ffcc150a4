// uvd_perfbench: runs one workload of the repository benchmark.
//
//   uvd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> --out-dir <dir> [--git-sha <sha>]
//                 [--src-digest <hash>]
//
// Inputs come only from --seed. --trace 0 measures the end-to-end metrics
// with no spans recorded; --trace 1 is the separate traced run that
// reports the per-layer metrics. perfbench/run.py builds this binary from
// the checkout and is the command BENCHMARK.json names.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "geom/batch/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py verifies the summary against it).
const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},          {"build_s", "s"},         {"pnn_p50_us", "us"},
    {"pnn_p90_us", "us"},      {"ops_per_s", "1/s"},     {"bytes_per_object", "B"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricName> kPerLayer = {
    {"rtree.bulk_load_ms", "ms"},
    {"rtree.node_visits_per_object", "count"},
    {"rtree.leafmemo_hit_ratio", "ratio"},
    {"core.stage1_s", "s"},
    {"geom.hyperbola_tests_per_object", "count"},
    {"geom.envelope_insertions_per_object", "count"},
    {"core.avg_cr_objects", "count"},
    {"core.stage2_s", "s"},
    {"core.overlap_checks_per_object", "count"},
    {"core.fourpoint_tests_per_object", "count"},
    {"core.locate_us", "us"},
    {"core.leaf_read_us", "us"},
    {"core.dminmax_us", "us"},
    {"core.candidates_per_query", "count"},
    {"core.dminmax_keep_ratio", "ratio"},
    {"uncertain.fetch_us", "us"},
    {"uncertain.qualification_us", "us"},
    {"uncertain.integrations_per_query", "count"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.engine_self_us", "us"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.page_reads_per_query", "count"},
    {"storage.pool_evictions_per_query", "count"},
    {"storage.pages_written_per_insert", "count"},
    {"storage.pages_written_per_checkpoint", "count"},
    {"storage.fsyncs_per_checkpoint", "count"},
    {"shard.fanout_per_query", "count"},
    {"shard.query_imbalance", "ratio"},
    {"shard.replica_ratio", "ratio"},
    {"core.insert_p50_ms", "ms"},
    {"core.insert_p90_ms", "ms"},
    {"core.checkpoint_p50_ms", "ms"},
    {"core.open_ms", "ms"},
    {"query.ids_p50_us", "us"},
    {"query.ids_p99_us", "us"},
    {"shard.partition_p50_us", "us"},
    {"shard.open_ms", "ms"},
    {"obs.tracing_overhead_pct", "%"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "uvd_perfbench: %s\nusage: uvd_perfbench --workload "
               "pnn_stream|build_skewed|durable_churn|sharded_clustered --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
               "[--git-sha SHA] [--src-digest HASH]\n",
               msg);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty() && mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) partial += path[i];
  }
  return true;
}

int Main(int argc, char** argv) {
  Config cfg;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (cfg.work_dir.empty() || cfg.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }
  void (*run)(Context*) = nullptr;
  if (cfg.workload == "pnn_stream") run = RunPnnStream;
  if (cfg.workload == "build_skewed") run = RunBuildSkewed;
  if (cfg.workload == "durable_churn") run = RunDurableChurn;
  if (cfg.workload == "sharded_clustered") run = RunShardedClustered;
  if (run == nullptr) return Usage(("unknown workload " + cfg.workload).c_str());
  if (!MakeDirs(cfg.work_dir) || !MakeDirs(cfg.out_dir)) {
    return Usage("cannot create --work-dir / --out-dir");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.threads = hw == 0 ? 1 : static_cast<int>(hw);

  Context ctx(cfg);
  Report& r = ctx.report;
  r.Env("workload", cfg.workload);
  r.Env("seed", static_cast<double>(cfg.seed));
  r.Env("seconds", cfg.seconds);
  r.Env("trace", cfg.trace ? "1 (per-layer metrics)" : "0 (end-to-end metrics)");
  r.Env("nproc", static_cast<double>(cfg.threads));
  r.Env("cpu_model", CpuModel());
  r.Env("build_type", std::string(PERFBENCH_BUILD_TYPE) + " (library and benchmark)");
#if defined(__clang__)
  r.Env("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  r.Env("compiler", "gcc " __VERSION__);
#else
  r.Env("compiler", "unknown");
#endif
  r.Env("simd_isa", uvd::geom::batch::SimdIsa());
  r.Env("git_sha", git_sha);
  r.Env("src_digest", src_digest);
  r.Env("client", "one process, one closed-loop client thread");
  r.Env("pool_threads", "build and router pools capped at nproc");

  run(&ctx);

  std::vector<std::string> gated;
  for (const MetricName& m : cfg.trace ? kPerLayer : kEndToEnd) {
    if (cfg.trace && !r.has(m.name)) {
      r.Set(m.name, 0.0, m.unit, 0);
      r.MarkUnexercised(m.name);
    }
    gated.push_back(m.name);
  }
  if (cfg.trace) {
    std::printf("== layer self time (traced run) ==\n");
    ctx.tracer.PrintSelfTimeTable();
    for (const auto& [layer, t] : ctx.tracer.ByLayer()) {
      r.Set("trace." + layer + ".self_s", t.self_s, "s", t.spans);
      r.Set("trace." + layer + ".thread_cpu_s", t.cpu_s, "s", t.spans);
    }
  }
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" + (cfg.trace ? "1" : "0");
  const std::string details = r.PrintDetails(cfg.workload);
  std::ofstream(stem + ".json") << details << "\n";
  if (cfg.trace && !ctx.tracer.WriteJsonLines(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "uvd_perfbench: cannot write %s.spans.jsonl\n", stem.c_str());
    return 1;
  }
  std::printf("detail record: %s.json\n", stem.c_str());
  return r.PrintSummary(gated) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
