// sharded_clustered: a file-backed ShardedUVDiagram (K = 4, median cuts)
// over a 10:1 two-cluster mixture. The timed part is the sharded Build,
// CloseStorage, a cold Open, then ShardRouter serving one closed-loop
// client whose probes follow the data (object center + N(0, 100)): every
// probe is a PNN, and every tenth also runs a 500 x 500 UV-partition range
// query that fans out across shards. Plain trajectories would mostly probe
// empty space here. This is the only workload through src/shard: router,
// border replicas, per-shard files and the sharded Open. The client sends
// the same probe set over and over, and the gated latencies take each
// probe's best pass (see PerProbeMin).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "query/query_engine.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 2;
constexpr int kTimedBuilds = 5;  // build_s is their median
constexpr int kShards = 4;
constexpr size_t kPartitionEvery = 10;
constexpr double kPartitionSide = 500.0;
// Size of the probe set the client sends in passes. Each complete pass
// sends every probe once (and the same partition queries); serving ends
// on a pass boundary.
constexpr size_t kProbeSet = 1000;
constexpr size_t kMinPasses = 2;
static_assert(kProbeSet % kPartitionEvery == 0, "every pass sends the same partition queries");
// Every kCheckEvery-th served probe is compared with the unsharded diagram
// and the R-tree baseline, the first kMonteCarloChecks of those also with
// sampling. Only those answers are kept (the traced run keeps all, to
// compare them bitwise), so memory does not grow with the query count.
constexpr size_t kCheckEvery = 10;
constexpr size_t kMonteCarloChecks = 3;

using uvd::shard::ShardedUVDiagram;

uvd::shard::ShardedUVDiagramOptions ShardOptions(const std::string& prefix, int threads,
                                                 size_t pool_pages) {
  uvd::shard::ShardedUVDiagramOptions o;
  o.num_shards = kShards;
  o.partitioning = uvd::shard::ShardPartitioning::kMedian;
  o.diagram = DiagramOptions(threads);
  o.diagram.storage_path = prefix;
  o.diagram.buffer_pool_pages = pool_pages;
  return o;
}

uvd::shard::ShardRouterOptions RouterOptions(int threads) {
  uvd::shard::ShardRouterOptions o;
  o.engine.threads = 1;
  o.engine.enable_cache = true;
  o.router_threads = std::min(kShards, threads);
  return o;
}

uvd::geom::Box RangeAround(const uvd::geom::Point& p, const uvd::geom::Box& domain) {
  const double h = kPartitionSide / 2.0;
  const double x = std::clamp(p.x, domain.lo.x + h, domain.hi.x - h);
  const double y = std::clamp(p.y, domain.lo.y + h, domain.hi.y - h);
  return uvd::geom::Box{{x - h, y - h}, {x + h, y + h}};
}

bool SamePartitions(const std::vector<uvd::core::UvPartition>& a,
                    const std::vector<uvd::core::UvPartition>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].leaf != b[i].leaf || a[i].object_count != b[i].object_count ||
        !(a[i].region.lo.x == b[i].region.lo.x && a[i].region.lo.y == b[i].region.lo.y &&
          a[i].region.hi.x == b[i].region.hi.x && a[i].region.hi.y == b[i].region.hi.y)) {
      return false;
    }
  }
  return true;
}

/// Builds into files at `prefix` and closes them, `builds` times (each
/// build overwrites the last), then reopens cold. Returns null on failure
/// (already reported). Spans: shard.build, shard.close, shard.open.
std::unique_ptr<ShardedUVDiagram> BuildCloseOpen(
    Context* ctx, const std::vector<uvd::uncertain::UncertainObject>& objects,
    const uvd::geom::Box& domain, const std::string& prefix, Tracer* tracer, int builds,
    Samples* build_s, double* open_ms, uint64_t* file_bytes, size_t* pool_pages) {
  Report& r = ctx->report;
  const int threads = ctx->cfg.threads;
  for (int b = 0; b < builds; ++b) {
    tracer->BeginRequest();
    const int64_t t0 = NowNs();
    uvd::Result<ShardedUVDiagram> built = uvd::Status::OK();
    {
      Tracer::Span span(tracer, "shard.build");
      built = ShardedUVDiagram::Build(objects, domain, ShardOptions(prefix, threads, 0));
    }
    build_s->Add(Seconds(t0, NowNs()));
    r.Attempt();
    if (!built.ok()) {
      r.Fail("sharded build: " + built.status().ToString());
      return nullptr;
    }
    uvd::Status st;
    {
      Tracer::Span span(tracer, "shard.close");
      st = built.value().CloseStorage();
    }
    r.Attempt();
    if (!st.ok()) {
      r.Fail("sharded close: " + st.ToString());
      return nullptr;
    }
  }
  // Pool: 1/8 of the file pages, split evenly over the shards.
  *file_bytes = 0;
  for (int s = 0; s < kShards; ++s) {
    *file_bytes += FileBytes(ShardedUVDiagram::ShardFilePath(prefix, static_cast<size_t>(s)));
  }
  const uint64_t pages = *file_bytes / (uvd::storage::kPageFrameHeaderSize +
                                        uvd::storage::kDefaultPageSize);
  *pool_pages = std::max<uint64_t>(1, pages / 8 / kShards);
  tracer->BeginRequest();
  const int64_t t0 = NowNs();
  uvd::Result<ShardedUVDiagram> opened = uvd::Status::OK();
  {
    Tracer::Span span(tracer, "shard.open");
    opened = ShardedUVDiagram::Open(prefix, ShardOptions(prefix, threads, *pool_pages));
  }
  *open_ms = static_cast<double>(NowNs() - t0) / 1e6;
  r.Attempt();
  if (!opened.ok()) {
    r.Fail("sharded open: " + opened.status().ToString());
    return nullptr;
  }
  return std::make_unique<ShardedUVDiagram>(std::move(opened).value());
}

}  // namespace

void RunShardedClustered(Context* ctx) {
  const Config& cfg = ctx->cfg;
  Report& r = ctx->report;
  const uvd::datagen::DatasetOptions data = PaperDataset(DeriveSeed(cfg.seed, 1));
  const uvd::geom::Box domain = uvd::datagen::DomainFor(data);
  const std::vector<uvd::datagen::ClusterSpec> clusters = {
      {{2500.0, 2500.0}, 600.0, 10.0}, {{7500.0, 7500.0}, 600.0, 1.0}};

  // Set-up: generate the mixture and build the unsharded in-RAM diagram
  // the router's answers must equal; repeated, median reported.
  Samples setup_s;
  std::vector<uvd::uncertain::UncertainObject> objects;
  std::unique_ptr<uvd::core::UVDiagram> reference;
  for (int rep = 0; rep < (cfg.trace ? 1 : kSetupReps); ++rep) {
    reference.reset();
    const int64_t t0 = NowNs();
    objects = uvd::datagen::GenerateClusters(data, clusters);
    auto built = uvd::core::UVDiagram::Build(objects, domain, DiagramOptions(cfg.threads));
    r.Attempt();
    if (!built.ok()) {
      r.Fail("unsharded reference build: " + built.status().ToString());
      return;
    }
    reference = std::make_unique<uvd::core::UVDiagram>(std::move(built).value());
    setup_s.Add(Seconds(t0, NowNs()));
  }
  const std::vector<uvd::geom::Point> probes =
      DataFollowingPoints(objects, domain, kProbeSet, DeriveSeed(cfg.seed, 2));
  const std::string prefix = cfg.work_dir + "/sharded";

  r.Env("objects", static_cast<double>(kObjects));
  r.Env("dataset", "two Gaussian clusters, sigma 600, weights 10:1");
  r.Env("shards", "K = 4, median cuts, one file per shard");
  r.Env("probe_stream",
        std::to_string(kProbeSet) +
            " data-following PNN probes (object center + N(0, 100)) sent in whole passes; "
            "every " + std::to_string(kPartitionEvery) +
            "th also a 500 x 500 UV-partition query");
  r.Env("router", "router_threads = min(K, nproc), engine threads=1, leaf cache on");
  r.Env("io_regime", "real files under " + cfg.work_dir + " (page cache not dropped)");
  r.Env("flush_policy", "none while serving (CloseStorage after the build)");

  // Timed: build and close (five times; once in the traced run), open,
  // then serve for half the run's seconds (a quarter in the traced run).
  // The build count is fixed, so slow builds never shorten the serving.
  const double serve_s = (cfg.trace ? cfg.seconds / 2.0 : cfg.seconds) / 2.0;
  Tracer untraced(false);
  Samples build_s;
  double open_ms = 0.0;
  uint64_t file_bytes = 0;
  size_t pool_pages = 0;
  std::unique_ptr<ShardedUVDiagram> diagram =
      BuildCloseOpen(ctx, objects, domain, prefix, &untraced, cfg.trace ? 1 : kTimedBuilds,
                     &build_s, &open_ms, &file_bytes, &pool_pages);
  if (diagram == nullptr) return;
  r.Env("buffer_pool_pages_per_shard", static_cast<double>(pool_pages));

  auto router = std::make_unique<uvd::shard::ShardRouter>(*diagram, RouterOptions(cfg.threads));
  const uvd::Stats before_serving = diagram->AggregateStats();
  Samples pnn_us, partition_us;
  std::vector<Answers> answers;
  std::vector<std::vector<uvd::core::UvPartition>> partitions;  // traced run only
  size_t partition_queries = 0;
  double serving_s = 0.0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(serve_s * 1e9);
  size_t served = 0;
  while (served < kMinPasses * kProbeSet || served % kProbeSet != 0 || NowNs() < deadline) {
    const size_t i = served;
    const uvd::geom::Point& p = probes[i % probes.size()];
    int64_t t0 = NowNs();
    std::vector<uvd::query::QueryResult> res = router->ExecuteBatch({uvd::query::Query::Pnn(p)});
    int64_t t1 = NowNs();
    r.Attempt();
    pnn_us.Add(static_cast<double>(t1 - t0) / 1e3);
    serving_s += Seconds(t0, t1);
    if (!res[0].status.ok()) {
      r.Fail("pnn: " + res[0].status.ToString());
    } else {
      const std::string sum = CheckProbabilitySum(res[0].pnn);
      r.Check(sum.empty(), "probability sum: " + sum);
    }
    if (cfg.trace || i % kCheckEvery == 0) answers.push_back(std::move(res[0].pnn));
    ++served;
    if (i % kPartitionEvery == 0) {
      t0 = NowNs();
      res = router->ExecuteBatch({uvd::query::Query::UvPartitions(RangeAround(p, domain))});
      t1 = NowNs();
      r.Attempt();
      partition_us.Add(static_cast<double>(t1 - t0) / 1e3);
      serving_s += Seconds(t0, t1);
      if (!res[0].status.ok()) r.Fail("partitions: " + res[0].status.ToString());
      if (cfg.trace) partitions.push_back(std::move(res[0].partitions));
      ++partition_queries;
    }
  }
  const std::vector<uint64_t> serving_ticks =
      TickerSnapshot(before_serving).Deltas(diagram->AggregateStats());
  const uint64_t queries = served + partition_queries;
  r.Set("peak_rss_mb", PeakRssMb(), "MB", 1);

  r.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  r.Set("build_s", build_s.Median(), "s", build_s.size());
  r.Set("open_ms", open_ms, "ms", 1);
  // Gated: each probe's best pass, and the throughput of a pass (PNN and
  // partition queries) at each query's best latency. Every served query is
  // also summarized as measured (pnn_raw_*, router_qps).
  const Samples best_us = PerProbeMin(pnn_us.values(), kProbeSet);
  const Samples best_partition_us =
      PerProbeMin(partition_us.values(), kProbeSet / kPartitionEvery);
  r.Env("passes", static_cast<double>(served / kProbeSet));
  r.Set("pnn_p50_us", best_us.Median(), "us", pnn_us.size());
  r.Set("pnn_p90_us", best_us.Percentile(90.0), "us", pnn_us.size());
  r.SetLatency("pnn_raw", pnn_us, "us");
  r.SetLatency("partition", partition_us, "us");
  r.Set("ops_per_s",
        static_cast<double>(best_us.size() + best_partition_us.size()) /
            ((best_us.Sum() + best_partition_us.Sum()) / 1e6),
        "1/s", queries);
  r.Set("router_qps", static_cast<double>(queries) / serving_s, "1/s", queries);
  r.Set("bytes_per_object",
        static_cast<double>(file_bytes) / static_cast<double>(objects.size()), "B", 1);

  // Output checks: sums on every answer; a sample must equal the unsharded
  // diagram bit for bit (digest) and the R-tree baseline's ids.
  uvd::query::QueryEngineOptions eo;
  eo.threads = 1;
  eo.enable_cache = false;
  uvd::query::QueryEngine reference_engine(*reference, eo);
  uint64_t sharded_digest = kDigestSeed, unsharded_digest = kDigestSeed;
  const size_t stride = cfg.trace ? kCheckEvery : 1;  // kept index -> served index
  for (size_t k = 0; k * stride < answers.size(); ++k) {
    const Answers& a = answers[k * stride];
    if (a.empty()) continue;  // a failed query, already counted
    const uvd::geom::Point& p = probes[(k * kCheckEvery) % probes.size()];
    CheckPnnAnswers(ctx, *reference, p, a, /*baseline=*/true, k < kMonteCarloChecks,
                    DeriveSeed(cfg.seed, 100 + k));
    sharded_digest = DigestAnswers(sharded_digest, a);
    unsharded_digest = DigestAnswers(
        unsharded_digest, reference_engine.ExecuteBatch({uvd::query::Query::Pnn(p)})[0].pnn);
  }
  const std::string same =
      CheckDigest(sharded_digest, unsharded_digest, "router vs unsharded in-RAM diagram");
  r.Check(same.empty(), same);

  if (!cfg.trace) {
    router.reset();
    diagram.reset();
    for (int s = 0; s < kShards; ++s) {
      std::remove(ShardedUVDiagram::ShardFilePath(prefix, static_cast<size_t>(s)).c_str());
    }
    return;
  }

  // ---- Traced run: build, close and open again in spans, then replay the
  // served requests decomposed: route, then the shard's query calls.
  Tracer* tracer = &ctx->tracer;
  Samples traced_build_s;
  double traced_open_ms = 0.0;
  uint64_t traced_bytes = 0;
  size_t traced_pool = 0;
  router.reset();
  diagram.reset();
  diagram = BuildCloseOpen(ctx, objects, domain, prefix, tracer, 1, &traced_build_s,
                           &traced_open_ms, &traced_bytes, &traced_pool);
  if (diagram == nullptr) return;
  r.Check(traced_bytes == file_bytes, "traced sharded build writes the same file bytes");
  std::vector<std::unique_ptr<uvd::query::QueryCache>> caches;
  for (int s = 0; s < kShards; ++s) {
    caches.push_back(std::make_unique<uvd::query::QueryCache>(RouterOptions(1).engine.cache));
  }
  const uvd::Stats before_traced = diagram->AggregateStats();
  std::vector<uint64_t> routed(kShards, 0);
  QueryCounts counts;
  bool identical = true;
  size_t partition_index = 0;
  for (size_t i = 0; i < served; ++i) {
    const uvd::geom::Point& p = probes[i % probes.size()];
    tracer->BeginRequest();
    {
      Tracer::Span request(tracer, "client.pnn");
      int s = 0;
      {
        Tracer::Span span(tracer, "shard.route");
        s = diagram->ShardIndexForPoint(p);
      }
      ++routed[static_cast<size_t>(s)];
      const uvd::query::DiagramView view = diagram->ViewOfShard(static_cast<size_t>(s));
      auto got = DecomposedPnn(tracer, IndexView{view.index, view.store, view.qualification},
                               caches[static_cast<size_t>(s)].get(), p, view.stats, &counts);
      if (!got.ok() || !CheckBitwiseEqual(got.value(), answers[i]).empty()) identical = false;
    }
    if (i % kPartitionEvery != 0) continue;
    tracer->BeginRequest();
    Tracer::Span request(tracer, "client.partitions");
    const uvd::geom::Box range = RangeAround(p, domain);
    std::vector<int> targets;
    {
      Tracer::Span span(tracer, "shard.route");
      targets = diagram->ShardsForRange(range);
    }
    std::vector<uvd::core::UvPartition> merged;
    for (const int s : targets) {
      ++routed[static_cast<size_t>(s)];
      const uvd::query::DiagramView view = diagram->ViewOfShard(static_cast<size_t>(s));
      Tracer::Span span(tracer, "core.partitions");
      const auto part = uvd::core::RetrieveUvPartitions(*view.index, range, view.stats);
      merged.insert(merged.end(), part.begin(), part.end());
    }
    if (!SamePartitions(merged, partitions[partition_index++])) identical = false;
  }
  r.Check(identical, "decomposed sharded answers identical to the router's");
  CheckTickersRepeat(ctx, serving_ticks,
                     TickerSnapshot(before_traced).Deltas(diagram->AggregateStats()),
                     "router pass vs decomposed pass", /*include_schedule_dependent=*/true);

  const Tracer& tr = ctx->tracer;
  const Samples part = tr.DurationsUs("client.partitions");
  r.Set("shard.partition_p50_us", part.Median(), "us", part.size());
  r.Set("shard.open_ms", tr.DurationsUs("shard.open").Median() / 1e3, "ms", 1);
  uint64_t total = 0, most = 0;
  for (const uint64_t n : routed) {
    total += n;
    most = std::max(most, n);
  }
  r.Set("shard.fanout_per_query", static_cast<double>(total) / static_cast<double>(queries),
        "count", queries);
  r.Set("shard.query_imbalance",
        static_cast<double>(most) / (static_cast<double>(total) / kShards), "ratio", queries);
  size_t registered = 0;
  for (const auto& b : diagram->BalanceReport()) registered += b.objects;
  r.Set("shard.replica_ratio",
        static_cast<double>(registered - objects.size()) / static_cast<double>(objects.size()),
        "ratio", objects.size());
  const Samples qual = tr.DurationsUs("uncertain.qualification");
  r.Set("uncertain.qualification_us", qual.Median(), "us", qual.size());
  const auto tick = [](const std::vector<uint64_t>& d, uvd::Ticker t) {
    return static_cast<double>(d[static_cast<size_t>(t)]);
  };
  r.Set("uncertain.integrations_per_query",
        tick(serving_ticks, uvd::Ticker::kQualificationIntegrations) /
            static_cast<double>(served),
        "count", served);
  r.Set("core.candidates_per_query",
        static_cast<double>(counts.candidates) / static_cast<double>(served), "count", served);
  r.Set("obs.tracing_overhead_pct",
        (tr.DurationsUs("client.pnn").Median() - pnn_us.Median()) / pnn_us.Median() * 100.0,
        "%", served);

  diagram.reset();
  for (int s = 0; s < kShards; ++s) {
    std::remove(ShardedUVDiagram::ShardFilePath(prefix, static_cast<size_t>(s)).c_str());
  }
}

}  // namespace perfbench
