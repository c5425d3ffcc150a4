// pnn_stream: an in-RAM uniform diagram served to one closed-loop client
// that walks a random-waypoint trajectory (step = domain / 400) and sends
// one PNN per QueryEngine::ExecuteBatch call, with a 1-thread engine and
// its leaf cache on. Qualification is nearly all of each query's time
// here, so a qualification change shows in pnn_p50_us / ops_per_s, while
// build and storage changes show only in setup_s and build_s. The client
// walks the same stretch of trajectory over and over, and the gated
// latencies take each probe's best pass (see PerProbeMin).
#include <memory>
#include <string>

#include "datagen/workload.h"
#include "query/query_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
// Length of the trajectory stretch the client walks in passes. Each
// complete pass sees every probe once; a run ends on a pass boundary.
constexpr size_t kProbeSet = 2000;
constexpr size_t kMinPasses = 2;
// Every kCheckEvery-th served probe is checked against the R-tree baseline,
// and the first kMonteCarloChecks of those against sampling. Only those
// answers are kept (the traced run keeps all, to compare them bitwise), so
// memory does not grow with the number of queries a run completes.
constexpr size_t kCheckEvery = 100;
constexpr size_t kMonteCarloChecks = 5;

uvd::query::QueryEngineOptions EngineOptions() {
  uvd::query::QueryEngineOptions o;
  o.threads = 1;
  o.enable_cache = true;
  return o;
}

}  // namespace

void RunPnnStream(Context* ctx) {
  const Config& cfg = ctx->cfg;
  Report& r = ctx->report;
  const uvd::datagen::DatasetOptions data = PaperDataset(DeriveSeed(cfg.seed, 1));
  const uvd::geom::Box domain = uvd::datagen::DomainFor(data);
  const uvd::core::UVDiagramOptions options = DiagramOptions(cfg.threads);

  // Set-up: generate, build, start the engine; repeated, median reported.
  Samples setup_s, build_s;
  std::unique_ptr<uvd::core::UVDiagram> diagram;
  std::unique_ptr<uvd::query::QueryEngine> engine;
  for (int rep = 0; rep < (cfg.trace ? 1 : kSetupReps); ++rep) {
    engine.reset();
    diagram.reset();
    const int64_t t0 = NowNs();
    auto objects = uvd::datagen::GenerateUniform(data);
    const int64_t tb = NowNs();
    auto built = uvd::core::UVDiagram::Build(std::move(objects), domain, options);
    const int64_t te = NowNs();
    r.Attempt();
    if (!built.ok()) {
      r.Fail("build: " + built.status().ToString());
      return;
    }
    diagram = std::make_unique<uvd::core::UVDiagram>(std::move(built).value());
    engine = std::make_unique<uvd::query::QueryEngine>(*diagram, EngineOptions());
    build_s.Add(Seconds(tb, te));
    setup_s.Add(Seconds(t0, NowNs()));
  }
  const std::vector<uint64_t> build_ticks =
      TickerSnapshot(uvd::Stats()).Deltas(diagram->stats());

  const std::vector<uvd::geom::Point> probes = uvd::datagen::TrajectoryQueryPoints(
      static_cast<int>(kProbeSet), domain, domain.Width() / 400.0, DeriveSeed(cfg.seed, 2));

  r.Env("objects", static_cast<double>(kObjects));
  r.Env("dataset", "uniform, paper defaults");
  r.Env("probe_stream",
        "random-waypoint trajectory, step = domain/400, one PNN per ExecuteBatch; "
        "the first " + std::to_string(kProbeSet) + " probes walked in whole passes");
  r.Env("engine", "threads=1, leaf cache on");
  r.Env("io_regime", "in-RAM page manager, no simulated read latency");
  r.Env("buffer_pool_pages", "none (in-RAM)");
  r.Env("flush_policy", "none (no writes after set-up)");

  // Timed closed loop through the opaque engine. The traced run times half
  // as long here and then replays the same probes decomposed.
  const double budget_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  Samples latency_us;
  std::vector<Answers> answers;  // kept answers, see kCheckEvery
  double busy_s = 0.0;
  size_t served = 0;
  const TickerSnapshot before_loop(diagram->stats());
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  while (served < kMinPasses * kProbeSet || served % kProbeSet != 0 || NowNs() < deadline) {
    const uvd::query::QueryBatch batch{
        uvd::query::Query::Pnn(probes[served % probes.size()])};
    const int64_t t0 = NowNs();
    std::vector<uvd::query::QueryResult> results = engine->ExecuteBatch(batch);
    const int64_t t1 = NowNs();
    r.Attempt();
    latency_us.Add(static_cast<double>(t1 - t0) / 1e3);
    busy_s += Seconds(t0, t1);
    if (!results[0].status.ok()) {
      r.Fail("pnn: " + results[0].status.ToString());
    } else {
      const std::string sum = CheckProbabilitySum(results[0].pnn);
      r.Check(sum.empty(), "probability sum: " + sum);
    }
    if (cfg.trace || served % kCheckEvery == 0) answers.push_back(std::move(results[0].pnn));
    ++served;
  }
  const std::vector<uint64_t> loop_ticks = before_loop.Deltas(diagram->stats());
  r.Set("peak_rss_mb", PeakRssMb(), "MB", 1);

  // Gated: each probe's best pass, and the throughput of a pass at those
  // best latencies. Every served query is also summarized as measured
  // (pnn_raw_*, pnn_qps).
  const Samples best_us = PerProbeMin(latency_us.values(), kProbeSet);
  r.Env("passes", static_cast<double>(served / kProbeSet));
  r.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  r.Set("build_s", build_s.Median(), "s", build_s.size());
  r.Set("pnn_p50_us", best_us.Median(), "us", served);
  r.Set("pnn_p90_us", best_us.Percentile(90.0), "us", served);
  r.Set("ops_per_s", static_cast<double>(kProbeSet) / (best_us.Sum() / 1e6), "1/s", served);
  r.SetLatency("pnn_raw", latency_us, "us");
  r.Set("pnn_qps", static_cast<double>(served) / busy_s, "1/s", served);
  r.Set("bytes_per_object",
        static_cast<double>(diagram->page_manager().bytes_on_disk()) /
            static_cast<double>(diagram->objects().size()),
        "B", 1);

  // Baseline and Monte Carlo checks on the kept sample.
  const size_t stride = cfg.trace ? kCheckEvery : 1;  // kept index -> served index
  for (size_t k = 0; k * stride < answers.size(); ++k) {
    const Answers& a = answers[k * stride];
    if (a.empty()) continue;  // a failed query, already counted
    const size_t i = k * kCheckEvery;
    CheckPnnAnswers(ctx, *diagram, probes[i % probes.size()], a, /*baseline=*/true,
                    k < kMonteCarloChecks, DeriveSeed(cfg.seed, 100 + i));
  }
  if (!cfg.trace) return;

  // ---- Traced run: the build, decomposed.
  {
    uvd::Stats stats;
    DecomposedIndex dec;
    ctx->tracer.BeginRequest();
    const uvd::Status st =
        DecomposedBuild(&ctx->tracer, diagram->objects(), domain, options, &stats, &dec);
    r.Check(st.ok(), "decomposed build: " + st.ToString());
    if (!st.ok()) return;
    const std::string same =
        CheckDigest(ImageDigest(*dec.index, *dec.pm),
                    ImageDigest(diagram->index(), diagram->page_manager()),
                    "decomposed build image vs UVDiagram::Build");
    r.Check(same.empty(), same);
    CheckTickersRepeat(ctx, build_ticks, TickerSnapshot(uvd::Stats()).Deltas(stats),
                       "UVDiagram::Build vs decomposed build",
                       /*include_schedule_dependent=*/false);
    ReportBuildLayers(ctx, diagram->objects(), domain, dec);
  }

  // ---- Traced run: the same probes, decomposed, with a fresh cache.
  IndexView view{&diagram->index(), &diagram->store(), diagram->options().qualification};
  uvd::query::QueryCache cache(EngineOptions().cache);
  QueryCounts counts;
  Tracer* tracer = &ctx->tracer;
  const TickerSnapshot before_traced(diagram->stats());
  bool identical = true;
  for (size_t i = 0; i < served; ++i) {
    tracer->BeginRequest();
    uvd::Result<Answers> got = Answers{};
    {
      Tracer::Span span(tracer, "client.pnn");
      got = DecomposedPnn(tracer, view, &cache, probes[i % probes.size()],
                          &diagram->stats(), &counts);
    }
    if (!got.ok() || !CheckBitwiseEqual(got.value(), answers[i]).empty()) identical = false;
  }
  const Samples traced_us = tracer->DurationsUs("client.pnn");
  const Samples children_us = tracer->ChildrenUs("client.pnn");
  const std::vector<double>& children = children_us.values();
  Samples engine_self_us;
  for (size_t i = 0; i < served; ++i) engine_self_us.Add(latency_us.values()[i] - children[i]);
  r.Check(identical, "decomposed PNN answers bitwise-identical to the engine's");
  const std::vector<uint64_t> traced_ticks = before_traced.Deltas(diagram->stats());
  CheckTickersRepeat(ctx, loop_ticks, traced_ticks, "engine pass vs decomposed pass",
                     /*include_schedule_dependent=*/true);

  const double q = static_cast<double>(served);
  const auto tick = [&traced_ticks](uvd::Ticker t) {
    return static_cast<double>(traced_ticks[static_cast<size_t>(t)]);
  };
  const Tracer& tr = ctx->tracer;
  r.Set("core.locate_us", tr.DurationsUs("core.locate").Median(), "us", served);
  const Samples leaf_reads = tr.DurationsUs("core.leaf_read");
  r.Set("core.leaf_read_us", leaf_reads.Median(), "us", leaf_reads.size());
  r.Set("core.dminmax_us", tr.DurationsUs("core.dminmax").Median(), "us", served);
  r.Set("core.candidates_per_query", static_cast<double>(counts.candidates) / q, "count",
        served);
  r.Set("core.dminmax_keep_ratio",
        Ratio(static_cast<double>(counts.kept), static_cast<double>(counts.candidates)),
        "ratio", served);
  const Samples fetches = tr.DurationsUs("uncertain.fetch");
  r.Set("uncertain.fetch_us", fetches.Median(), "us", fetches.size());
  r.Set("uncertain.qualification_us", tr.DurationsUs("uncertain.qualification").Median(),
        "us", served);
  r.Set("uncertain.integrations_per_query", tick(uvd::Ticker::kQualificationIntegrations) / q,
        "count", served);
  const double hits = tick(uvd::Ticker::kQueryCacheHits);
  r.Set("query.cache_hit_ratio", Ratio(hits, hits + tick(uvd::Ticker::kQueryCacheMisses)),
        "ratio", served);
  r.Set("query.engine_self_us", engine_self_us.Median(), "us", served);
  r.Set("storage.page_reads_per_query", tick(uvd::Ticker::kPageReads) / q, "count", served);
  r.Set("obs.tracing_overhead_pct",
        (traced_us.Median() - latency_us.Median()) / latency_us.Median() * 100.0, "%",
        served);
}

}  // namespace perfbench
