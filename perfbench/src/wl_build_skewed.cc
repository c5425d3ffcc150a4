// build_skewed: repeated in-RAM IC builds (UVDiagram::Build, build_threads
// = nproc) over one Gaussian cloud with sigma = domain / 8. Stage 2 is
// most of each build here, so stage-2 work shows in build_s; the same
// batch of data-following PNN probes after each build checks the answers
// and gives pnn_p50_us / pnn_p90_us as each probe's best round (see
// PerProbeMin). Every build must serialize to the same bytes as the first.
#include <algorithm>
#include <memory>
#include <string>

#include "query/query_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
constexpr size_t kProbesPerBuild = 1000;
constexpr size_t kBaselineChecks = 10;
constexpr size_t kMonteCarloChecks = 3;

}  // namespace

void RunBuildSkewed(Context* ctx) {
  const Config& cfg = ctx->cfg;
  Report& r = ctx->report;
  const uvd::datagen::DatasetOptions data = PaperDataset(DeriveSeed(cfg.seed, 1));
  const uvd::geom::Box domain = uvd::datagen::DomainFor(data);
  const double sigma = data.domain_size / 8.0;
  const uvd::core::UVDiagramOptions options = DiagramOptions(cfg.threads);

  // Set-up: generate the cloud and build the reference image every later
  // build is compared with; repeated, median reported.
  Samples setup_s;
  std::vector<uvd::uncertain::UncertainObject> objects;
  uint64_t reference = 0;
  std::vector<uint64_t> reference_ticks;
  for (int rep = 0; rep < (cfg.trace ? 1 : kSetupReps); ++rep) {
    const int64_t t0 = NowNs();
    objects = uvd::datagen::GenerateGaussianCloud(data, sigma);
    auto built = uvd::core::UVDiagram::Build(objects, domain, options);
    r.Attempt();
    if (!built.ok()) {
      r.Fail("reference build: " + built.status().ToString());
      return;
    }
    setup_s.Add(Seconds(t0, NowNs()));
    reference_ticks = TickerSnapshot(uvd::Stats()).Deltas(built.value().stats());
    reference = ImageDigest(built.value().index(), built.value().page_manager());
  }
  const std::vector<uvd::geom::Point> probes = DataFollowingPoints(
      objects, domain, kProbesPerBuild, DeriveSeed(cfg.seed, 2));

  r.Env("objects", static_cast<double>(kObjects));
  r.Env("dataset", "Gaussian cloud at the domain center, sigma = domain/8");
  r.Env("build", "UVDiagram::Build, IC, in-RAM, build_threads = nproc");
  r.Env("probe_stream", "after each build, " + std::to_string(kProbesPerBuild) +
                            " data-following PNN probes (object center + N(0, 100))");
  r.Env("engine", "threads=1, leaf cache on, fresh per build");
  r.Env("io_regime", "in-RAM page manager, no simulated read latency");
  r.Env("buffer_pool_pages", "none (in-RAM)");
  r.Env("flush_policy", "none (no writes after each build)");

  // Timed: build, compare the image, serve the probe batch; until the
  // budget is spent (the traced run spends half of it here).
  const double budget_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  Samples build_s, latency_us;
  double active_s = 0.0;
  uint64_t ops = 0;
  std::unique_ptr<uvd::core::UVDiagram> last;
  const int64_t loop_start = NowNs();
  for (int round = 0; round == 0 || Seconds(loop_start, NowNs()) < budget_s; ++round) {
    last.reset();
    const int64_t t0 = NowNs();
    auto built = uvd::core::UVDiagram::Build(objects, domain, options);
    const int64_t t1 = NowNs();
    r.Attempt();
    ++ops;
    if (!built.ok()) {
      r.Fail("build: " + built.status().ToString());
      return;
    }
    build_s.Add(Seconds(t0, t1));
    active_s += Seconds(t0, t1);
    last = std::make_unique<uvd::core::UVDiagram>(std::move(built).value());
    const std::string same = CheckDigest(ImageDigest(last->index(), last->page_manager()),
                                         reference, "repeated build image");
    r.Check(same.empty(), same);

    uvd::query::QueryEngineOptions eo;
    eo.threads = 1;
    uvd::query::QueryEngine engine(*last, eo);
    for (size_t i = 0; i < probes.size(); ++i) {
      const uvd::query::QueryBatch batch{uvd::query::Query::Pnn(probes[i])};
      const int64_t q0 = NowNs();
      std::vector<uvd::query::QueryResult> results = engine.ExecuteBatch(batch);
      const int64_t q1 = NowNs();
      r.Attempt();
      ++ops;
      latency_us.Add(static_cast<double>(q1 - q0) / 1e3);
      active_s += Seconds(q0, q1);
      if (!results[0].status.ok()) {
        r.Fail("pnn: " + results[0].status.ToString());
        continue;
      }
      // The probes repeat every round, so the costly checks run once.
      const size_t every = kProbesPerBuild / kBaselineChecks;
      const bool baseline = round == 0 && i % every == 0;
      CheckPnnAnswers(ctx, *last, probes[i], results[0].pnn, baseline,
                      baseline && i < kMonteCarloChecks * every, DeriveSeed(cfg.seed, 100 + i));
    }
  }

  r.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  r.Set("build_s", build_s.Median(), "s", build_s.size());
  const Samples best_us = PerProbeMin(latency_us.values(), probes.size());
  r.Set("pnn_p50_us", best_us.Median(), "us", latency_us.size());
  r.Set("pnn_p90_us", best_us.Percentile(90.0), "us", latency_us.size());
  r.SetLatency("pnn_raw", latency_us, "us");
  r.Set("ops_per_s", static_cast<double>(ops) / active_s, "1/s", ops);
  r.Set("bytes_per_object",
        static_cast<double>(last->page_manager().bytes_on_disk()) /
            static_cast<double>(last->objects().size()),
        "B", 1);
  r.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (!cfg.trace) return;

  // ---- Traced run: one build, decomposed.
  uvd::Stats stats;
  DecomposedIndex dec;
  uvd::Status st;
  ctx->tracer.BeginRequest();
  {
    Tracer::Span span(&ctx->tracer, "client.build");
    st = DecomposedBuild(&ctx->tracer, objects, domain, options, &stats, &dec);
  }
  r.Check(st.ok(), "decomposed build: " + st.ToString());
  if (!st.ok()) return;
  CheckTickersRepeat(ctx, reference_ticks, TickerSnapshot(uvd::Stats()).Deltas(stats),
                     "UVDiagram::Build vs decomposed build",
                     /*include_schedule_dependent=*/false);
  const std::string same =
      CheckDigest(ImageDigest(*dec.index, *dec.pm), reference, "decomposed build image");
  r.Check(same.empty(), same);
  ReportBuildLayers(ctx, objects, domain, dec);
  const double traced_s = ctx->tracer.DurationsUs("client.build").Median() / 1e6;
  r.Set("obs.tracing_overhead_pct", (traced_s - build_s.Median()) / build_s.Median() * 100.0,
        "%", build_s.size());
}

}  // namespace perfbench
