// durable_churn: live inserts beside reads on a file-backed diagram whose
// buffer pool holds 1/8 of the file. Set-up builds a uniform diagram into
// a .uvpf file and closes it. The timed part runs in rounds, each on a
// fresh copy of that file so every round does the same work: a cold
// UVDiagram::Open, then a closed loop of one InsertObject, InvalidateCache,
// four answer-id probes and one PNN probe per step, with a Checkpoint
// every kCheckpointEvery inserts (the flush policy); then CloseStorage, a
// reopen and a re-probe whose digest must equal the one taken before the
// close. A round has a fixed insert count, so the file size at its end
// (bytes_per_object) does not depend on how fast the inserts ran.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "datagen/workload.h"
#include "query/query_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
constexpr size_t kInsertsPerRound = 60;
constexpr size_t kCheckpointEvery = 20;
constexpr size_t kIdsProbesPerInsert = 4;
constexpr size_t kReprobes = 40;
constexpr size_t kMonteCarloChecks = 3;

using uvd::Ticker;

bool CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  return in.good() && out.good();
}

uvd::query::QueryEngineOptions EngineOptions() {
  uvd::query::QueryEngineOptions o;
  o.threads = 1;
  o.enable_cache = true;
  return o;
}

/// Inputs shared by every round of a run.
struct Inputs {
  std::string base_path;
  std::string round_path;
  size_t pool_pages = 0;
  std::vector<uvd::uncertain::UncertainObject> inserts;  // ids 10000, 10001, ...
  std::vector<uvd::geom::Point> reprobes;
};

/// What one round produced; the answers let the traced round be compared
/// with an untraced one bit for bit.
struct Round {
  double open_ms = 0.0;
  double active_s = 0.0;  // timed operations only
  uint64_t ops = 0;
  uint64_t file_bytes = 0;
  uint64_t objects = 0;
  std::vector<std::vector<int>> ids;
  std::vector<Answers> pnn;
  std::vector<uint64_t> ticks;  // every ticker over the insert/probe loop
  // Ticker and fsync deltas by operation kind.
  uint64_t queries = 0, query_page_reads = 0, query_pool_hits = 0, query_pool_misses = 0,
           query_evictions = 0, insert_page_writes = 0, checkpoints = 0,
           checkpoint_page_writes = 0, checkpoint_fsyncs = 0;
  QueryCounts counts;
  Samples insert_ms, checkpoint_ms, ids_us, pnn_us;
};

uvd::core::UVDiagramOptions OpenOptions(const Inputs& in, int threads) {
  uvd::core::UVDiagramOptions o = DiagramOptions(threads);
  o.buffer_pool_pages = in.pool_pages;
  return o;
}

/// Digest of the re-probe set: answer ids and PNN answers of each point.
/// With `check`, every PNN answer also goes through the output checks
/// (R-tree baseline ids on every point, Monte Carlo on the first few).
uint64_t ReprobeDigest(Context* ctx, const uvd::core::UVDiagram& diagram, const Inputs& in,
                       bool check) {
  uvd::query::QueryEngineOptions eo = EngineOptions();
  eo.enable_cache = false;
  uvd::query::QueryEngine engine(diagram, eo);
  uint64_t h = kDigestSeed;
  for (size_t i = 0; i < in.reprobes.size(); ++i) {
    const uvd::geom::Point& p = in.reprobes[i];
    const auto results =
        engine.ExecuteBatch({uvd::query::Query::AnswerIds(p), uvd::query::Query::Pnn(p)});
    for (const auto& res : results) {
      ctx->report.Check(res.status.ok(), "re-probe status: " + res.status.ToString());
    }
    h = DigestAnswers(DigestIds(h, results[0].answer_ids), results[1].pnn);
    if (check && results[1].status.ok()) {
      CheckPnnAnswers(ctx, diagram, p, results[1].pnn, /*baseline=*/true,
                      /*monte_carlo=*/i < kMonteCarloChecks,
                      DeriveSeed(ctx->cfg.seed, 100 + i));
    }
  }
  return h;
}

/// The probe points of round `round`: a fresh stretch of random-waypoint
/// trajectory each round, so the PNN sample does not rest on a few places;
/// 5 per insert.
std::vector<uvd::geom::Point> RoundProbes(uint64_t seed, size_t round,
                                          const uvd::geom::Box& domain) {
  return uvd::datagen::TrajectoryQueryPoints(
      static_cast<int>(kInsertsPerRound * (kIdsProbesPerInsert + 1)), domain,
      domain.Width() / 400.0, DeriveSeed(seed, 1000 + round));
}

/// One round. With a tracer, every call is decomposed into spans and the
/// query engine is replaced by the decomposed query path over a cache of
/// the same configuration.
bool RunRound(Context* ctx, const Inputs& in, const std::vector<uvd::geom::Point>& probes,
              Tracer* tracer, bool check, Round* out) {
  Report& r = ctx->report;
  r.Check(CopyFile(in.base_path, in.round_path), "copy of the set-up file");
  const uvd::core::UVDiagramOptions options = OpenOptions(in, ctx->cfg.threads);
  std::unique_ptr<uvd::core::UVDiagram> diagram;
  {
    tracer->BeginRequest();
    const int64_t t0 = NowNs();
    Tracer::Span span(tracer, "core.open");
    auto opened = uvd::core::UVDiagram::Open(in.round_path, options);
    r.Attempt();
    if (!opened.ok()) {
      r.Fail("open: " + opened.status().ToString());
      return false;
    }
    diagram = std::make_unique<uvd::core::UVDiagram>(std::move(opened).value());
    out->open_ms = static_cast<double>(NowNs() - t0) / 1e6;
    out->active_s += out->open_ms / 1e3;
    ++out->ops;
  }
  uvd::Stats& stats = diagram->stats();
  const uvd::storage::PagedFile* file = diagram->file_page_manager()->file();
  const uvd::query::QueryEngineOptions eo = EngineOptions();
  uvd::query::QueryEngine engine(*diagram, eo);
  uvd::query::QueryCache cache(eo.cache);

  // Runs `op` as one timed operation, bills its ticker deltas, and returns
  // its wall time in seconds.
  const auto timed = [&](const char* span_name, auto&& op) {
    tracer->BeginRequest();
    const int64_t t0 = NowNs();
    {
      Tracer::Span span(tracer, span_name);
      op();
    }
    const double s = Seconds(t0, NowNs());
    out->active_s += s;
    ++out->ops;
    r.Attempt();
    return s;
  };

  const TickerSnapshot loop_start(stats);
  size_t probe = 0;
  for (size_t k = 0; k < in.inserts.size(); ++k) {
    {
      const TickerSnapshot before(stats);
      uvd::Status st;
      const double s = timed("core.insert", [&] { st = diagram->InsertObject(in.inserts[k]); });
      if (!st.ok()) r.Fail("insert: " + st.ToString());
      out->insert_ms.Add(s * 1e3);
      out->insert_page_writes += before.Delta(stats, Ticker::kPageWrites);
    }
    engine.InvalidateCache();
    cache.Clear();
    const IndexView view{&diagram->index(), &diagram->store(),
                         diagram->options().qualification};
    for (size_t j = 0; j <= kIdsProbesPerInsert; ++j) {
      const uvd::geom::Point& p = probes[probe++];
      const bool is_pnn = j == kIdsProbesPerInsert;
      const TickerSnapshot before(stats);
      uvd::Status st;
      std::vector<int> ids;
      Answers answers;
      const double s = timed(is_pnn ? "client.pnn" : "client.ids", [&] {
        if (tracer->enabled()) {
          if (is_pnn) {
            auto got = DecomposedPnn(tracer, view, &cache, p, &stats, &out->counts);
            st = got.status();
            if (got.ok()) answers = std::move(got).value();
          } else {
            auto got = DecomposedAnswerIds(tracer, view, &cache, p, &stats, &out->counts);
            st = got.status();
            if (got.ok()) ids = std::move(got).value();
          }
          return;
        }
        auto results = engine.ExecuteBatch({is_pnn ? uvd::query::Query::Pnn(p)
                                                   : uvd::query::Query::AnswerIds(p)});
        st = results[0].status;
        ids = std::move(results[0].answer_ids);
        answers = std::move(results[0].pnn);
      });
      if (!st.ok()) r.Fail(std::string(is_pnn ? "pnn: " : "ids: ") + st.ToString());
      (is_pnn ? out->pnn_us : out->ids_us).Add(s * 1e6);
      ++out->queries;
      out->query_page_reads += before.Delta(stats, Ticker::kPageReads);
      out->query_pool_hits += before.Delta(stats, Ticker::kBufferPoolHits);
      out->query_pool_misses += before.Delta(stats, Ticker::kBufferPoolMisses);
      out->query_evictions += before.Delta(stats, Ticker::kBufferPoolEvictions);
      if (is_pnn) {
        out->pnn.push_back(std::move(answers));
      } else {
        out->ids.push_back(std::move(ids));
      }
    }
    if ((k + 1) % kCheckpointEvery == 0) {
      const TickerSnapshot before(stats);
      const uint64_t syncs = file->sync_count();
      uvd::Status st;
      const double s = timed("core.checkpoint", [&] { st = diagram->Checkpoint(); });
      if (!st.ok()) r.Fail("checkpoint: " + st.ToString());
      out->checkpoint_ms.Add(s * 1e3);
      ++out->checkpoints;
      out->checkpoint_page_writes += before.Delta(stats, Ticker::kPageWrites);
      out->checkpoint_fsyncs += file->sync_count() - syncs;
    }
  }
  out->ticks = loop_start.Deltas(stats);

  for (const Answers& a : out->pnn) {
    if (a.empty()) continue;  // a failed query, already counted
    const std::string sum = CheckProbabilitySum(a);
    r.Check(sum.empty(), "probability sum: " + sum);
  }
  const uint64_t before_close = ReprobeDigest(ctx, *diagram, in, /*check=*/false);
  out->objects = diagram->objects().size();
  {
    uvd::Status st;
    timed("core.close", [&] { st = diagram->CloseStorage(); });
    if (!st.ok()) r.Fail("close: " + st.ToString());
  }
  diagram.reset();
  out->file_bytes = FileBytes(in.round_path);

  auto reopened = uvd::core::UVDiagram::Open(in.round_path, options);
  r.Check(reopened.ok(), "reopen: " + reopened.status().ToString());
  if (reopened.ok()) {
    const std::string same =
        CheckDigest(ReprobeDigest(ctx, reopened.value(), in, check), before_close,
                    "re-probe after reopen vs before close");
    r.Check(same.empty(), same);
  }
  std::remove(in.round_path.c_str());
  return true;
}

/// Per-layer metrics of the traced round. `untraced` is an untraced round
/// of the same inputs, for the engine's self time.
void ReportDurableLayers(Context* ctx, const Round& traced, const Round& untraced) {
  Report& r = ctx->report;
  const Tracer& tr = ctx->tracer;
  const double q = static_cast<double>(traced.queries);
  const auto tick = [&traced](Ticker t) {
    return static_cast<double>(traced.ticks[static_cast<size_t>(t)]);
  };
  const Samples inserts = tr.DurationsUs("core.insert");
  r.Set("core.insert_p50_ms", inserts.Median() / 1e3, "ms", inserts.size());
  r.Set("core.insert_p90_ms", inserts.Percentile(90.0) / 1e3, "ms", inserts.size());
  const Samples checkpoints = tr.DurationsUs("core.checkpoint");
  r.Set("core.checkpoint_p50_ms", checkpoints.Median() / 1e3, "ms", checkpoints.size());
  r.Set("core.open_ms", tr.DurationsUs("core.open").Median() / 1e3, "ms", 1);
  const Samples ids = tr.DurationsUs("client.ids");
  r.Set("query.ids_p50_us", ids.Median(), "us", ids.size());
  r.Set("query.ids_p99_us", ids.Percentile(99.0), "us", ids.size());
  r.Set("core.locate_us", tr.DurationsUs("core.locate").Median(), "us", traced.queries);
  const Samples leaf_reads = tr.DurationsUs("core.leaf_read");
  r.Set("core.leaf_read_us", leaf_reads.Median(), "us", leaf_reads.size());
  r.Set("core.dminmax_us", tr.DurationsUs("core.dminmax").Median(), "us", traced.queries);
  r.Set("core.candidates_per_query", static_cast<double>(traced.counts.candidates) / q,
        "count", traced.queries);
  r.Set("core.dminmax_keep_ratio",
        Ratio(static_cast<double>(traced.counts.kept),
              static_cast<double>(traced.counts.candidates)),
        "ratio", traced.queries);
  const Samples fetches = tr.DurationsUs("uncertain.fetch");
  r.Set("uncertain.fetch_us", fetches.Median(), "us", fetches.size());
  const Samples qual = tr.DurationsUs("uncertain.qualification");
  r.Set("uncertain.qualification_us", qual.Median(), "us", qual.size());
  r.Set("uncertain.integrations_per_query",
        tick(Ticker::kQualificationIntegrations) / static_cast<double>(traced.pnn.size()),
        "count", traced.pnn.size());
  const double hits = tick(Ticker::kQueryCacheHits);
  r.Set("query.cache_hit_ratio", Ratio(hits, hits + tick(Ticker::kQueryCacheMisses)),
        "ratio", traced.queries);
  // Engine self time: the untraced answer-id call minus the decomposed
  // calls that replay its work, per request, median.
  const Samples children_us = tr.ChildrenUs("client.ids");
  const std::vector<double>& children = children_us.values();
  Samples engine_self;
  for (size_t i = 0; i < children.size() && i < untraced.ids_us.size(); ++i) {
    engine_self.Add(untraced.ids_us.values()[i] - children[i]);
  }
  r.Set("query.engine_self_us", engine_self.Median(), "us", engine_self.size());
  const double pool = static_cast<double>(traced.query_pool_hits + traced.query_pool_misses);
  r.Set("storage.pool_hit_ratio", Ratio(static_cast<double>(traced.query_pool_hits), pool),
        "ratio", traced.queries);
  r.Set("storage.page_reads_per_query", static_cast<double>(traced.query_page_reads) / q,
        "count", traced.queries);
  r.Set("storage.pool_evictions_per_query", static_cast<double>(traced.query_evictions) / q,
        "count", traced.queries);
  r.Set("storage.pages_written_per_insert",
        static_cast<double>(traced.insert_page_writes) /
            static_cast<double>(traced.insert_ms.size()),
        "count", traced.insert_ms.size());
  r.Set("storage.pages_written_per_checkpoint",
        Ratio(static_cast<double>(traced.checkpoint_page_writes),
              static_cast<double>(traced.checkpoints)),
        "count", traced.checkpoints);
  r.Set("storage.fsyncs_per_checkpoint",
        Ratio(static_cast<double>(traced.checkpoint_fsyncs),
              static_cast<double>(traced.checkpoints)),
        "count", traced.checkpoints);
}

}  // namespace

void RunDurableChurn(Context* ctx) {
  const Config& cfg = ctx->cfg;
  Report& r = ctx->report;
  const uvd::datagen::DatasetOptions data = PaperDataset(DeriveSeed(cfg.seed, 1));
  const uvd::geom::Box domain = uvd::datagen::DomainFor(data);
  Inputs in;
  in.base_path = cfg.work_dir + "/durable_base.uvpf";
  in.round_path = cfg.work_dir + "/durable_round.uvpf";

  // Set-up: generate, build into the file, close; repeated, median reported.
  Samples setup_s, build_s;
  std::vector<uvd::uncertain::UncertainObject> objects;
  for (int rep = 0; rep < (cfg.trace ? 1 : kSetupReps); ++rep) {
    const int64_t t0 = NowNs();
    objects = uvd::datagen::GenerateUniform(data);
    uvd::core::UVDiagramOptions options = DiagramOptions(cfg.threads);
    options.storage_path = in.base_path;
    const int64_t tb = NowNs();
    auto built = uvd::core::UVDiagram::Build(objects, domain, options);
    const int64_t te = NowNs();
    r.Attempt();
    if (!built.ok()) {
      r.Fail("build: " + built.status().ToString());
      return;
    }
    const uvd::Status closed = built.value().CloseStorage();
    r.Attempt();
    if (!closed.ok()) {
      r.Fail("close after build: " + closed.ToString());
      return;
    }
    build_s.Add(Seconds(tb, te));
    setup_s.Add(Seconds(t0, NowNs()));
  }
  const uint64_t base_bytes = FileBytes(in.base_path);
  const uint64_t base_pages =
      (base_bytes - uvd::storage::kMetaBlockSize) /
      (uvd::storage::kPageFrameHeaderSize + uvd::storage::kDefaultPageSize);
  in.pool_pages = std::max<uint64_t>(1, base_pages / 8);

  uvd::datagen::DatasetOptions insert_data = data;
  insert_data.count = kInsertsPerRound;
  insert_data.seed = DeriveSeed(cfg.seed, 3);
  for (const auto& o : uvd::datagen::GenerateUniform(insert_data)) {
    in.inserts.emplace_back(static_cast<int>(kObjects + in.inserts.size()), o.region(),
                            o.pdf());
  }
  in.reprobes = uvd::datagen::UniformQueryPoints(static_cast<int>(kReprobes), domain,
                                                 DeriveSeed(cfg.seed, 4));

  r.Env("objects", static_cast<double>(kObjects));
  r.Env("dataset", "uniform, paper defaults; inserts uniform");
  r.Env("round", std::to_string(kInsertsPerRound) + " inserts; after each: InvalidateCache, " +
                     std::to_string(kIdsProbesPerInsert) +
                     " answer-id probes and 1 PNN probe on a random-waypoint trajectory");
  r.Env("flush_policy", "Checkpoint every " + std::to_string(kCheckpointEvery) +
                            " inserts, CloseStorage at the end of each round");
  r.Env("buffer_pool_pages", static_cast<double>(in.pool_pages));
  r.Env("file_pages_at_open", static_cast<double>(base_pages));
  r.Env("io_regime", "real file under " + cfg.work_dir + " (page cache not dropped)");
  r.Env("engine", "threads=1, leaf cache on, invalidated after every insert");

  // Timed rounds until the budget is spent (the traced run spends half of
  // it here, then runs one decomposed round).
  const double budget_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  Tracer untraced(false);
  std::vector<Round> rounds;
  const int64_t loop_start = NowNs();
  while (rounds.empty() || Seconds(loop_start, NowNs()) < budget_s) {
    rounds.emplace_back();
    const auto probes = RoundProbes(cfg.seed, rounds.size() - 1, domain);
    if (!RunRound(ctx, in, probes, &untraced, rounds.size() == 1, &rounds.back())) return;
    if (rounds.size() > 1) {
      // Only the first round's answers are compared later (the traced run
      // replays that round); dropping the rest keeps memory independent of
      // how many rounds a run completes.
      rounds.back().ids = {};
      rounds.back().pnn = {};
    }
  }

  Samples pnn_us, ids_us, insert_ms, checkpoint_ms, open_ms;
  double active_s = 0.0;
  uint64_t ops = 0;
  for (const Round& rd : rounds) {
    pnn_us.Merge(rd.pnn_us);
    ids_us.Merge(rd.ids_us);
    insert_ms.Merge(rd.insert_ms);
    checkpoint_ms.Merge(rd.checkpoint_ms);
    open_ms.Add(rd.open_ms);
    active_s += rd.active_s;
    ops += rd.ops;
  }
  const Round& first = rounds.front();
  r.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  r.Set("build_s", build_s.Median(), "s", build_s.size());
  r.Set("pnn_p50_us", pnn_us.Median(), "us", pnn_us.size());
  r.Set("pnn_p90_us", pnn_us.Percentile(90.0), "us", pnn_us.size());
  r.SetLatency("pnn", pnn_us, "us");
  r.SetLatency("ids", ids_us, "us");
  r.SetLatency("insert", insert_ms, "ms");
  r.Set("insert_p90_ms", insert_ms.Percentile(90.0), "ms", insert_ms.size());
  r.SetLatency("checkpoint", checkpoint_ms, "ms");
  r.Set("open_ms", open_ms.Median(), "ms", open_ms.size());
  r.Set("ops_per_s", static_cast<double>(ops) / active_s, "1/s", ops);
  r.Set("bytes_per_object",
        static_cast<double>(first.file_bytes) / static_cast<double>(first.objects), "B",
        rounds.size());
  r.Set("peak_rss_mb", PeakRssMb(), "MB", 1);

  if (cfg.trace) {
    // ---- Traced run: one more round, decomposed; same answers and the
    // same ticker counts as the untraced rounds.
    Round traced;
    if (RunRound(ctx, in, RoundProbes(cfg.seed, 0, domain), &ctx->tracer, /*check=*/false,
                 &traced)) {
      bool identical = traced.ids == first.ids && traced.pnn.size() == first.pnn.size();
      for (size_t k = 0; identical && k < first.pnn.size(); ++k) {
        identical = CheckBitwiseEqual(traced.pnn[k], first.pnn[k]).empty();
      }
      r.Check(identical, "decomposed round answers bitwise-identical to the engine's");
      CheckTickersRepeat(ctx, first.ticks, traced.ticks, "untraced vs traced round",
                         /*include_schedule_dependent=*/true);
      ReportDurableLayers(ctx, traced, first);
      r.Set("obs.tracing_overhead_pct",
            (traced.active_s - first.active_s) / first.active_s * 100.0, "%", 1);
    }
  }
  std::remove(in.base_path.c_str());
}

}  // namespace perfbench
