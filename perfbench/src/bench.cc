#include "bench.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "core/pnn.h"
#include "uncertain/monte_carlo.h"

namespace perfbench {

using uvd::Stats;
using uvd::Ticker;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream): distinct streams of one seed and equal
  // streams of distinct seeds never share inputs.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uvd::datagen::DatasetOptions PaperDataset(uint64_t seed) {
  uvd::datagen::DatasetOptions data;
  data.count = kObjects;
  data.domain_size = 10000;
  data.diameter = 40;
  data.pdf = uvd::uncertain::PdfKind::kGaussian;
  data.num_bars = 20;
  data.seed = seed;
  return data;
}

uvd::core::UVDiagramOptions DiagramOptions(int threads) {
  uvd::core::UVDiagramOptions options;
  options.method = uvd::core::BuildMethod::kIC;
  options.build_threads = threads;
  return options;
}

std::vector<uvd::geom::Point> DataFollowingPoints(
    const std::vector<uvd::uncertain::UncertainObject>& objects,
    const uvd::geom::Box& domain, size_t count, uint64_t seed) {
  uvd::Rng rng(seed);
  std::vector<uvd::geom::Point> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uvd::geom::Point& c =
        objects[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(objects.size()) - 1))]
            .center();
    points.push_back({std::clamp(rng.Gaussian(c.x, 100.0), domain.lo.x, domain.hi.x),
                      std::clamp(rng.Gaussian(c.y, 100.0), domain.lo.y, domain.hi.y)});
  }
  return points;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

TickerSnapshot::TickerSnapshot(const Stats& stats) {
  for (size_t i = 0; i < v_.size(); ++i) v_[i] = stats.Get(static_cast<Ticker>(i));
}

uint64_t TickerSnapshot::Delta(const Stats& now, Ticker t) const {
  return now.Get(t) - v_[static_cast<size_t>(t)];
}

std::vector<uint64_t> TickerSnapshot::Deltas(const Stats& now) const {
  std::vector<uint64_t> out(v_.size());
  for (size_t i = 0; i < v_.size(); ++i) out[i] = Delta(now, static_cast<Ticker>(i));
  return out;
}

void CheckPnnAnswers(Context* ctx, const uvd::core::UVDiagram& diagram,
                     const uvd::geom::Point& q, const Answers& answers, bool baseline,
                     bool monte_carlo, uint64_t mc_seed) {
  const std::string sum = CheckProbabilitySum(answers);
  ctx->report.Check(sum.empty(), "probability sum: " + sum);
  if (baseline) {
    auto rtree_answers = diagram.QueryPnnWithRtree(q);
    ctx->report.Check(rtree_answers.ok(), "R-tree baseline query returned OK");
    if (rtree_answers.ok()) {
      const std::string same = CheckSameAnswerIds(answers, rtree_answers.value());
      ctx->report.Check(same.empty(), "ids vs R-tree baseline: " + same);
    }
  }
  if (monte_carlo) {
    std::vector<const uvd::uncertain::UncertainObject*> refs;
    for (const auto& a : answers) {
      refs.push_back(&diagram.objects()[static_cast<size_t>(a.id)]);
    }
    uvd::Rng rng(mc_seed);
    const Answers sampled =
        uvd::uncertain::MonteCarloQualification(refs, q, kMonteCarloTrials, &rng);
    const std::string mc = CheckMonteCarlo(answers, sampled);
    ctx->report.Check(mc.empty(), "Monte Carlo agreement: " + mc);
  }
}

namespace {

uvd::Result<std::vector<uvd::rtree::LeafEntry>> Candidates(Tracer* tracer,
                                                            const IndexView& view,
                                                            uvd::query::QueryCache* cache,
                                                            const uvd::geom::Point& q,
                                                            Stats* stats) {
  uint32_t leaf = 0;
  {
    Tracer::Span span(tracer, "core.locate");
    UVD_ASSIGN_OR_RETURN(leaf, view.index->LocateLeafChecked(q));
  }
  const uvd::core::UVIndex* index = view.index;
  const auto read = [tracer, index, leaf] {
    Tracer::Span span(tracer, "core.leaf_read");
    return index->ReadLeafEntries(leaf);
  };
  if (cache == nullptr) return read();
  Tracer::Span span(tracer, "query.cache");
  return cache->GetOrLoad(leaf, read, stats);
}

}  // namespace

uvd::Result<Answers> DecomposedPnn(Tracer* tracer, const IndexView& view,
                                   uvd::query::QueryCache* cache,
                                   const uvd::geom::Point& q, Stats* stats,
                                   QueryCounts* counts) {
  UVD_ASSIGN_OR_RETURN(std::vector<uvd::rtree::LeafEntry> tuples,
                       Candidates(tracer, view, cache, q, stats));
  counts->candidates += tuples.size();
  std::vector<uvd::rtree::LeafEntry> kept;
  {
    // The engine's verification keeps tuples in leaf order; the id list
    // AnswerIdsFromCandidates returns is sorted, so filter by membership.
    Tracer::Span span(tracer, "core.dminmax");
    const std::vector<int> ids = uvd::core::AnswerIdsFromCandidates(tuples, q);
    for (const auto& e : tuples) {
      if (std::binary_search(ids.begin(), ids.end(), e.id)) kept.push_back(e);
    }
  }
  counts->kept += kept.size();
  std::vector<uvd::uncertain::UncertainObject> objects;
  objects.reserve(kept.size());
  for (const auto& e : kept) {
    Tracer::Span span(tracer, "uncertain.fetch");
    UVD_ASSIGN_OR_RETURN(uvd::uncertain::UncertainObject obj, view.store->Fetch(e.ptr));
    objects.push_back(std::move(obj));
  }
  Tracer::Span span(tracer, "uncertain.qualification");
  std::vector<const uvd::uncertain::UncertainObject*> refs;
  refs.reserve(objects.size());
  for (const auto& o : objects) refs.push_back(&o);
  return uvd::uncertain::ComputeQualificationProbabilities(refs, q, view.qualification,
                                                          stats);
}

uvd::Result<std::vector<int>> DecomposedAnswerIds(Tracer* tracer, const IndexView& view,
                                                  uvd::query::QueryCache* cache,
                                                  const uvd::geom::Point& q,
                                                  Stats* stats, QueryCounts* counts) {
  UVD_ASSIGN_OR_RETURN(std::vector<uvd::rtree::LeafEntry> tuples,
                       Candidates(tracer, view, cache, q, stats));
  counts->candidates += tuples.size();
  Tracer::Span span(tracer, "core.dminmax");
  std::vector<int> ids = uvd::core::AnswerIdsFromCandidates(std::move(tuples), q);
  counts->kept += ids.size();
  return ids;
}

uvd::Status DecomposedBuild(Tracer* tracer,
                            const std::vector<uvd::uncertain::UncertainObject>& objects,
                            const uvd::geom::Box& domain,
                            const uvd::core::UVDiagramOptions& options, Stats* stats,
                            DecomposedIndex* out) {
  out->pm = std::make_unique<uvd::storage::PageManager>(options.page_size, stats);
  out->store = std::make_unique<uvd::uncertain::ObjectStore>(out->pm.get());
  std::vector<uvd::uncertain::ObjectPtr> ptrs;
  {
    Tracer::Span span(tracer, "uncertain.store_load");
    UVD_RETURN_NOT_OK(out->store->BulkLoad(objects, &ptrs));
  }
  {
    const TickerSnapshot before(*stats);
    Tracer::Span span(tracer, "rtree.bulk_load");
    UVD_ASSIGN_OR_RETURN(uvd::rtree::RTree tree,
                         uvd::rtree::RTree::BulkLoad(objects, ptrs, out->pm.get(),
                                                     options.rtree, stats));
    out->tree = std::make_unique<uvd::rtree::RTree>(std::move(tree));
    out->rtree_ticks = before.Deltas(*stats);
  }
  uvd::core::UVIndexOptions index_options = options.index;
  index_options.kernel_mode = options.kernel_mode;
  out->index = std::make_unique<uvd::core::UVIndex>(domain, out->pm.get(), index_options,
                                                    stats);

  uvd::core::BuildPipelineOptions pipeline;
  pipeline.method = options.method;
  pipeline.cr = options.cr;
  pipeline.cr.kernel_mode = options.kernel_mode;
  pipeline.build_threads = options.build_threads;
  pipeline.kernel_mode = options.kernel_mode;
  pipeline.traversal_mode = options.traversal_mode;
  pipeline.traversal_tile_size = options.traversal_tile_size;
  pipeline.leaf_memo_capacity = options.leaf_memo_capacity;
  std::vector<std::vector<int>> index_ids;
  {
    const TickerSnapshot before(*stats);
    Tracer::Span span(tracer, "core.stage1");
    UVD_RETURN_NOT_OK(uvd::core::ComputeStage1Candidates(
        objects, *out->tree, domain, pipeline, &index_ids, &out->stage1, stats));
    out->stage1_ticks = before.Deltas(*stats);
  }

  const TickerSnapshot before(*stats);
  Tracer::Span span(tracer, "core.stage2");
  const size_t n = objects.size();
  std::vector<uvd::core::UVIndex::BulkInsertItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i].region = objects[i].region();
    items[i].id = objects[i].id();
    items[i].ptr = ptrs[i];
    items[i].cr_regions.reserve(index_ids[i].size());
    for (const int id : index_ids[i]) {
      items[i].cr_regions.push_back(objects[static_cast<size_t>(id)].region());
    }
  }
  const int workers = options.build_threads > 0 ? options.build_threads
                                                : uvd::ThreadPool::DefaultThreads();
  uvd::ThreadPool pool(workers);
  uvd::core::UVIndex::PartitionedInsertOptions popts;
  popts.threads = workers;
  popts.max_depth = options.stage2_max_depth;
  popts.target_subtrees = options.stage2_target_subtrees;
  UVD_RETURN_NOT_OK(out->index->InsertObjectsPartitioned(std::move(items), &pool, popts));
  UVD_RETURN_NOT_OK(out->index->FinalizeWith(&pool, workers));
  out->stage2_ticks = before.Deltas(*stats);
  return uvd::Status::OK();
}

uint64_t ImageDigest(const uvd::core::UVIndex& index, const uvd::storage::PageManager& pm) {
  std::vector<uint8_t> structure;
  if (!index.SerializeStructure(&structure).ok()) structure.clear();
  uint64_t h = DigestBytes(structure);
  std::vector<uint8_t> page;
  for (size_t id = 0; id < pm.num_pages(); ++id) {
    if (!pm.Read(static_cast<uvd::storage::PageId>(id), &page).ok()) page.clear();
    h = h * 1099511628211ull ^ DigestBytes(page);
  }
  return h;
}

namespace {

/// Tickers the parallel shared traversal bills by schedule: which worker
/// claims which tile decides what its traversal session can reuse.
bool ScheduleDependent(Ticker t) {
  switch (t) {
    case Ticker::kPageReads:
    case Ticker::kBufferPoolHits:
    case Ticker::kBufferPoolMisses:
    case Ticker::kBufferPoolEvictions:
    case Ticker::kRtreeNodeVisits:
    case Ticker::kRtreeLeafReads:
    case Ticker::kLeafMemoHits:
    case Ticker::kLeafMemoMisses:
      return true;
    default:
      return false;
  }
}

}  // namespace

void CheckTickersRepeat(Context* ctx, const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b, const std::string& what,
                        bool include_schedule_dependent) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const Ticker t = static_cast<Ticker>(i);
    if (a[i] == b[i] || (!include_schedule_dependent && ScheduleDependent(t))) continue;
    ctx->report.Check(false, what + ": ticker " + uvd::TickerName(t) + " " +
                                 std::to_string(a[i]) + " vs " + std::to_string(b[i]));
    return;
  }
  ctx->report.Check(a.size() == b.size(), what + ": ticker counts repeat");
}

void ReportBuildLayers(Context* ctx,
                       const std::vector<uvd::uncertain::UncertainObject>& objects,
                       const uvd::geom::Box& domain, const DecomposedIndex& built) {
  const double n = static_cast<double>(objects.size());
  Report& r = ctx->report;
  const Tracer& tr = ctx->tracer;
  r.Set("rtree.bulk_load_ms", tr.DurationsUs("rtree.bulk_load").Median() / 1e3, "ms");
  r.Set("core.stage1_s", tr.DurationsUs("core.stage1").Median() / 1e6, "s");
  r.Set("core.stage2_s", tr.DurationsUs("core.stage2").Median() / 1e6, "s");
  const auto tick = [](const std::vector<uint64_t>& d, Ticker t) {
    return static_cast<double>(d[static_cast<size_t>(t)]);
  };
  // Decision counts of both stages are exact for any thread count.
  const auto& s1 = built.stage1_ticks;
  const auto& s2 = built.stage2_ticks;
  r.Set("geom.hyperbola_tests_per_object",
        (tick(s1, Ticker::kHyperbolaTests) + tick(s2, Ticker::kHyperbolaTests)) / n,
        "count", static_cast<uint64_t>(n));
  r.Set("geom.envelope_insertions_per_object",
        (tick(s1, Ticker::kEnvelopeInsertions) + tick(s2, Ticker::kEnvelopeInsertions)) /
            n,
        "count", static_cast<uint64_t>(n));
  r.Set("core.avg_cr_objects", built.stage1.avg_cr_objects, "count",
        static_cast<uint64_t>(n));
  r.Set("core.overlap_checks_per_object", tick(s2, Ticker::kOverlapChecks) / n, "count",
        static_cast<uint64_t>(n));
  r.Set("core.fourpoint_tests_per_object", tick(s2, Ticker::kFourPointTests) / n, "count",
        static_cast<uint64_t>(n));

  // R-tree traversal counts from two serial stage-1 passes (not traced:
  // they exist only to count).
  uvd::core::BuildPipelineOptions serial;
  serial.build_threads = 1;
  std::vector<uint64_t> passes[2];
  for (auto& pass : passes) {
    Stats stats;
    std::vector<std::vector<int>> ids;
    const uvd::Status st = uvd::core::ComputeStage1Candidates(objects, *built.tree, domain,
                                                              serial, &ids, nullptr, &stats);
    r.Check(st.ok(), "serial stage-1 counting pass: " + st.ToString());
    pass = TickerSnapshot(Stats()).Deltas(stats);
  }
  CheckTickersRepeat(ctx, passes[0], passes[1], "serial stage-1 passes",
                     /*include_schedule_dependent=*/true);
  r.Set("rtree.node_visits_per_object", tick(passes[0], Ticker::kRtreeNodeVisits) / n,
        "count", static_cast<uint64_t>(n));
  const double memo_hits = tick(passes[0], Ticker::kLeafMemoHits);
  r.Set("rtree.leafmemo_hit_ratio",
        Ratio(memo_hits, memo_hits + tick(passes[0], Ticker::kLeafMemoMisses)), "ratio",
        static_cast<uint64_t>(n));
}

}  // namespace perfbench
