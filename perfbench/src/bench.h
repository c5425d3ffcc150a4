// Shared pieces of the four workloads: run configuration, input
// generation, the closed-loop timing helpers, the output checks every PNN
// workload runs, and the traced decompositions of a PNN query and of an
// index build into calls on each module's public functions.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/build_pipeline.h"
#include "core/uv_diagram.h"
#include "core/uv_index.h"
#include "datagen/generators.h"
#include "geom/box.h"
#include "query/query_cache.h"
#include "report.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "trace.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace perfbench {

/// One run's settings, from the command line.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch files of this run (inside the checkout).
  std::string out_dir;   ///< Detail records and span files.
  int threads = 1;       ///< nproc: build pools and router pools are capped here.
};

struct Context {
  explicit Context(const Config& c) : cfg(c), tracer(c.trace) {}
  Config cfg;
  Report report;
  Tracer tracer;
};

/// Independent seed for input stream `stream` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// The paper's setup: |O| = 10,000 in a 10k x 10k domain, diameter 40,
/// Gaussian pdfs with 20 bars.
uvd::datagen::DatasetOptions PaperDataset(uint64_t seed);
constexpr size_t kObjects = 10000;

/// IC build with `threads` workers, everything else at library defaults.
uvd::core::UVDiagramOptions DiagramOptions(int threads);

/// Probes that follow the data: a random object center plus Gaussian
/// jitter (sigma 100), clamped to the domain.
std::vector<uvd::geom::Point> DataFollowingPoints(
    const std::vector<uvd::uncertain::UncertainObject>& objects,
    const uvd::geom::Box& domain, size_t count, uint64_t seed);

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// Size of a file in bytes (0 if it cannot be read).
uint64_t FileBytes(const std::string& path);

/// Snapshot of every ticker; Delta() gives the change since the snapshot.
class TickerSnapshot {
 public:
  explicit TickerSnapshot(const uvd::Stats& stats);
  uint64_t Delta(const uvd::Stats& now, uvd::Ticker t) const;
  /// Every ticker's change since the snapshot, in enum order.
  std::vector<uint64_t> Deltas(const uvd::Stats& now) const;

 private:
  std::array<uint64_t, static_cast<size_t>(uvd::Ticker::kNumTickers)> v_{};
};

/// Elapsed seconds between two NowNs() readings.
inline double Seconds(int64_t t0, int64_t t1) { return static_cast<double>(t1 - t0) / 1e9; }

/// Runs the per-query output checks on `answers` for probe `q`:
///   * probabilities sum to 1 (every call);
///   * ids equal the R-tree baseline's (when `baseline` is true);
///   * probabilities agree with the Monte Carlo oracle (when `monte_carlo`).
/// The baseline and the oracle read the same objects through `diagram`.
void CheckPnnAnswers(Context* ctx, const uvd::core::UVDiagram& diagram,
                     const uvd::geom::Point& q, const Answers& answers, bool baseline,
                     bool monte_carlo, uint64_t mc_seed);

/// The index slice a decomposed query reads.
struct IndexView {
  const uvd::core::UVIndex* index = nullptr;
  const uvd::uncertain::ObjectStore* store = nullptr;
  uvd::uncertain::QualificationOptions qualification;
};

/// Work counts of one decomposed query.
struct QueryCounts {
  uint64_t candidates = 0;  ///< Leaf tuples read for the query's leaf.
  uint64_t kept = 0;        ///< Tuples the d_minmax filter kept.
};

/// PNN decomposed into the calls the query engine makes, each in a span:
/// core.locate (UVIndex::LocateLeafChecked), query.cache (QueryCache::
/// GetOrLoad) around core.leaf_read (UVIndex::ReadLeafEntries),
/// core.dminmax (core::AnswerIdsFromCandidates), uncertain.fetch
/// (ObjectStore::Fetch, one span per object) and uncertain.qualification
/// (ComputeQualificationProbabilities). `cache` may be null (no cache).
uvd::Result<Answers> DecomposedPnn(Tracer* tracer, const IndexView& view,
                                   uvd::query::QueryCache* cache,
                                   const uvd::geom::Point& q, uvd::Stats* stats,
                                   QueryCounts* counts);

/// Answer-id query decomposed the same way (no fetch, no qualification).
uvd::Result<std::vector<int>> DecomposedAnswerIds(Tracer* tracer, const IndexView& view,
                                                  uvd::query::QueryCache* cache,
                                                  const uvd::geom::Point& q,
                                                  uvd::Stats* stats, QueryCounts* counts);

/// An in-RAM index built by DecomposedBuild.
struct DecomposedIndex {
  std::unique_ptr<uvd::storage::PageManager> pm;
  std::unique_ptr<uvd::uncertain::ObjectStore> store;
  std::unique_ptr<uvd::rtree::RTree> tree;
  std::unique_ptr<uvd::core::UVIndex> index;
  uvd::core::BuildStats stage1;
  /// Ticker deltas per phase.
  std::vector<uint64_t> rtree_ticks, stage1_ticks, stage2_ticks;
};

/// UVDiagram::Build's in-RAM IC path replayed from public pieces, each in
/// a span: uncertain.store_load (ObjectStore::BulkLoad), rtree.bulk_load
/// (RTree::BulkLoad), core.stage1 (core::ComputeStage1Candidates) and
/// core.stage2 (UVIndex::InsertObjectsPartitioned + FinalizeWith, fed the
/// stage-1 output the way the sharded build feeds it). The serialized
/// index must equal the opaque build's byte for byte.
uvd::Status DecomposedBuild(Tracer* tracer,
                            const std::vector<uvd::uncertain::UncertainObject>& objects,
                            const uvd::geom::Box& domain,
                            const uvd::core::UVDiagramOptions& options, uvd::Stats* stats,
                            DecomposedIndex* out);

/// Digest of a finalized index's serialized structure and of every page
/// its page manager holds: equal digests mean byte-identical images.
uint64_t ImageDigest(const uvd::core::UVIndex& index, const uvd::storage::PageManager& pm);

/// Per-layer build metrics from a decomposed build (timings from its
/// spans) and from two serial stage-1 passes over the same tree, whose
/// R-tree traversal tickers must repeat exactly (the parallel shared
/// traversal bills them by schedule, so only a serial pass is exact).
void ReportBuildLayers(Context* ctx,
                       const std::vector<uvd::uncertain::UncertainObject>& objects,
                       const uvd::geom::Box& domain, const DecomposedIndex& built);

/// Asserts two runs of the same work billed the same ticker counts; a
/// mismatch fails the run. Without `include_schedule_dependent`, the
/// tickers a parallel shared traversal bills by schedule (R-tree visits,
/// leaf memo, page reads, pool) are left out.
void CheckTickersRepeat(Context* ctx, const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b, const std::string& what,
                        bool include_schedule_dependent);

/// Ratio helper: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
