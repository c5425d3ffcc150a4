// The four workloads. Each fills ctx->report with its end-to-end metrics
// (every run) and its per-layer metrics (traced run), and counts every
// operation and output check it makes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

void RunPnnStream(Context* ctx);
void RunBuildSkewed(Context* ctx);
void RunDurableChurn(Context* ctx);
void RunShardedClustered(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
