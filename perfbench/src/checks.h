// Output checks. Each returns an empty string when the output passes and
// a one-line reason when it does not; a failing check fails the run and
// counts in `failed`. checker_selftest.cc proves each one rejects the
// defect it exists for.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "uncertain/qualification.h"

namespace perfbench {

using Answers = std::vector<uvd::uncertain::PnnAnswer>;

/// Qualification probabilities of one PNN answer set must sum to 1 within
/// this absolute tolerance. The 240-step integration misses 1 by up to
/// about 2e-5 on the benchmark's inputs; the library's own tests allow 5e-3.
constexpr double kProbabilitySumTolerance = 1e-3;

/// Monte Carlo oracle: trials per sampled query and the largest absolute
/// difference allowed between an integrated and a sampled probability.
/// With 20,000 trials the sampling standard deviation is at most
/// 0.5 / sqrt(20000) = 0.0035, so the bound is about six of them.
constexpr int kMonteCarloTrials = 20000;
constexpr double kMonteCarloBound = 0.02;

/// Probabilities are finite, in (0, 1], and sum to 1 within tolerance.
std::string CheckProbabilitySum(const Answers& answers,
                                double tolerance = kProbabilitySumTolerance);

/// The answer id sets are equal (order and probabilities ignored): the
/// UV-index PNN against the R-tree baseline of the same objects.
std::string CheckSameAnswerIds(const Answers& got, const Answers& baseline);

/// Every object either side reports (a missing one counts as 0) agrees
/// with the Monte Carlo estimate within `bound`.
std::string CheckMonteCarlo(const Answers& got, const Answers& sampled,
                            double bound = kMonteCarloBound);

/// Bitwise identity: same ids in the same order with the same probability
/// bits (traced against untraced, reopened against before close).
std::string CheckBitwiseEqual(const Answers& got, const Answers& expected);

/// Equal digests (reopen, sharded against unsharded, repeated builds).
std::string CheckDigest(uint64_t got, uint64_t expected, const std::string& what);

/// FNV-1a over a byte string (serialized index images).
uint64_t DigestBytes(const std::vector<uint8_t>& bytes);

/// Order-sensitive digest of answers (ids and probability bits) folded
/// into `h`; start from kDigestSeed.
constexpr uint64_t kDigestSeed = 1469598103934665603ull;
uint64_t DigestAnswers(uint64_t h, const Answers& answers);
uint64_t DigestIds(uint64_t h, const std::vector<int>& ids);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
