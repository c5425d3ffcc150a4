// Self-test of the benchmark's output checks: each defect the checks
// exist for must be rejected, and correct output must pass. Exits 0 when
// every case behaves, 1 otherwise. run.py runs it before every benchmark
// run, so a checker that stopped rejecting defects fails the run.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "geom/circle.h"
#include "uncertain/monte_carlo.h"
#include "uncertain/qualification.h"
#include "uncertain/uncertain_object.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

double FlipBit(double v, int bit) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= uint64_t{1} << bit;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

int Main() {
  // Three overlapping objects around the query point: a real answer set.
  std::vector<uvd::uncertain::UncertainObject> objects;
  const double xs[] = {0.0, 25.0, 10.0};
  const double ys[] = {0.0, 5.0, 30.0};
  for (int i = 0; i < 3; ++i) {
    objects.push_back(uvd::uncertain::UncertainObject::WithGaussianPdf(
        i, uvd::geom::Circle({xs[i], ys[i]}, 20.0)));
  }
  std::vector<const uvd::uncertain::UncertainObject*> refs;
  for (const auto& o : objects) refs.push_back(&o);
  const uvd::geom::Point q{12.0, 10.0};
  const Answers good = uvd::uncertain::ComputeQualificationProbabilities(refs, q);
  uvd::Rng rng(7);
  const Answers sampled =
      uvd::uncertain::MonteCarloQualification(refs, q, kMonteCarloTrials, &rng);

  Expect(good.size() == 3, "the fixture has three answers");
  Expect(CheckProbabilitySum(good).empty(), "correct probabilities pass the sum check");
  Expect(CheckSameAnswerIds(good, good).empty(), "equal id sets pass");
  Expect(CheckMonteCarlo(good, sampled).empty(), "integration agrees with Monte Carlo");
  Expect(CheckBitwiseEqual(good, good).empty(), "identical answers pass");

  // A flipped probability bit: the lowest mantissa bit escapes every
  // tolerance, so the bitwise comparison and the digest must catch it; a
  // high bit must also fail the sum check.
  Answers flipped = good;
  flipped[1].probability = FlipBit(flipped[1].probability, 0);
  Expect(!CheckBitwiseEqual(flipped, good).empty(), "flipped low bit fails bitwise check");
  Expect(!CheckDigest(DigestAnswers(kDigestSeed, flipped), DigestAnswers(kDigestSeed, good),
                      "answers")
              .empty(),
         "flipped low bit changes the answer digest");
  Answers flipped_high = good;
  flipped_high[0].probability = FlipBit(flipped_high[0].probability, 51);
  Expect(!CheckProbabilitySum(flipped_high).empty(), "flipped high bit fails sum check");

  // A dropped answer id.
  Answers dropped = good;
  dropped.pop_back();
  Expect(!CheckSameAnswerIds(dropped, good).empty(), "dropped id fails baseline id check");
  Expect(!CheckProbabilitySum(dropped).empty(), "dropped id fails sum check");
  Expect(!CheckBitwiseEqual(dropped, good).empty(), "dropped id fails bitwise check");

  // A probability moved by more than the Monte Carlo bound.
  Answers skewed = good;
  skewed[0].probability += 2 * kMonteCarloBound;
  skewed[1].probability -= 2 * kMonteCarloBound;
  Expect(!CheckMonteCarlo(skewed, sampled).empty(), "skewed probabilities fail Monte Carlo");

  // A reopen digest that does not match the one taken before close.
  const uint64_t before = DigestIds(DigestAnswers(kDigestSeed, good), {0, 1, 2});
  const uint64_t after = DigestIds(DigestAnswers(kDigestSeed, good), {0, 2});
  Expect(!CheckDigest(after, before, "reopen").empty(), "mismatched reopen digest fails");
  Expect(CheckDigest(before, before, "reopen").empty(), "matching reopen digest passes");

  // Index images: one changed byte changes the digest.
  std::vector<uint8_t> image(4096, 7);
  const uint64_t clean = DigestBytes(image);
  image[1234] ^= 1;
  Expect(DigestBytes(image) != clean, "one flipped image bit changes the image digest");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "checker self-test passed"
                                                   : "checker self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
