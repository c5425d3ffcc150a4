#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

std::string CheckProbabilitySum(const Answers& answers, double tolerance) {
  if (answers.empty()) return "empty answer set";
  double sum = 0.0;
  for (const auto& a : answers) {
    if (!std::isfinite(a.probability) || a.probability <= 0.0 || a.probability > 1.0) {
      return Format("object %.0f has probability %.17g", a.id, a.probability);
    }
    sum += a.probability;
  }
  if (std::fabs(sum - 1.0) > tolerance) {
    return Format("probabilities sum to %.17g (tolerance %.3g)", sum, tolerance);
  }
  return "";
}

std::string CheckSameAnswerIds(const Answers& got, const Answers& baseline) {
  std::set<int> a;
  std::set<int> b;
  for (const auto& x : got) a.insert(x.id);
  for (const auto& x : baseline) b.insert(x.id);
  if (a.size() != got.size()) return "duplicate answer id";
  if (a != b) {
    return Format("answer ids differ from the R-tree baseline (%.0f vs %.0f ids)",
                  static_cast<double>(a.size()), static_cast<double>(b.size()));
  }
  return "";
}

std::string CheckMonteCarlo(const Answers& got, const Answers& sampled, double bound) {
  std::map<int, std::pair<double, double>> by_id;
  for (const auto& a : got) by_id[a.id].first = a.probability;
  for (const auto& a : sampled) by_id[a.id].second = a.probability;
  for (const auto& [id, p] : by_id) {
    if (std::fabs(p.first - p.second) > bound) {
      return Format("object %.0f: integrated %.6f vs sampled %.6f", id, p.first,
                    p.second);
    }
  }
  return "";
}

std::string CheckBitwiseEqual(const Answers& got, const Answers& expected) {
  if (got.size() != expected.size()) {
    return Format("%.0f answers vs %.0f expected", static_cast<double>(got.size()),
                  static_cast<double>(expected.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != expected[i].id || Bits(got[i].probability) != Bits(expected[i].probability)) {
      return Format("answer %.0f differs (id %.0f vs %.0f)", static_cast<double>(i),
                    got[i].id, expected[i].id);
    }
  }
  return "";
}

std::string CheckDigest(uint64_t got, uint64_t expected, const std::string& what) {
  if (got == expected) return "";
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s: digest %016llx vs %016llx", what.c_str(),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(expected));
  return buf;
}

uint64_t DigestBytes(const std::vector<uint8_t>& bytes) {
  uint64_t h = kDigestSeed;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DigestAnswers(uint64_t h, const Answers& answers) {
  h = Mix(h, answers.size());
  for (const auto& a : answers) {
    h = Mix(h, static_cast<uint64_t>(a.id));
    h = Mix(h, Bits(a.probability));
  }
  return h;
}

uint64_t DigestIds(uint64_t h, const std::vector<int>& ids) {
  h = Mix(h, ids.size());
  for (const int id : ids) h = Mix(h, static_cast<uint64_t>(id));
  return h;
}

}  // namespace perfbench
