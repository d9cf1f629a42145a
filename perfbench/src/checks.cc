#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace perfbench {
namespace {

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

}  // namespace

std::string CheckAnswerShape(const kbtim::SeedSetResult& answer, uint32_t k,
                             kbtim::VertexId num_vertices) {
  if (answer.seeds.size() != k) {
    return Fmt("%g seeds for k = %g", static_cast<double>(answer.seeds.size()),
               k);
  }
  std::unordered_set<kbtim::VertexId> seen;
  for (kbtim::VertexId v : answer.seeds) {
    if (v >= num_vertices) return "seed out of range";
    if (!seen.insert(v).second) return "duplicate seed";
  }
  if (answer.marginal_gains.size() != answer.seeds.size()) {
    return "marginal gains not aligned with seeds";
  }
  double sum = 0.0;
  for (size_t i = 0; i < answer.marginal_gains.size(); ++i) {
    const double gain = answer.marginal_gains[i];
    if (!(gain >= 0.0)) return "negative or NaN marginal gain";
    if (i > 0 && gain > answer.marginal_gains[i - 1]) {
      return Fmt("marginal gain rises from %.9g to %.9g",
                 answer.marginal_gains[i - 1], gain);
    }
    sum += gain;
  }
  const double estimate = answer.estimated_influence;
  if (std::fabs(sum - estimate) > 1e-9 * std::max(1.0, std::fabs(estimate))) {
    return Fmt("marginal gains sum to %.12g, estimate is %.12g", sum,
               estimate);
  }
  return "";
}

std::string CheckSameAnswer(const kbtim::SeedSetResult& got,
                            const kbtim::SeedSetResult& want) {
  if (got.seeds != want.seeds) return "seeds differ";
  if (got.marginal_gains.size() != want.marginal_gains.size() ||
      std::memcmp(got.marginal_gains.data(), want.marginal_gains.data(),
                  got.marginal_gains.size() * sizeof(double)) != 0) {
    return "marginal gains differ";
  }
  if (std::memcmp(&got.estimated_influence, &want.estimated_influence,
                  sizeof(double)) != 0) {
    return Fmt("estimate %.17g differs from %.17g", got.estimated_influence,
               want.estimated_influence);
  }
  if (got.degraded != want.degraded) return "degraded flag differs";
  return "";
}

double EstimateTolerance(const SpreadEstimate& simulated, double epsilon) {
  return epsilon / 2.0 + 4.0 * simulated.std_error /
                             std::max(simulated.mean, 1e-12);
}

std::string CheckEstimate(double estimate, const SpreadEstimate& simulated,
                          double epsilon) {
  if (!(simulated.mean > 0.0)) return "simulated spread is not positive";
  const double gap = std::fabs(estimate - simulated.mean) / simulated.mean;
  if (gap > EstimateTolerance(simulated, epsilon)) {
    return Fmt("estimate %.6g is off the simulated spread %.6g", estimate,
               simulated.mean);
  }
  return "";
}

std::string CheckApproximation(const SpreadEstimate& answer,
                               const SpreadEstimate& reference,
                               double epsilon) {
  const double ratio = 1.0 - 1.0 / std::exp(1.0) - epsilon;
  const double high = answer.mean + 4.0 * answer.std_error;
  const double low = reference.mean - 4.0 * reference.std_error;
  if (high < ratio * low) {
    return Fmt("spread %.6g is below the guarantee against %.6g",
               answer.mean, reference.mean);
  }
  return "";
}

}  // namespace perfbench
