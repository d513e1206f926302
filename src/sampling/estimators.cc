#include "sampling/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace exploredb {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kCount:
      return "COUNT";
  }
  return "?";
}

double RelativeError(const Estimate& e) {
  if (e.ci_half_width == 0.0) return 0.0;
  if (e.value == 0.0) return 1.0;
  return e.ci_half_width / std::max(std::abs(e.value), 1e-12);
}

double NormalQuantile(double p) {
  // Peter Acklam's inverse-normal approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p <= 0.0) return -INFINITY;
  if (p >= 1.0) return INFINITY;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

double ZScore(double confidence) {
  return NormalQuantile(0.5 + confidence / 2.0);
}

Estimate ExactAggregate(AggKind kind, double sum, uint64_t count,
                        double confidence) {
  Estimate e;
  e.confidence = confidence;
  e.sample_size = count;
  switch (kind) {
    case AggKind::kCount:
      e.value = static_cast<double>(count);
      break;
    case AggKind::kSum:
      e.value = sum;
      break;
    case AggKind::kAvg:
      e.value = count == 0 ? 0.0 : sum / static_cast<double>(count);
      break;
  }
  return e;
}

namespace {

/// Finite-population correction for `n` of `N` rows drawn without
/// replacement: 0 once the draws cover the population.
double Fpc(double n, double N) {
  return (N > 1 && n < N) ? std::sqrt((N - n) / (N - 1)) : 0.0;
}

}  // namespace

void Moments::Add(double x) {
  ++count;
  const double delta = x - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (x - mean);
}

void Moments::Merge(const Moments& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean - mean;
  const double share = static_cast<double>(other.count) /
                       static_cast<double>(count + other.count);
  mean += delta * share;
  m2 += other.m2 + delta * delta * static_cast<double>(count) * share;
  count += other.count;
}

Estimate EstimateAggregate(AggKind kind, const Moments& matched,
                           uint64_t drawn, uint64_t population,
                           double confidence) {
  if (kind == AggKind::kCount) {
    return EstimateCount(matched.count, drawn, population, confidence);
  }
  // AVG is the matches' mean. SUM scales the mean contribution of every
  // draw (a match's value, else 0) by the population.
  Moments m = matched;
  double scale = 1.0;
  if (kind == AggKind::kSum) {
    m.Merge({drawn - matched.count, 0.0, 0.0});
    scale = static_cast<double>(population);
  }
  Estimate e;
  e.confidence = confidence;
  e.sample_size = m.count;
  e.value = m.mean * scale;
  if (drawn >= population) return e;
  if (matched.count == 0 || m.count < 2) {
    e.ci_half_width = INFINITY;
    return e;
  }
  const double n = static_cast<double>(m.count);
  e.ci_half_width = ZScore(confidence) * std::sqrt(m.m2 / (n - 1)) /
                    std::sqrt(n) * scale *
                    Fpc(static_cast<double>(drawn),
                        static_cast<double>(population));
  return e;
}

Estimate EstimateMean(const std::vector<double>& sample, double confidence) {
  Moments moments;
  for (double x : sample) moments.Add(x);
  // An unbounded population: no finite-population correction.
  return EstimateAggregate(AggKind::kAvg, moments, sample.size(),
                           std::numeric_limits<uint64_t>::max(), confidence);
}

Estimate EstimateSum(const std::vector<double>& sample,
                     size_t population_size, double confidence) {
  Moments moments;
  for (double x : sample) moments.Add(x);
  return EstimateAggregate(AggKind::kSum, moments, sample.size(),
                           population_size, confidence);
}

Estimate EstimateCount(size_t matches, size_t sample_size,
                       size_t population_size, double confidence) {
  Estimate e;
  e.confidence = confidence;
  e.sample_size = sample_size;
  const double N = static_cast<double>(population_size);
  if (sample_size == 0) {
    // No evidence: the count may be anything in [0, N].
    e.ci_half_width = N;
    return e;
  }
  const double n = static_cast<double>(sample_size);
  const double p = static_cast<double>(matches) / n;
  // A sample of the whole population is the count itself.
  e.value = sample_size == population_size ? static_cast<double>(matches)
                                           : p * N;
  // Wilson score interval. Unlike the normal-approximation interval
  // z*sqrt(p(1-p)/n), it keeps a positive width when the sample holds no
  // matching rows or only matching rows. Its bounds sit asymmetrically
  // around p, so the symmetric half-width is the distance to the farther one.
  const double z = ZScore(confidence);
  const double z2n = z * z / n;
  const double center = (p + z2n / 2) / (1 + z2n);
  const double spread =
      z / (1 + z2n) * std::sqrt(p * (1 - p) / n + z2n / (4 * n));
  e.ci_half_width = (std::abs(p - center) + spread) * N * Fpc(n, N);
  return e;
}

double HoeffdingHalfWidth(size_t sample_size, double value_lo,
                          double value_hi, double confidence) {
  if (sample_size == 0) return INFINITY;
  const double range = value_hi - value_lo;
  const double delta = 1.0 - confidence;
  return range * std::sqrt(std::log(2.0 / delta) /
                           (2.0 * static_cast<double>(sample_size)));
}

}  // namespace exploredb
