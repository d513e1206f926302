#include "sampling/estimators.h"

#include <algorithm>
#include <cmath>

namespace exploredb {

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

namespace {

void MeanVariance(const std::vector<double>& sample, double* mean,
                  double* variance) {
  // Welford's online algorithm for numerical stability.
  double m = 0.0, m2 = 0.0;
  size_t n = 0;
  for (double x : sample) {
    ++n;
    double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
  }
  *mean = m;
  *variance = (n > 1) ? m2 / static_cast<double>(n - 1) : 0.0;
}

}  // namespace

Estimate EstimateMean(const std::vector<double>& sample, double confidence) {
  Estimate e;
  e.confidence = confidence;
  e.sample_size = sample.size();
  if (sample.empty()) return e;
  double mean, var;
  MeanVariance(sample, &mean, &var);
  e.value = mean;
  e.ci_half_width =
      ZScore(confidence) * std::sqrt(var / static_cast<double>(sample.size()));
  return e;
}

Estimate EstimateSum(const std::vector<double>& sample,
                     size_t population_size, double confidence) {
  Estimate e = EstimateMean(sample, confidence);
  const double N = static_cast<double>(population_size);
  const double n = static_cast<double>(sample.size());
  // Finite-population correction for sampling without replacement.
  double fpc =
      (population_size > 1 && n < N) ? std::sqrt((N - n) / (N - 1)) : 0.0;
  e.value *= N;
  e.ci_half_width *= N * fpc;
  return e;
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
  double fpc =
      (population_size > 1 && n < N) ? std::sqrt((N - n) / (N - 1)) : 0.0;
  e.ci_half_width = (std::abs(p - center) + spread) * N * fpc;
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
