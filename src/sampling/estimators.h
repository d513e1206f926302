#ifndef EXPLOREDB_SAMPLING_ESTIMATORS_H_
#define EXPLOREDB_SAMPLING_ESTIMATORS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace exploredb {

/// The aggregates a query computes, exactly, from a sample or online.
enum class AggKind { kAvg, kSum, kCount };

const char* AggKindName(AggKind kind);

/// A point estimate with a symmetric confidence interval — the contract AQP
/// systems expose to the user ("answer ± error at confidence c").
struct Estimate {
  double value = 0.0;
  double ci_half_width = 0.0;  ///< half-width at the requested confidence
  double confidence = 0.95;
  size_t sample_size = 0;

  double lo() const { return value - ci_half_width; }
  double hi() const { return value + ci_half_width; }
};

/// Relative error of an estimate: CI half-width over |value|, with a floor
/// on the denominator so near-zero answers stay finite. A zero estimate with
/// a positive width (a sample that held no matching rows) has no finite
/// ratio; it is off by exactly 100% from any nonzero true value, so it
/// reports 1.
double RelativeError(const Estimate& e);

/// Inverse standard-normal CDF (Acklam's rational approximation, |ε|<1.2e-9).
double NormalQuantile(double p);

/// z-score for a two-sided confidence level (e.g. 0.95 -> ~1.96).
double ZScore(double confidence);

/// COUNT, SUM or AVG of `count` rows whose values sum to `sum`: the exact
/// answer, with width 0.
Estimate ExactAggregate(AggKind kind, double sum, uint64_t count,
                        double confidence);

/// Count, mean and sum of squared deviations from the mean (M2) of a stream
/// of values: Welford's update adds one value, and Chan et al.'s pairwise
/// update merges two streams. Merging in a fixed order (morsel order) gives
/// the same bits at any thread count.
struct Moments {
  uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double x);
  void Merge(const Moments& other);
};

/// The one estimator of sampled and online answers: `matched` holds the
/// values of the matches among `drawn` rows drawn uniformly without
/// replacement from `population` (COUNT reads only its count). COUNT is
/// EstimateCount; SUM scales the draws' mean contribution (a match's value,
/// else 0) and AVG is the matches' mean, with CLT intervals and the
/// finite-population correction. Draws of the whole population are exact.
/// An interval without evidence is +inf wide: AVG from under two matches,
/// SUM from no match or under two draws. `sample_size` is `drawn`, or the
/// matches for AVG.
Estimate EstimateAggregate(AggKind kind, const Moments& matched,
                           uint64_t drawn, uint64_t population,
                           double confidence);

/// CLT-based mean estimate from a uniform sample of an unbounded population
/// (EstimateAggregate's AVG with every value a match).
Estimate EstimateMean(const std::vector<double>& sample, double confidence);

/// Sum over a population of size `population_size`, scaled from the sample
/// mean (EstimateAggregate's SUM with every value a contribution).
Estimate EstimateSum(const std::vector<double>& sample,
                     size_t population_size, double confidence);

/// Count of predicate matches in a population of `population_size`, given
/// `matches` hits in a uniform sample of `sample_size` (Wilson score CI with
/// finite-population correction; zero width only when the sample is the
/// whole population).
Estimate EstimateCount(size_t matches, size_t sample_size,
                       size_t population_size, double confidence);

/// Distribution-free alternative for bounded values in [lo, hi]: Hoeffding
/// half-width for the mean at the given confidence. Wider but assumption-free
/// — the bound the online-aggregation literature quotes for early results.
double HoeffdingHalfWidth(size_t sample_size, double value_lo,
                          double value_hi, double confidence);

}  // namespace exploredb

#endif  // EXPLOREDB_SAMPLING_ESTIMATORS_H_
