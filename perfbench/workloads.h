// Workload scripts: closed-loop exploration users, each a seeded sequence of
// interactions (think, then submit one query), with every query's expected
// answer taken from the Oracle before the run starts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/query.h"
#include "flights.h"

namespace perfbench {

/// Latency budget of queries without their own: the SLO monitor's
/// interactive class.
inline constexpr int64_t kInteractiveBudgetNs = 100'000'000;

struct Expected {
  enum class Shape { kLonWindow, kScalar, kGroups };
  Shape shape = Shape::kScalar;
  SetDigest digest;  ///< kLonWindow: the matching positions
  int64_t lo = 0;    ///< kLonWindow: window [lo, hi)
  int64_t hi = 0;
  double scalar = 0;
  std::map<std::string, double> groups;
};

struct Request {
  exploredb::Query query;
  std::string key;  ///< query.CacheKey(), for speculation accounting
  exploredb::ExecutionMode mode = exploredb::ExecutionMode::kScan;
  int64_t budget_ns = 0;  ///< kBudgeted: the query's latency budget
  Expected expected;

  exploredb::ExecContext MakeContext() const;
  int64_t EffectiveBudgetNs() const {
    return budget_ns > 0 ? budget_ns : kInteractiveBudgetNs;
  }
};

struct Interaction {
  int64_t think_ns = 0;  ///< think time before the request is due
  Request request;
};

struct User {
  std::string tenant;
  double mean_think_ms = 0;
  std::vector<Interaction> script;  ///< cycled if a run outlasts it
};

struct Workload {
  std::string name;
  std::vector<User> users;
};

/// The named workload's users, scripted from `seed` for a run of `seconds`;
/// nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     int seconds, const exploredb::Schema& schema,
                                     const Oracle& oracle);

/// How one answer compares with the oracle.
struct Verdict {
  /// Exact answers: equal to the oracle's. Approximate ones: well formed
  /// (finite values and intervals, no group the data lacks).
  bool correct = false;
  /// Correct, and for approximate answers no group missing and every value
  /// within kCiSlack times its reported confidence interval of the oracle's:
  /// a correct estimator misses its own interval in about 1 - confidence of
  /// its answers, and the widened one practically never. Only accurate
  /// answers count as within budget, so a fast wrong estimate is never a
  /// gain.
  bool accurate = false;
  /// Approximate answers: no group missing and every value's own interval
  /// holds the oracle's.
  bool covered = false;
  /// Approximate answers: mean relative error, capped at 1 per value.
  double rel_error = 0.0;
};

inline constexpr double kCiSlack = 3.0;

/// Checks `result` against the request's expected answer.
Verdict Verify(const Request& request, const exploredb::QueryResult& result,
               const exploredb::Table& table);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
