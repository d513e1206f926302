#ifndef EXPLOREDB_BENCH_BENCH_UTIL_H_
#define EXPLOREDB_BENCH_BENCH_UTIL_H_

// Shared workload generators and a small fixed-width report printer used by
// every experiment binary. Each binary regenerates one experiment from
// DESIGN.md's per-experiment index and prints the series a figure would plot.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "storage/table.h"

namespace exploredb::bench {

/// Scales a benchmark row count down to a smoke-test size when
/// EXPLOREDB_BENCH_SMOKE is set, so CI can execute every benchmark body
/// without paying for full workload generation.
inline size_t ScaledRows(size_t full) {
  static const bool smoke = std::getenv("EXPLOREDB_BENCH_SMOKE") != nullptr;
  return smoke ? std::max<size_t>(full / 1000, 1000) : full;
}

/// Uniform random int64 column in [0, domain).
inline std::vector<int64_t> RandomInts(size_t n, int64_t domain,
                                       uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.UniformInt(0, domain - 1);
  return v;
}

/// Sales-style table: categorical dims + numeric measures, with graded
/// revenue deviations planted on the flag=1 subset: strong on dim0, medium
/// on dim1, weak on dim2. The SeeDB experiments must rank the views in that
/// order, and the graded spread is what gives pruning something to cut.
inline Table SalesTable(size_t n, uint64_t seed, size_t num_dims = 4) {
  std::vector<Field> fields;
  for (size_t d = 0; d < num_dims; ++d) {
    fields.push_back({"dim" + std::to_string(d), DataType::kString});
  }
  fields.push_back({"revenue", DataType::kDouble});
  fields.push_back({"quantity", DataType::kDouble});
  fields.push_back({"flag", DataType::kInt64});
  Table t((Schema(fields)));
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    std::vector<bool> hit(num_dims, false);
    for (size_t d = 0; d < num_dims; ++d) {
      size_t cardinality = 4 + d * 3;
      size_t value = rng.Uniform(cardinality);
      hit[d] = (value == 0);
      row.push_back(Value("v" + std::to_string(value)));
    }
    int64_t flag = static_cast<int64_t>(rng.Uniform(2));
    double revenue = 100 + rng.NextGaussian() * 15;
    if (flag == 1) {
      if (hit[0]) revenue += 70;                      // strong deviation
      if (num_dims > 1 && hit[1]) revenue += 30;      // medium
      if (num_dims > 2 && hit[2]) revenue += 10;      // weak
    }
    row.push_back(Value(revenue));
    row.push_back(Value(1.0 + rng.NextDouble() * 9));
    row.push_back(Value(flag));
    if (!t.AppendRow(row).ok()) break;
  }
  return t;
}

/// Prints "== <experiment id>: <title> ==".
inline void Banner(const std::string& id, const std::string& title) {
  std::printf("\n== %s: %s ==\n", id.c_str(), title.c_str());
}

/// Fixed-width row printer: Row("a", 1.5, 2) etc.
inline void PrintCell(const char* v) { std::printf("%-22s", v); }
inline void PrintCell(const std::string& v) { std::printf("%-22s", v.c_str()); }
inline void PrintCell(double v) { std::printf("%-22.4f", v); }

template <typename T>
  requires std::is_integral_v<T>
void PrintCell(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    std::printf("%-22s", v ? "yes" : "no");
  } else if constexpr (std::is_signed_v<T>) {
    std::printf("%-22lld", static_cast<long long>(v));
  } else {
    std::printf("%-22llu", static_cast<unsigned long long>(v));
  }
}

inline void Row() { std::printf("\n"); }

template <typename T, typename... Rest>
void Row(const T& first, const Rest&... rest) {
  PrintCell(first);
  Row(rest...);
}

// ---------------------------------------------------------------------------
// Machine-readable results: every benchmark can report (name, iters, ns/op,
// counters) records; when $EXPLOREDB_BENCH_JSON names a file, the accumulated
// records are written there as JSON at process exit (and on Flush). With the
// variable unset, reporting costs one getenv-backed branch — benches always
// report, and CI decides whether a trajectory file gets produced.
// ---------------------------------------------------------------------------

class JsonReporter {
 public:
  /// Process-wide reporter; flushed by its destructor at exit.
  static JsonReporter& Get() {
    static JsonReporter reporter;
    return reporter;
  }

  /// Records one benchmark result. `counters` are free-form named values
  /// (rows/s, splits, hit-rate, ...) that ride along with the timing.
  void Report(std::string name, uint64_t iters, double ns_per_op,
              std::vector<std::pair<std::string, double>> counters = {}) {
    records_.push_back(Record{std::move(name), iters, ns_per_op,
                              std::move(counters)});
  }

  /// Writes all records to $EXPLOREDB_BENCH_JSON (overwrite). No-op when the
  /// variable is unset or no records were reported.
  void Flush() {
    const char* path = std::getenv("EXPLOREDB_BENCH_JSON");
    if (path == nullptr || records_.empty()) return;
    JsonWriter w;
    w.BeginObject().Key("benchmarks").BeginArray();
    for (const Record& r : records_) {
      w.BeginObject().Key("name").String(r.name).Key("iters").Uint(r.iters);
      w.Key("ns_per_op").Double(r.ns_per_op);
      if (!r.counters.empty()) {
        w.Key("counters").BeginObject();
        for (const auto& [name, value] : r.counters) w.Key(name).Double(value);
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndArray().EndObject();
    std::ofstream(path) << w.str() << '\n';
  }

  ~JsonReporter() { Flush(); }

 private:
  struct Record {
    std::string name;
    uint64_t iters;
    double ns_per_op;
    std::vector<std::pair<std::string, double>> counters;
  };

  std::vector<Record> records_;
};

/// Convenience wrapper: bench::ReportJson("crack_select", iters, ns_per_op,
/// {{"splits", 12}, {"rows", 1e6}});
inline void ReportJson(std::string name, uint64_t iters, double ns_per_op,
                       std::vector<std::pair<std::string, double>> counters =
                           {}) {
  JsonReporter::Get().Report(std::move(name), iters, ns_per_op,
                             std::move(counters));
}

}  // namespace exploredb::bench

#endif  // EXPLOREDB_BENCH_BENCH_UTIL_H_
