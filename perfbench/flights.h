// The benchmark's data set and its independent answer oracle.
//
// One flights-like table, generated from the workload seed:
//
//   ts         int64   clustered (row / 8): RLE/FOR-compressible
//   flight_id  int64   unique, scattered over [0, 2^40)
//   lon        int64   uniform over [0, 2^24): pan-zoom windows
//   air_time   int64   12-bit [0, 4096): FOR-compressible measure
//   dep_delay  double  skewed, quantized to 1/64 minute: brushed dimension
//   arr_delay  double  dep_delay + noise, quantized to 1/64: measure
//   carrier    string  12 values, skewed: low-cardinality dimension
//   origin     string  64 values, skewed: mid-cardinality dimension
//
// Delays are multiples of 1/64 so every partial sum the engine forms is an
// exactly representable double: exact answers compare bit for bit, whatever
// order the engine adds in.
//
// The oracle never calls the engine. One row-at-a-time pass over the
// generated columns fills per-cell accumulators; every query the workloads
// issue is a union of whole cells, so its answer is a few prefix-sum lookups.

#ifndef PERFBENCH_FLIGHTS_H_
#define PERFBENCH_FLIGHTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

inline constexpr size_t kRows = 5'000'000;

// lon: window bounds are multiples of kLonCell.
inline constexpr int64_t kLonDomain = int64_t{1} << 24;
inline constexpr int64_t kLonCell = 256;
inline constexpr size_t kLonCells = kLonDomain / kLonCell;

// ts: the crossfilter time slider filters `ts >= SinceBound(cell)`.
inline constexpr int64_t kTsCell = 9'766;
inline constexpr int kSinceCells = 64;

// dep_delay: brushes cover whole cells of kDelayCellWidth minutes.
inline constexpr double kDelayLo = -15.0;
inline constexpr double kDelayCellWidth = 7.5;
inline constexpr int kDelayCells = 28;

inline constexpr int kCarriers = 12;
inline constexpr int kOrigins = 64;

/// Column indexes of the generated table.
enum Col : size_t {
  kTs,
  kFlightId,
  kLon,
  kAirTime,
  kDepDelay,
  kArrDelay,
  kCarrier,
  kOrigin
};

const std::string& CarrierName(int c);
const std::string& OriginName(int o);
inline double DelayBound(int cell) { return kDelayLo + kDelayCellWidth * cell; }
inline int64_t SinceBound(int cell) { return kTsCell * cell; }

/// Generates the table; equal seeds give identical tables.
exploredb::Table GenerateFlights(uint64_t seed);

/// Count, position sum and position-hash sum of a set of row positions: two
/// sets of distinct positions with equal digests are, for practical
/// purposes, equal.
struct SetDigest {
  uint64_t count = 0;
  uint64_t pos_sum = 0;
  uint64_t pos_hash = 0;

  void Add(uint32_t pos);
  bool operator==(const SetDigest&) const = default;
};

/// The crossfilter filter state, in cell units.
struct CrossFilter {
  int since = 0;      ///< ts >= SinceBound(since)
  int delay_lo = 0;   ///< dep_delay in [DelayBound(lo), DelayBound(hi))
  int delay_hi = kDelayCells;
  int carrier = -1;   ///< -1: all carriers
};

class Oracle {
 public:
  /// One row-at-a-time pass over `table`.
  explicit Oracle(const exploredb::Table& table);

  /// Rows with lo <= lon < hi; both bounds multiples of kLonCell.
  SetDigest LonWindow(int64_t lo, int64_t hi) const;

  struct Totals {
    uint64_t count = 0;
    int64_t arr_sum64 = 0;  ///< sum of arr_delay, in 1/64 minutes
    int64_t air_sum = 0;
  };
  /// Totals of the rows matching `f`.
  Totals Total(const CrossFilter& f) const;
  /// COUNT(*) GROUP BY carrier, ignoring the carrier filter (a crossfilter
  /// view never filters on its own dimension).
  std::map<std::string, double> CountByCarrier(const CrossFilter& f) const;
  /// AVG(arr_delay) GROUP BY origin.
  std::map<std::string, double> AvgArrByOrigin(const CrossFilter& f) const;

 private:
  /// Totals of rows matching `f`'s since and delay filters, for one carrier
  /// and origin.
  Totals Cell(const CrossFilter& f, int carrier, int origin) const;

  // Prefix sums over lon cells: entry c covers cells [0, c).
  std::vector<SetDigest> lon_prefix_;
  // prefix_[((s * (kDelayCells + 1) + d) * kCarriers + c) * kOrigins + o]
  // sums the rows with since cell >= s and delay cell < d.
  std::vector<Totals> prefix_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLIGHTS_H_
