#include "flights.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>

#include "common/random.h"

namespace perfbench {

using exploredb::DataType;
using exploredb::Random;
using exploredb::Schema;
using exploredb::Table;

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<std::string> MakeOrigins() {
  std::vector<std::string> names;
  for (int o = 0; o < kOrigins; ++o) {
    names.push_back({static_cast<char>('B' + o / 8),
                     static_cast<char>('C' + o % 8), 'X'});
  }
  return names;
}

/// Categorical draw with weights 1 / (k + 1)^s.
class Skewed {
 public:
  Skewed(int n, double s) {
    double total = 0;
    for (int k = 0; k < n; ++k) {
      total += 1.0 / std::pow(k + 1.0, s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(Random* rng) const {
    const auto it =
        std::upper_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return static_cast<int>(
        std::min<ptrdiff_t>(it - cdf_.begin(), std::ssize(cdf_) - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Rounds down to a multiple of 1/64.
double Quantize(double v) { return std::floor(v * 64.0) / 64.0; }

Oracle::Totals operator-(const Oracle::Totals& a, const Oracle::Totals& b) {
  return {a.count - b.count, a.arr_sum64 - b.arr_sum64, a.air_sum - b.air_sum};
}

void Accumulate(Oracle::Totals* into, const Oracle::Totals& t) {
  into->count += t.count;
  into->arr_sum64 += t.arr_sum64;
  into->air_sum += t.air_sum;
}

size_t PrefixIndex(int since, int delay, int carrier, int origin) {
  return ((static_cast<size_t>(since) * (kDelayCells + 1) + delay) *
              kCarriers +
          carrier) *
             kOrigins +
         origin;
}

}  // namespace

const std::string& CarrierName(int c) {
  static const std::vector<std::string> names = {
      "AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9", "G4", "HA", "SY", "MQ"};
  return names[c];
}

const std::string& OriginName(int o) {
  static const std::vector<std::string> names = MakeOrigins();
  return names[o];
}

Table GenerateFlights(uint64_t seed) {
  Table t(Schema({{"ts", DataType::kInt64},
                  {"flight_id", DataType::kInt64},
                  {"lon", DataType::kInt64},
                  {"air_time", DataType::kInt64},
                  {"dep_delay", DataType::kDouble},
                  {"arr_delay", DataType::kDouble},
                  {"carrier", DataType::kString},
                  {"origin", DataType::kString}}));
  t.Reserve(kRows);
  Random rng(seed);
  const Skewed carriers(kCarriers, 0.9);
  const Skewed origins(kOrigins, 0.7);
  // An odd multiplier is a bijection modulo 2^40, so ids are unique.
  const uint64_t id_mask = (uint64_t{1} << 40) - 1;
  const uint64_t id_mult = Mix(seed) | 1;
  const uint64_t id_offset = Mix(seed + 1);
  const double delay_max = DelayBound(kDelayCells) - 1.0 / 64.0;
  for (size_t i = 0; i < kRows; ++i) {
    t.mutable_column(kTs)->AppendInt64(static_cast<int64_t>(i >> 3));
    t.mutable_column(kFlightId)
        ->AppendInt64(static_cast<int64_t>((i * id_mult + id_offset) & id_mask));
    t.mutable_column(kLon)->AppendInt64(
        static_cast<int64_t>(rng.Uniform(kLonDomain)));
    t.mutable_column(kAirTime)->AppendInt64(
        static_cast<int64_t>(rng.Uniform(4096)));
    const double dep = Quantize(std::min(
        delay_max, kDelayLo - 25.0 * std::log(1.0 - rng.NextDouble())));
    t.mutable_column(kDepDelay)->AppendDouble(dep);
    t.mutable_column(kArrDelay)
        ->AppendDouble(dep + Quantize(rng.NextDouble() * 40.0 - 20.0));
    t.mutable_column(kCarrier)->AppendString(CarrierName(carriers.Draw(&rng)));
    t.mutable_column(kOrigin)->AppendString(OriginName(origins.Draw(&rng)));
  }
  return t;
}

void SetDigest::Add(uint32_t pos) {
  ++count;
  pos_sum += pos;
  pos_hash += Mix(pos);
}

Oracle::Oracle(const Table& table) {
  std::map<std::string, int> carrier_code;
  for (int c = 0; c < kCarriers; ++c) carrier_code[CarrierName(c)] = c;
  std::map<std::string, int> origin_code;
  for (int o = 0; o < kOrigins; ++o) origin_code[OriginName(o)] = o;

  const auto& ts = table.column(kTs).int64_data();
  const auto& lon = table.column(kLon).int64_data();
  const auto& air = table.column(kAirTime).int64_data();
  const auto& dep = table.column(kDepDelay).double_data();
  const auto& arr = table.column(kArrDelay).double_data();
  const auto& carrier = table.column(kCarrier).string_data();
  const auto& origin = table.column(kOrigin).string_data();

  std::vector<SetDigest> lon_cells(kLonCells);
  std::vector<Totals> cells(static_cast<size_t>(kSinceCells) * kDelayCells *
                            kCarriers * kOrigins);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    lon_cells[static_cast<size_t>(lon[row] / kLonCell)].Add(
        static_cast<uint32_t>(row));
    const auto s = static_cast<size_t>(ts[row] / kTsCell);
    const auto d = static_cast<size_t>(
        std::floor((dep[row] - kDelayLo) / kDelayCellWidth));
    const auto c = static_cast<size_t>(carrier_code.at(carrier[row]));
    const auto o = static_cast<size_t>(origin_code.at(origin[row]));
    Totals& cell = cells[((s * kDelayCells + d) * kCarriers + c) * kOrigins + o];
    ++cell.count;
    cell.arr_sum64 += std::llround(arr[row] * 64.0);
    cell.air_sum += air[row];
  }

  lon_prefix_.assign(kLonCells + 1, SetDigest{});
  for (size_t c = 0; c < kLonCells; ++c) {
    lon_prefix_[c + 1] = {lon_prefix_[c].count + lon_cells[c].count,
                          lon_prefix_[c].pos_sum + lon_cells[c].pos_sum,
                          lon_prefix_[c].pos_hash + lon_cells[c].pos_hash};
  }

  prefix_.assign(static_cast<size_t>(kSinceCells + 1) * (kDelayCells + 1) *
                     kCarriers * kOrigins,
                 Totals{});
  for (int s = kSinceCells - 1; s >= 0; --s) {
    for (int c = 0; c < kCarriers; ++c) {
      for (int o = 0; o < kOrigins; ++o) {
        Totals running;
        for (int d = 1; d <= kDelayCells; ++d) {
          Accumulate(&running,
                     cells[((static_cast<size_t>(s) * kDelayCells + d - 1) *
                                kCarriers +
                            c) *
                               kOrigins +
                           o]);
          Totals& p = prefix_[PrefixIndex(s, d, c, o)];
          p = prefix_[PrefixIndex(s + 1, d, c, o)];
          Accumulate(&p, running);
        }
      }
    }
  }
}

SetDigest Oracle::LonWindow(int64_t lo, int64_t hi) const {
  const SetDigest& a = lon_prefix_[static_cast<size_t>(lo / kLonCell)];
  const SetDigest& b = lon_prefix_[static_cast<size_t>(hi / kLonCell)];
  return {b.count - a.count, b.pos_sum - a.pos_sum, b.pos_hash - a.pos_hash};
}

Oracle::Totals Oracle::Cell(const CrossFilter& f, int carrier,
                            int origin) const {
  return prefix_[PrefixIndex(f.since, f.delay_hi, carrier, origin)] -
         prefix_[PrefixIndex(f.since, f.delay_lo, carrier, origin)];
}

Oracle::Totals Oracle::Total(const CrossFilter& f) const {
  Totals total;
  for (int c = 0; c < kCarriers; ++c) {
    if (f.carrier >= 0 && c != f.carrier) continue;
    for (int o = 0; o < kOrigins; ++o) Accumulate(&total, Cell(f, c, o));
  }
  return total;
}

std::map<std::string, double> Oracle::CountByCarrier(
    const CrossFilter& f) const {
  std::map<std::string, double> out;
  for (int c = 0; c < kCarriers; ++c) {
    uint64_t count = 0;
    for (int o = 0; o < kOrigins; ++o) count += Cell(f, c, o).count;
    if (count > 0) out[CarrierName(c)] = static_cast<double>(count);
  }
  return out;
}

std::map<std::string, double> Oracle::AvgArrByOrigin(
    const CrossFilter& f) const {
  std::map<std::string, double> out;
  for (int o = 0; o < kOrigins; ++o) {
    Totals t;
    for (int c = 0; c < kCarriers; ++c) {
      if (f.carrier >= 0 && c != f.carrier) continue;
      Accumulate(&t, Cell(f, c, o));
    }
    if (t.count > 0) {
      out[OriginName(o)] = static_cast<double>(t.arr_sum64) / 64.0 /
                           static_cast<double>(t.count);
    }
  }
  return out;
}

}  // namespace perfbench
