// Compressed-storage suite (DESIGN.md §2g): pack/unpack/filter-packed kernel
// round-trips across every compiled-in SIMD tier and awkward widths/lengths,
// codec round-trips (FOR + RLE) against decode oracles, exact RLE
// selectivity, the dictionary promotion of string columns, and whole-query
// bit-identity of compressed scans against raw scans across SIMD paths and
// thread counts, plus every path that filters conjuncts checked against a
// row-at-a-time oracle. Compression is exact by construction; these tests
// exist so any future codec change that breaks exactness fails loudly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "simd/simd.h"
#include "storage/compression/compressed_column.h"
#include "storage/zone_map.h"

namespace exploredb {
namespace {

using simd::KernelTable;
using simd::SimdPath;

std::vector<SimdPath> SupportedPaths() {
  std::vector<SimdPath> paths = {SimdPath::kScalar};
  if (simd::PathSupported(SimdPath::kSse42)) paths.push_back(SimdPath::kSse42);
  if (simd::PathSupported(SimdPath::kAvx2)) paths.push_back(SimdPath::kAvx2);
  return paths;
}

constexpr CompareOp kAllOps[] = {CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe,
                                 CompareOp::kEq, CompareOp::kNe};

bool MatchesI64(int64_t v, CompareOp op, int64_t k) {
  switch (op) {
    case CompareOp::kLt:
      return v < k;
    case CompareOp::kLe:
      return v <= k;
    case CompareOp::kGt:
      return v > k;
    case CompareOp::kGe:
      return v >= k;
    case CompareOp::kEq:
      return v == k;
    case CompareOp::kNe:
      return v != k;
  }
  return false;
}

/// Packs `deltas` at `width` bits exactly the way the encoder does (+1 guard
/// word, as the AVX2 kernels require).
std::vector<uint64_t> Pack(const std::vector<uint64_t>& deltas,
                           uint32_t width) {
  std::vector<uint64_t> words(
      (deltas.size() * static_cast<size_t>(width) + 63) / 64 + 1, 0);
  if (width == 0) return words;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const uint64_t bit = static_cast<uint64_t>(i) * width;
    const uint64_t wd = bit >> 6;
    const uint32_t o = static_cast<uint32_t>(bit & 63);
    words[wd] |= deltas[i] << o;
    if (o + width > 64) words[wd + 1] |= deltas[i] >> (64 - o);
  }
  return words;
}

uint64_t WidthMask(uint32_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

// ---- packed kernels: round-trip on every tier ------------------------------

TEST(PackedKernelTest, UnpackRoundTripsAllWidthsAndPaths) {
  Random rng(11);
  const int64_t frames[] = {0, -5, std::numeric_limits<int64_t>::min(),
                            1'000'000'007};
  for (uint32_t width : {0u, 1u, 2u, 3u, 7u, 8u, 13u, 31u, 32u, 33u, 63u,
                         64u}) {
    for (size_t n : {size_t{1}, size_t{5}, size_t{127}, size_t{128},
                     size_t{129}, size_t{1000}}) {
      std::vector<uint64_t> deltas(n);
      for (auto& d : deltas) d = rng.Next() & WidthMask(width);
      const std::vector<uint64_t> words = Pack(deltas, width);
      for (int64_t frame : frames) {
        std::vector<int64_t> want(n);
        for (size_t i = 0; i < n; ++i) {
          want[i] = static_cast<int64_t>(static_cast<uint64_t>(frame) +
                                         deltas[i]);
        }
        for (SimdPath path : SupportedPaths()) {
          const KernelTable& kt = simd::KernelsFor(path);
          // Whole-range unpack plus an offset sub-range (the 128-row
          // sub-block path starts mid-stream).
          std::vector<int64_t> got(n);
          kt.unpack_for_i64(words.data(), 0, static_cast<uint32_t>(n), width,
                            frame, got.data());
          EXPECT_EQ(got, want)
              << "width=" << width << " n=" << n
              << " path=" << simd::SimdPathName(path);
          const uint32_t start = static_cast<uint32_t>(n / 3);
          const uint32_t cnt = static_cast<uint32_t>(n - start);
          std::vector<int64_t> part(cnt);
          kt.unpack_for_i64(words.data(), start, cnt, width, frame,
                            part.data());
          for (uint32_t i = 0; i < cnt; ++i) {
            ASSERT_EQ(part[i], want[start + i])
                << "width=" << width << " n=" << n << " start=" << start
                << " path=" << simd::SimdPathName(path);
          }
        }
      }
    }
  }
}

TEST(PackedKernelTest, FilterPackedMatchesScalarOnAllPaths) {
  Random rng(13);
  for (uint32_t width : {1u, 3u, 8u, 17u, 33u, 63u, 64u}) {
    for (size_t n : {size_t{1}, size_t{129}, size_t{1000}}) {
      std::vector<uint64_t> deltas(n);
      for (auto& d : deltas) d = rng.Next() & WidthMask(width);
      const std::vector<uint64_t> words = Pack(deltas, width);
      for (int trial = 0; trial < 8; ++trial) {
        // Random inclusive [lo, hi] in the delta domain, sometimes touching
        // the extremes and sometimes empty (lo > hi).
        uint64_t lo = rng.Next() & WidthMask(width);
        uint64_t hi = rng.Next() & WidthMask(width);
        if (trial == 0) lo = 0;
        if (trial == 1) hi = WidthMask(width);
        const uint32_t start = static_cast<uint32_t>(trial % 2 == 0 ? 0 : n / 4);
        const uint32_t cnt = static_cast<uint32_t>(n - start);
        const uint32_t row_base = 100'000;
        std::vector<uint32_t> want(cnt + 4);
        const uint32_t want_n = simd::KernelsFor(SimdPath::kScalar)
                                    .filter_packed_i64(words.data(), start,
                                                       cnt, width, lo, hi,
                                                       row_base, want.data());
        want.resize(want_n);
        for (SimdPath path : SupportedPaths()) {
          std::vector<uint32_t> got(cnt + 4);
          const uint32_t got_n = simd::KernelsFor(path).filter_packed_i64(
              words.data(), start, cnt, width, lo, hi, row_base, got.data());
          got.resize(got_n);
          EXPECT_EQ(got, want)
              << "width=" << width << " n=" << n << " lo=" << lo
              << " hi=" << hi << " path=" << simd::SimdPathName(path);
        }
        // Oracle: positions of deltas inside [lo, hi].
        std::vector<uint32_t> oracle;
        for (uint32_t i = 0; i < cnt; ++i) {
          const uint64_t d = deltas[start + i];
          if (d >= lo && d <= hi) oracle.push_back(row_base + i);
        }
        EXPECT_EQ(want, oracle) << "width=" << width << " n=" << n;
      }
    }
  }
}

// ---- codecs: encode/decode/filter round-trips ------------------------------

/// Data flavors the encoder must survive: full-range spikes, small domains
/// (dense FOR), sorted/clustered runs (RLE), constants.
std::vector<int64_t> FlavoredData(int flavor, size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> v(n);
  switch (flavor) {
    case 0:  // full-range with INT64_MIN/MAX spikes
      for (auto& x : v) {
        switch (rng.Uniform(8)) {
          case 0:
            x = std::numeric_limits<int64_t>::min();
            break;
          case 1:
            x = std::numeric_limits<int64_t>::max();
            break;
          default:
            x = static_cast<int64_t>(rng.Next());
        }
      }
      break;
    case 1:  // small domain, unsorted
      for (auto& x : v) x = rng.UniformInt(-500, 500);
      break;
    case 2:  // sorted/clustered: long runs (RLE-friendly)
      for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i / 777);
      break;
    case 3:  // all-equal
      for (auto& x : v) x = -42;
      break;
    default:  // negative clustered
      for (size_t i = 0; i < n; ++i) {
        v[i] = -1'000'000 + static_cast<int64_t>(i / 333);
      }
  }
  return v;
}

TEST(CompressedInt64Test, EncodeValidateDecodeRoundTrip) {
  for (int flavor = 0; flavor < 5; ++flavor) {
    for (size_t n : {size_t{1}, size_t{8191}, size_t{8192}, size_t{8193},
                     size_t{30'000}}) {
      const std::vector<int64_t> data = FlavoredData(flavor, n, 100 + flavor);
      const CompressedInt64Column col = CompressedInt64Column::Encode(data);
      ASSERT_EQ(col.num_rows(), n);
      ASSERT_TRUE(col.Validate(&data).ok()) << "flavor=" << flavor
                                            << " n=" << n;
      // Gather with a random ascending selection.
      Random rng(7 * flavor + 1);
      std::vector<uint32_t> sel;
      for (uint32_t r = 0; r < n; ++r) {
        if (rng.Uniform(3) == 0) sel.push_back(r);
      }
      std::vector<int64_t> got(sel.size());
      col.Gather(sel.data(), static_cast<uint32_t>(sel.size()), got.data());
      for (size_t i = 0; i < sel.size(); ++i) {
        ASSERT_EQ(got[i], data[sel[i]]) << "flavor=" << flavor << " i=" << i;
      }
      // A fully consecutive selection (the window-predicate shape, served by
      // the Decode fast path).
      const uint32_t lo = static_cast<uint32_t>(n / 4);
      const uint32_t cnt = static_cast<uint32_t>(n - lo - n / 4);
      if (cnt > 0) {
        std::vector<uint32_t> consec(cnt);
        for (uint32_t i = 0; i < cnt; ++i) consec[i] = lo + i;
        std::vector<int64_t> dense(cnt);
        col.Gather(consec.data(), cnt, dense.data());
        for (uint32_t i = 0; i < cnt; ++i) {
          ASSERT_EQ(dense[i], data[lo + i]) << "flavor=" << flavor;
        }
      }
    }
  }
}

TEST(CompressedInt64Test, FilterCmpMatchesOracleOnAllPaths) {
  const SimdPath original = simd::ActivePath();
  for (int flavor = 0; flavor < 5; ++flavor) {
    const size_t n = 20'000;
    const std::vector<int64_t> data = FlavoredData(flavor, n, 200 + flavor);
    const CompressedInt64Column col = CompressedInt64Column::Encode(data);
    const int64_t ks[] = {data[n / 2], 0, -500, 13,
                          std::numeric_limits<int64_t>::min()};
    for (SimdPath path : SupportedPaths()) {
      ASSERT_TRUE(simd::SetActivePathForTest(path));
      for (CompareOp op : kAllOps) {
        for (int64_t k : ks) {
          // Sub-range starting/ending mid-block, like a 4096-row morsel.
          const uint32_t begin = 4096;
          const uint32_t end = static_cast<uint32_t>(n) - 100;
          std::vector<uint32_t> got;
          col.FilterCmp(begin, end, op, k, &got);
          std::vector<uint32_t> want;
          for (uint32_t r = begin; r < end; ++r) {
            if (MatchesI64(data[r], op, k)) want.push_back(r);
          }
          ASSERT_EQ(got, want)
              << "flavor=" << flavor << " op=" << static_cast<int>(op)
              << " k=" << k << " path=" << simd::SimdPathName(path);
        }
      }
      // The fused window, including an empty one.
      for (auto [lo, hi] : {std::pair<int64_t, int64_t>{-100, 400},
                            {10, 11},
                            {500, -500}}) {
        std::vector<uint32_t> got;
        col.FilterRange(0, static_cast<uint32_t>(n), lo, hi, &got);
        std::vector<uint32_t> want;
        for (uint32_t r = 0; r < n; ++r) {
          if (data[r] >= lo && data[r] < hi) want.push_back(r);
        }
        ASSERT_EQ(got, want) << "flavor=" << flavor << " lo=" << lo
                             << " hi=" << hi
                             << " path=" << simd::SimdPathName(path);
      }
    }
  }
  ASSERT_TRUE(simd::SetActivePathForTest(original));
}

TEST(CompressedInt64Test, ClusteredDataUsesRleAndCompressesHard) {
  const size_t n = 100'000;
  std::vector<int64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<int64_t>(i / 5000);
  const CompressedInt64Column col = CompressedInt64Column::Encode(data);
  EXPECT_GT(col.rle_block_count(), 0u);
  // The acceptance bar: clustered int64 compresses at least 3x.
  EXPECT_GE(col.compression_ratio(), 3.0);
}

TEST(CompressedInt64Test, RleSelectivityIsExact) {
  // 1024-row runs: 8 runs per 8192-row block, so every block picks RLE.
  const size_t n = 12 * 8192;
  std::vector<int64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<int64_t>(i / 1024);
  const CompressedInt64Column col = CompressedInt64Column::Encode(data);
  ASSERT_EQ(col.rle_block_count(), col.num_blocks());
  for (CompareOp op : kAllOps) {
    for (int64_t k : {int64_t{0}, int64_t{7}, int64_t{50}, int64_t{1000}}) {
      size_t matches = 0;
      for (int64_t v : data) matches += MatchesI64(v, op, k) ? 1 : 0;
      const double exact =
          static_cast<double>(matches) / static_cast<double>(n);
      EXPECT_DOUBLE_EQ(col.EstimateSelectivity(op, k), exact)
          << "op=" << static_cast<int>(op) << " k=" << k;
    }
  }
  // And the zone-map overload routes to it.
  ColumnVector cv(DataType::kInt64);
  for (int64_t v : data) ASSERT_TRUE(cv.Append(Value(v)).ok());
  const ZoneMap zm = ZoneMap::Build(cv);
  const Condition c{0, CompareOp::kLe, Value(int64_t{5})};
  EXPECT_DOUBLE_EQ(zm.EstimateSelectivity(c, &col),
                   col.EstimateSelectivity(CompareOp::kLe, 5));
  EXPECT_EQ(zm.EstimateSelectivity(c, nullptr), zm.EstimateSelectivity(c));
}

// ---- string columns: dictionary codes are the storage ----------------------

TEST(CompressedStringTest, CodesRoundTripAndFilter) {
  std::vector<std::string> data;
  const char* vals[] = {"alpha", "beta", "gamma", "delta"};
  Random rng(31);
  ColumnVector col(DataType::kString);
  for (size_t i = 0; i < 10'000; ++i) {
    data.push_back(vals[rng.Uniform(4)]);
    col.AppendString(data.back());
  }
  ASSERT_TRUE(col.dictionary().Validate().ok());
  ASSERT_EQ(col.size(), data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    ASSERT_EQ(col.string_data()[r], data[r]) << r;
  }
  EXPECT_EQ(col.dictionary().size(), 4u);
  ASSERT_TRUE(col.dictionary().Find("beta").has_value());
  EXPECT_FALSE(col.dictionary().Find("omega").has_value());
  // Filtering on codes and on values selects the same rows.
  const std::vector<const ColumnVector*> cols = {&col};
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
    for (const char* constant : {"beta", "omega"}) {
      const std::vector<Condition> conds = {{0, op, Value(constant)}};
      std::vector<uint32_t> want;
      for (uint32_t r = 100; r < 9'000; ++r) {
        if ((data[r] == constant) == (op == CompareOp::kEq)) {
          want.push_back(r);
        }
      }
      for (bool codes : {false, true}) {
        std::vector<uint32_t> got;
        Predicate::FilterRange(conds, cols, 100, 9'000, &got,
                               {nullptr, codes});
        EXPECT_EQ(got, want) << CompareOpName(op) << constant << codes;
      }
    }
  }
}

TEST(CompressedColumnTest, BuildDispatchesByTypeAndCachesOnEntry) {
  Table t(Schema({{"id", DataType::kInt64},
                  {"score", DataType::kDouble},
                  {"kind", DataType::kString}}));
  Random rng(41);
  const char* kinds[] = {"a", "b", "c"};
  for (size_t i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i / 100)),
                             Value(rng.NextDouble()),
                             Value(kinds[rng.Uniform(3)])})
                    .ok());
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  TableEntry* entry = db.GetTable("t").ValueOrDie();

  const CompressedInt64Column* ci = entry->GetCompressed(0).ValueOrDie();
  if (CompressionPolicyFromEnv() == CompressionPolicy::kOff) {
    // Compression off: no int64 representation (a cached nullptr verdict).
    EXPECT_EQ(ci, nullptr);
  } else {
    ASSERT_NE(ci, nullptr);
    EXPECT_GT(ci->compression_ratio(), 1.25);
  }
  // Second fetch serves the cached instance.
  EXPECT_EQ(entry->GetCompressed(0).ValueOrDie(), ci);

  // Doubles have no compressed representation (cached nullptr verdict).
  EXPECT_EQ(entry->GetCompressed(1).ValueOrDie(), nullptr);

  // Nor do strings: the column stores codes in its own dictionary already.
  EXPECT_EQ(entry->GetCompressed(2).ValueOrDie(), nullptr);
  EXPECT_EQ(entry->GetColumn(2).ValueOrDie()->dictionary().size(), 3u);

  // Deep validation covers the compressed representations too.
  ASSERT_TRUE(entry->ValidateAdaptiveState().ok());
}

TEST(CompressedColumnTest, BuildMetricsAccumulate) {
  Counter* blocks = Metrics().GetCounter(
      "exploredb_storage_compressed_blocks_total");
  Counter* raw = Metrics().GetCounter("exploredb_storage_raw_bytes_total");
  Counter* comp = Metrics().GetCounter(
      "exploredb_storage_compressed_bytes_total");
  const uint64_t blocks0 = blocks->Value();
  const uint64_t raw0 = raw->Value();
  const uint64_t comp0 = comp->Value();
  ColumnVector cv(DataType::kInt64);
  for (size_t i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(cv.Append(Value(static_cast<int64_t>(i / 50))).ok());
  }
  std::unique_ptr<CompressedInt64Column> built =
      CompressedInt64Column::Build(cv);
  if (CompressionPolicyFromEnv() == CompressionPolicy::kOff) {
    // Compression off: nothing is encoded, so nothing is counted.
    EXPECT_EQ(built, nullptr);
    EXPECT_EQ(blocks->Value(), blocks0);
    EXPECT_EQ(raw->Value(), raw0);
    EXPECT_EQ(comp->Value(), comp0);
    return;
  }
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(blocks->Value() - blocks0, built->num_blocks());
  EXPECT_EQ(raw->Value() - raw0, built->raw_bytes());
  EXPECT_EQ(comp->Value() - comp0, built->compressed_bytes());
}

// ---- whole-query bit-identity: compressed vs raw, all tiers/threads --------

class CompressedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ts: clustered (RLE + narrow FOR blocks); val: small-domain int64
    // measure; load: double measure (no compressed rep — exercises the mixed
    // path); kind: dict-encoded strings.
    Table t(Schema({{"ts", DataType::kInt64},
                    {"val", DataType::kInt64},
                    {"load", DataType::kDouble},
                    {"kind", DataType::kString}}));
    Random rng(71);
    const char* kinds[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
    for (size_t i = 0; i < 60'000; ++i) {
      ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i / 300)),
                               Value(rng.UniformInt(-1000, 1000)),
                               Value(rng.NextDouble() * 100),
                               Value(kinds[rng.Uniform(5)])})
                      .ok());
    }
    ASSERT_TRUE(db_.CreateTable("events", std::move(t)).ok());
    original_path_ = simd::ActivePath();
  }

  void TearDown() override {
    ASSERT_TRUE(simd::SetActivePathForTest(original_path_));
  }

  static uint64_t Bits(double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  }

  Database db_;
  SimdPath original_path_ = SimdPath::kScalar;
};

TEST_F(CompressedQueryTest, BitIdenticalToRawAcrossPathsAndThreads) {
  Executor exec(&db_);
  std::vector<Query> queries;
  // The exploration window (fused compressed range).
  queries.push_back(Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{40})},
                 {0, CompareOp::kLt, Value(int64_t{160})}})));
  // Mixed conjuncts: compressed int64 seed + compressed string refine +
  // raw double refine.
  queries.push_back(Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{10})},
                 {3, CompareOp::kEq, Value("beta")},
                 {2, CompareOp::kLt, Value(60.0)}})));
  // String-only predicates, present and absent constants, both polarities.
  queries.push_back(Query::On("events").Where(
      Predicate({{3, CompareOp::kEq, Value("gamma")}})));
  queries.push_back(Query::On("events").Where(
      Predicate({{3, CompareOp::kNe, Value("no-such-kind")}})));
  // kNe inside the value range (the decode path).
  queries.push_back(Query::On("events").Where(
      Predicate({{1, CompareOp::kNe, Value(int64_t{0})}})));
  // Aggregates over a compressed int64 measure and a raw double measure.
  Query sum_i = queries[0];
  sum_i.Aggregate(AggKind::kSum, "val");
  Query avg_i = queries[1];
  avg_i.Aggregate(AggKind::kAvg, "val");
  Query sum_d = queries[0];
  sum_d.Aggregate(AggKind::kSum, "load");
  Query cnt = queries[1];
  cnt.Aggregate(AggKind::kCount);
  Query grouped = queries[0];
  grouped.Aggregate(AggKind::kSum, "val").GroupBy("kind");
  // String GROUP BYs under string (in)equalities: the same codes filter and
  // group.
  Query grouped_eq = queries[2];
  grouped_eq.Aggregate(AggKind::kAvg, "load").GroupBy("kind");
  Query grouped_ne = Query::On("events")
                         .Where(Predicate({{3, CompareOp::kNe, Value("beta")},
                                           {3, CompareOp::kNe, Value("")}}))
                         .Aggregate(AggKind::kCount)
                         .GroupBy("kind");
  const bool compression_off =
      CompressionPolicyFromEnv() == CompressionPolicy::kOff;

  // Reference: raw scans (compression off), scalar path, serial.
  ASSERT_TRUE(simd::SetActivePathForTest(SimdPath::kScalar));
  ExecContext raw;
  raw.SetThreadPool(nullptr).SetMorselSize(4096);
  raw.options().use_compression = false;
  std::vector<QueryResult> want_sel;
  for (const Query& q : queries) {
    auto r = exec.Execute(q, raw);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie().stats().compressed_morsels, 0u);
    want_sel.push_back(std::move(r).ValueOrDie());
  }
  ASSERT_FALSE(want_sel[0].positions.empty());
  auto want_sum_i = exec.Execute(sum_i, raw);
  auto want_avg_i = exec.Execute(avg_i, raw);
  auto want_sum_d = exec.Execute(sum_d, raw);
  auto want_cnt = exec.Execute(cnt, raw);
  auto want_grp = exec.Execute(grouped, raw);
  ASSERT_TRUE(want_sum_i.ok() && want_avg_i.ok() && want_sum_d.ok() &&
              want_cnt.ok() && want_grp.ok());
  std::vector<QueryResult> want_str_grp;
  for (const Query* q : {&grouped_eq, &grouped_ne}) {
    auto r = exec.Execute(*q, raw);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.ValueOrDie().groups.empty());
    want_str_grp.push_back(std::move(r).ValueOrDie());
  }
  EXPECT_EQ(want_str_grp[0].groups.size(), 1u);
  EXPECT_EQ(want_str_grp[1].groups.size(), 4u);

  for (SimdPath path : SupportedPaths()) {
    ASSERT_TRUE(simd::SetActivePathForTest(path));
    for (size_t threads : {0u, 1u, 2u, 8u}) {
      std::unique_ptr<ThreadPool> pool;
      ExecContext ctx;
      ctx.SetMorselSize(4096);
      if (threads == 0) {
        ctx.SetThreadPool(nullptr);
      } else {
        pool = std::make_unique<ThreadPool>(threads);
        ctx.SetThreadPool(pool.get());
      }
      const std::string tag = std::string("path=") + simd::SimdPathName(path) +
                              " threads=" + std::to_string(threads);

      for (size_t q = 0; q < queries.size(); ++q) {
        auto r = exec.Execute(queries[q], ctx);
        ASSERT_TRUE(r.ok()) << tag << " q=" << q;
        EXPECT_EQ(r.ValueOrDie().positions, want_sel[q].positions)
            << tag << " q=" << q;
        if (compression_off) {
          EXPECT_EQ(r.ValueOrDie().stats().compressed_morsels, 0u)
              << tag << " q=" << q;
        } else {
          EXPECT_GT(r.ValueOrDie().stats().compressed_morsels, 0u)
              << tag << " q=" << q;
        }
      }
      auto sum_i_r = exec.Execute(sum_i, ctx);
      ASSERT_TRUE(sum_i_r.ok()) << tag;
      EXPECT_EQ(Bits(sum_i_r.ValueOrDie().scalar->value),
                Bits(want_sum_i.ValueOrDie().scalar->value))
          << tag;
      auto avg_i_r = exec.Execute(avg_i, ctx);
      ASSERT_TRUE(avg_i_r.ok()) << tag;
      EXPECT_EQ(Bits(avg_i_r.ValueOrDie().scalar->value),
                Bits(want_avg_i.ValueOrDie().scalar->value))
          << tag;
      auto sum_d_r = exec.Execute(sum_d, ctx);
      ASSERT_TRUE(sum_d_r.ok()) << tag;
      EXPECT_EQ(Bits(sum_d_r.ValueOrDie().scalar->value),
                Bits(want_sum_d.ValueOrDie().scalar->value))
          << tag;
      auto cnt_r = exec.Execute(cnt, ctx);
      ASSERT_TRUE(cnt_r.ok()) << tag;
      EXPECT_EQ(cnt_r.ValueOrDie().scalar->value,
                want_cnt.ValueOrDie().scalar->value)
          << tag;
      auto grp_r = exec.Execute(grouped, ctx);
      ASSERT_TRUE(grp_r.ok()) << tag;
      const auto& wg = want_grp.ValueOrDie().groups;
      const auto& gg = grp_r.ValueOrDie().groups;
      ASSERT_EQ(gg.size(), wg.size()) << tag;
      for (size_t g = 0; g < wg.size(); ++g) {
        EXPECT_EQ(gg[g].key, wg[g].key) << tag;
        EXPECT_EQ(Bits(gg[g].value.value), Bits(wg[g].value.value)) << tag;
      }
      for (size_t q = 0; q < want_str_grp.size(); ++q) {
        auto r = exec.Execute(q == 0 ? grouped_eq : grouped_ne, ctx);
        ASSERT_TRUE(r.ok()) << tag << " string group-by " << q;
        const auto& want = want_str_grp[q].groups;
        const auto& got = r.ValueOrDie().groups;
        ASSERT_EQ(got.size(), want.size()) << tag;
        for (size_t g = 0; g < want.size(); ++g) {
          EXPECT_EQ(got[g].key, want[g].key) << tag;
          EXPECT_EQ(Bits(got[g].value.value), Bits(want[g].value.value))
              << tag << " string group-by " << q;
        }
      }
    }
  }
}

// ---- differential: every conjunct evaluation against a row-at-a-time oracle -

// The morsel scan, the fused scan-aggregate, the cracking residual and both
// sampled paths refine selection vectors with the same step, so comparing
// them with each other proves little. Here the reference is
// Predicate::Matches, row by row, over the values where a typed kernel could
// disagree with it: NaN, signed zeros, infinities and denormals in a double
// column, INT64 extremes, int64 columns against double constants, string
// ordering, and strings absent from the dictionary.
class FilterOracleTest : public ::testing::Test {
 protected:
  enum : size_t { kTs, kWide, kX, kS };
  static constexpr size_t kRows = 17'000;  // 3 compression blocks
  static constexpr size_t kMorsel = 4096;  // 5 morsels

  /// ts: clustered, so the adaptive policy compresses it; wide: full-range
  /// with INT64_MIN and INT64_MAX planted, so the policy leaves it raw; x:
  /// doubles with IEEE edge values on every 7th row; s: dictionary strings.
  static Table BuildTable() {
    Table t(Schema({{"ts", DataType::kInt64},
                    {"wide", DataType::kInt64},
                    {"x", DataType::kDouble},
                    {"s", DataType::kString}}));
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double specials[] = {std::nan(""), 0.0,     -0.0,   inf,
                               -inf,         denorm, -denorm, 1e-310};
    const char* strings[] = {"alpha", "beta", "gamma", "delta", ""};
    Random rng(1515);
    for (size_t i = 0; i < kRows; ++i) {
      auto wide = static_cast<int64_t>(rng.Next());
      if (i % 997 == 0) wide = std::numeric_limits<int64_t>::min();
      if (i % 1009 == 0) wide = std::numeric_limits<int64_t>::max();
      const double x =
          i % 7 == 0 ? specials[(i / 7) % 8] : rng.NextDouble() * 200 - 100;
      EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i / 64)),
                               Value(wide), Value(x),
                               Value(strings[rng.Uniform(5)])})
                      .ok());
    }
    return t;
  }

  static std::vector<std::vector<Condition>> Conjunctions() {
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const Value min64(std::numeric_limits<int64_t>::min());
    const Value max64(std::numeric_limits<int64_t>::max());
    using Op = CompareOp;
    return {
        {},
        // IEEE edge constants against the double column.
        {{kX, Op::kEq, Value(nan)}},
        {{kX, Op::kNe, Value(nan)}},
        {{kX, Op::kLt, Value(inf)}},
        {{kX, Op::kGe, Value(-inf)}},
        {{kX, Op::kGt, Value(-inf)}},
        {{kX, Op::kEq, Value(0.0)}},
        {{kX, Op::kNe, Value(-0.0)}},
        {{kX, Op::kGt, Value(-0.0)}},
        {{kX, Op::kLe, Value(denorm)}},
        // INT64 extremes against the raw full-range column.
        {{kWide, Op::kEq, min64}},
        {{kWide, Op::kNe, max64}},
        {{kWide, Op::kEq, max64}},
        {{kWide, Op::kGt, min64}},
        {{kWide, Op::kLe, max64}},
        {{kWide, Op::kLt, max64}},
        // INT64 extremes against the compressed column.
        {{kTs, Op::kGe, min64}},
        {{kTs, Op::kNe, max64}},
        {{kTs, Op::kGt, max64}},
        // Double constants against int64 columns (compared as doubles).
        {{kTs, Op::kLt, Value(100.5)}},
        {{kTs, Op::kEq, Value(50.0)}},
        {{kTs, Op::kNe, Value(-0.0)}},
        {{kWide, Op::kGe, Value(nan)}},
        {{kWide, Op::kLt, Value(9.3e18)}},
        // Strings: absent from the dictionary, present, empty, ordered.
        {{kS, Op::kEq, Value("absent")}},
        {{kS, Op::kNe, Value("absent")}},
        {{kS, Op::kEq, Value("beta")}},
        {{kS, Op::kNe, Value("")}},
        {{kS, Op::kLt, Value("c")}},
        // Two conjuncts on one column.
        {{kTs, Op::kGe, Value(int64_t{40})},
         {kTs, Op::kLt, Value(int64_t{200})}},
        {{kTs, Op::kLt, Value(int64_t{200})},
         {kTs, Op::kGe, Value(int64_t{40})}},
        {{kTs, Op::kGt, Value(int64_t{10})},
         {kTs, Op::kNe, Value(int64_t{100})}},
        {{kX, Op::kGe, Value(-1.5)}, {kX, Op::kLt, Value(50.0)}},
        {{kWide, Op::kGt, min64}, {kWide, Op::kLt, max64}},
        {{kS, Op::kNe, Value("alpha")}, {kS, Op::kNe, Value("gamma")}},
        // Mixed conjunctions.
        {{kTs, Op::kGe, Value(int64_t{40})},
         {kX, Op::kLt, Value(60.0)},
         {kS, Op::kEq, Value("beta")}},
        {{kTs, Op::kGe, Value(int64_t{100})},
         {kTs, Op::kLt, Value(int64_t{250})},
         {kX, Op::kGe, Value(0.0)}},
        {{kX, Op::kNe, Value(nan)},
         {kTs, Op::kLe, Value(int64_t{200})},
         {kWide, Op::kNe, min64}},
        {{kS, Op::kLt, Value("c")},
         {kTs, Op::kGe, Value(60.0)},
         {kX, Op::kGt, Value(-inf)}},
        {{kTs, Op::kEq, Value(int64_t{100})}, {kS, Op::kNe, Value("absent")}},
    };
  }

  void SetUp() override {
    table_ = BuildTable();
    ASSERT_TRUE(db_.CreateTable("t", BuildTable()).ok());
    original_path_ = simd::ActivePath();
  }

  void TearDown() override {
    ASSERT_TRUE(simd::SetActivePathForTest(original_path_));
  }

  std::vector<uint32_t> Oracle(const std::vector<Condition>& conds) const {
    const Predicate pred(conds);
    std::vector<uint32_t> out;
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      if (pred.Matches(table_, r)) out.push_back(static_cast<uint32_t>(r));
    }
    return out;
  }

  std::map<std::string, double> OracleCountByS(
      const std::vector<uint32_t>& rows) const {
    std::map<std::string, double> counts;
    for (uint32_t r : rows) counts[table_.column(kS).string_data()[r]] += 1;
    return counts;
  }

  Table table_;
  Database db_;
  SimdPath original_path_ = SimdPath::kScalar;
};

TEST_F(FilterOracleTest, EveryPathMatchesRowAtATimeOracle) {
  Executor exec(&db_);
  if (CompressionPolicyFromEnv() == CompressionPolicy::kAdaptive) {
    TableEntry* entry = db_.GetTable("t").ValueOrDie();
    EXPECT_NE(entry->GetCompressed(kTs).ValueOrDie(), nullptr);
    EXPECT_EQ(entry->GetCompressed(kWide).ValueOrDie(), nullptr);
  }
  // The cracking runs add an index-serviceable window on ts, which leaves
  // the conjunction under test as the residual.
  const std::vector<Condition> window = {
      {kTs, CompareOp::kGe, Value(int64_t{100})},
      {kTs, CompareOp::kLt, Value(int64_t{180})}};
  const std::vector<std::vector<Condition>> conjunctions = Conjunctions();
  std::vector<std::vector<uint32_t>> want;
  std::vector<std::vector<uint32_t>> want_cracked;
  for (const std::vector<Condition>& conds : conjunctions) {
    want.push_back(Oracle(conds));
    std::vector<Condition> cracked = conds;
    cracked.insert(cracked.end(), window.begin(), window.end());
    want_cracked.push_back(Oracle(cracked));
  }

  for (SimdPath path : SupportedPaths()) {
    ASSERT_TRUE(simd::SetActivePathForTest(path));
    for (size_t threads : {0u, 1u, 2u, 8u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      for (bool compression : {true, false}) {
        ExecContext ctx;
        ctx.SetMorselSize(kMorsel).SetThreadPool(pool.get());
        ctx.options().use_compression = compression;
        const std::string tag = std::string("path=") +
                                simd::SimdPathName(path) +
                                " threads=" + std::to_string(threads) +
                                " compression=" + std::to_string(compression);
        uint64_t compressed_morsels = 0;
        for (size_t k = 0; k < conjunctions.size(); ++k) {
          const std::string at = tag + " conjunction=" + std::to_string(k);
          const Predicate pred(conjunctions[k]);

          ctx.options().mode = ExecutionMode::kScan;
          auto scan = exec.Execute(Query::On("t").Where(pred), ctx);
          ASSERT_TRUE(scan.ok()) << at;
          EXPECT_EQ(scan.ValueOrDie().positions, want[k]) << at;
          compressed_morsels += scan.ValueOrDie().stats().compressed_morsels;

          Query count = Query::On("t").Where(pred);
          count.Aggregate(AggKind::kCount);
          auto fused = exec.Execute(count, ctx);
          ASSERT_TRUE(fused.ok()) << at;
          EXPECT_EQ(fused.ValueOrDie().scalar->value,
                    static_cast<double>(want[k].size()))
              << at;

          std::vector<Condition> conds = conjunctions[k];
          conds.insert(conds.end(), window.begin(), window.end());
          ctx.options().mode = ExecutionMode::kCracking;
          auto cracked =
              exec.Execute(Query::On("t").Where(Predicate(conds)), ctx);
          ASSERT_TRUE(cracked.ok()) << at;
          EXPECT_EQ(cracked.ValueOrDie().stats().path, AccessPath::kCracker)
              << at;
          EXPECT_EQ(cracked.ValueOrDie().positions, want_cracked[k]) << at;

          // A sample_fraction of 1 keeps every row, so the sampled paths
          // must count exactly.
          ctx.options().mode = ExecutionMode::kSampled;
          ctx.options().sample_fraction = 1.0;
          auto sampled = exec.Execute(count, ctx);
          ASSERT_TRUE(sampled.ok()) << at;
          EXPECT_DOUBLE_EQ(sampled.ValueOrDie().scalar->value,
                           static_cast<double>(want[k].size()))
              << at;
          Query by_s = count;
          by_s.GroupBy("s");
          auto grouped = exec.Execute(by_s, ctx);
          ASSERT_TRUE(grouped.ok()) << at;
          std::map<std::string, double> got;
          for (const auto& g : grouped.ValueOrDie().groups) {
            got[g.key] = g.value.value;
          }
          EXPECT_EQ(got, OracleCountByS(want[k])) << at;
        }
        if (compression &&
            CompressionPolicyFromEnv() != CompressionPolicy::kOff) {
          EXPECT_GT(compressed_morsels, 0u) << tag;
        } else {
          EXPECT_EQ(compressed_morsels, 0u) << tag;
        }
      }
    }
  }
}

TEST_F(CompressedQueryTest, RleFilteringSkipsRowDataAndReportsStats) {
  Executor exec(&db_);
  Counter* skipped = Metrics().GetCounter(
      "exploredb_storage_blocks_skipped_rle_total");
  const uint64_t before = skipped->Value();
  Query q = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{40})},
                 {0, CompareOp::kLt, Value(int64_t{77})}}));
  ExecContext ctx;
  ctx.SetMorselSize(8192);
  auto r = exec.Execute(q, ctx);
  ASSERT_TRUE(r.ok());
  const ExecStats& stats = r.ValueOrDie().stats();
  if (CompressionPolicyFromEnv() == CompressionPolicy::kOff) {
    // Compression off: the raw window kernel ran, no block was consulted,
    // and the summary names no compressed morsel.
    EXPECT_EQ(stats.compressed_morsels, 0u);
    EXPECT_EQ(skipped->Value(), before);
    EXPECT_EQ(stats.Summary().find("compressed="), std::string::npos);
    return;
  }
  EXPECT_GT(stats.compressed_morsels, 0u);
  // The clustered ts column produces RLE blocks; filtering them consults run
  // headers only, which the storage counter records.
  EXPECT_GT(skipped->Value(), before);
  // The summary line surfaces the compressed-morsel count.
  EXPECT_NE(stats.Summary().find("compressed="), std::string::npos);
}

TEST_F(CompressedQueryTest, UseCompressionOffMatchesAndDisablesStats) {
  Executor exec(&db_);
  Query q = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{40})},
                 {0, CompareOp::kLt, Value(int64_t{160})}}));
  ExecContext on;
  ExecContext off;
  off.options().use_compression = false;
  auto r_on = exec.Execute(q, on);
  auto r_off = exec.Execute(q, off);
  ASSERT_TRUE(r_on.ok() && r_off.ok());
  EXPECT_EQ(r_on.ValueOrDie().positions, r_off.ValueOrDie().positions);
  if (CompressionPolicyFromEnv() == CompressionPolicy::kOff) {
    // The policy overrides the option: neither run scans compressed data.
    EXPECT_EQ(r_on.ValueOrDie().stats().compressed_morsels, 0u);
  } else {
    EXPECT_GT(r_on.ValueOrDie().stats().compressed_morsels, 0u);
  }
  EXPECT_EQ(r_off.ValueOrDie().stats().compressed_morsels, 0u);
}

}  // namespace
}  // namespace exploredb
