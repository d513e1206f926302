// Equivalence suite for the SIMD kernel library: every kernel in every
// compiled-in table (scalar, SSE4.2, AVX2) must produce *bit-identical*
// results on the same input — selection vectors exact by construction,
// floating-point reductions via the shared striped-accumulation contract.
// Inputs are randomized and seeded with the adversarial values (NaN, ±inf,
// ±0, INT64_MIN/MAX) that break naive vectorizations. The suite runs under
// ASan/UBSan in CI, so out-of-bounds compress-stores and aliasing bugs in
// the in-place refine path surface here first. A second half re-runs whole
// queries under each path (and several thread counts) through
// simd::SetActivePathForTest and asserts identical answers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "simd/simd.h"

namespace exploredb {
namespace {

using simd::Cmp;
using simd::KernelTable;
using simd::SimdPath;

std::vector<SimdPath> SupportedPaths() {
  std::vector<SimdPath> paths = {SimdPath::kScalar};
  if (simd::PathSupported(SimdPath::kSse42)) paths.push_back(SimdPath::kSse42);
  if (simd::PathSupported(SimdPath::kAvx2)) paths.push_back(SimdPath::kAvx2);
  return paths;
}

constexpr Cmp kAllOps[] = {Cmp::kLt, Cmp::kLe, Cmp::kGt,
                           Cmp::kGe, Cmp::kEq, Cmp::kNe};

/// Random int64 column with INT64_MIN/MAX spikes and runs of the comparison
/// constant (so kEq/kNe see real matches).
std::vector<int64_t> RandomI64(size_t n, uint64_t seed, int64_t k) {
  Random rng(seed);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(16)) {
      case 0:
        v[i] = std::numeric_limits<int64_t>::min();
        break;
      case 1:
        v[i] = std::numeric_limits<int64_t>::max();
        break;
      case 2:
        v[i] = k;
        break;
      default:
        v[i] = rng.UniformInt(-1000, 1000);
    }
  }
  return v;
}

/// Random double column seeded with NaN, ±inf, ±0, and exact copies of the
/// comparison constant.
std::vector<double> RandomF64(size_t n, uint64_t seed, double k) {
  Random rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(16)) {
      case 0:
        v[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v[i] = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v[i] = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        v[i] = 0.0;
        break;
      case 4:
        v[i] = -0.0;
        break;
      case 5:
        v[i] = k;
        break;
      default:
        v[i] = (rng.NextDouble() - 0.5) * 2000.0;
    }
  }
  return v;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Element-wise bit patterns — vector<double>::operator== would call two
/// NaNs unequal even when both sides hold the identical payload.
std::vector<uint64_t> BitsOf(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Bits(v[i]);
  return out;
}

// ---- filter / refine -------------------------------------------------------

TEST(SimdKernelTest, FilterI64CmpMatchesScalarOnAllPaths) {
  const int64_t k = 37;
  for (uint64_t seed : {1u, 2u, 3u}) {
    // Ragged lengths exercise the vector tails.
    for (size_t n : {0u, 1u, 5u, 63u, 64u, 1000u, 4097u}) {
      std::vector<int64_t> d = RandomI64(n, seed, k);
      for (Cmp op : kAllOps) {
        const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
        std::vector<uint32_t> want(n);
        const uint32_t wn = ref.filter_i64_cmp(d.data(), 0,
                                               static_cast<uint32_t>(n), op, k,
                                               want.data());
        want.resize(wn);
        for (SimdPath path : SupportedPaths()) {
          const KernelTable& kt = simd::KernelsFor(path);
          std::vector<uint32_t> got(n);
          const uint32_t gn = kt.filter_i64_cmp(
              d.data(), 0, static_cast<uint32_t>(n), op, k, got.data());
          got.resize(gn);
          EXPECT_EQ(got, want) << "path=" << simd::SimdPathName(path)
                               << " op=" << static_cast<int>(op)
                               << " n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

TEST(SimdKernelTest, FilterF64CmpMatchesScalarOnAllPaths) {
  const double k = 12.5;
  for (uint64_t seed : {7u, 8u}) {
    for (size_t n : {0u, 3u, 64u, 1000u, 4099u}) {
      std::vector<double> d = RandomF64(n, seed, k);
      for (Cmp op : kAllOps) {
        const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
        std::vector<uint32_t> want(n);
        const uint32_t wn = ref.filter_f64_cmp(d.data(), 0,
                                               static_cast<uint32_t>(n), op, k,
                                               want.data());
        want.resize(wn);
        for (SimdPath path : SupportedPaths()) {
          const KernelTable& kt = simd::KernelsFor(path);
          std::vector<uint32_t> got(n);
          const uint32_t gn = kt.filter_f64_cmp(
              d.data(), 0, static_cast<uint32_t>(n), op, k, got.data());
          got.resize(gn);
          EXPECT_EQ(got, want) << "path=" << simd::SimdPathName(path)
                               << " op=" << static_cast<int>(op) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernelTest, FilterRangeAndNonZeroBeginMatchScalar) {
  const size_t n = 3001;
  std::vector<int64_t> d = RandomI64(n, 11, 0);
  const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
  for (uint32_t begin : {0u, 1u, 500u, 2999u}) {
    std::vector<uint32_t> want(n);
    const uint32_t wn = ref.filter_i64_range(
        d.data(), begin, static_cast<uint32_t>(n), -250, 250, want.data());
    want.resize(wn);
    for (SimdPath path : SupportedPaths()) {
      const KernelTable& kt = simd::KernelsFor(path);
      std::vector<uint32_t> got(n);
      const uint32_t gn = kt.filter_i64_range(
          d.data(), begin, static_cast<uint32_t>(n), -250, 250, got.data());
      got.resize(gn);
      EXPECT_EQ(got, want) << "path=" << simd::SimdPathName(path)
                           << " begin=" << begin;
    }
  }
}

TEST(SimdKernelTest, RefineKernelsCompactInPlace) {
  const size_t n = 2048;
  std::vector<int64_t> di = RandomI64(n, 21, 5);
  std::vector<double> dd = RandomF64(n, 22, 5.0);
  // Seed selection: every third row.
  std::vector<uint32_t> sel0;
  for (uint32_t r = 0; r < n; r += 3) sel0.push_back(r);
  const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
  for (Cmp op : kAllOps) {
    std::vector<uint32_t> want = sel0;
    want.resize(ref.refine_i64_cmp(di.data(), sel0.data(),
                                   static_cast<uint32_t>(sel0.size()), op, 5,
                                   want.data()));
    std::vector<uint32_t> wantd = sel0;
    wantd.resize(ref.refine_f64_cmp(dd.data(), sel0.data(),
                                    static_cast<uint32_t>(sel0.size()), op,
                                    5.0, wantd.data()));
    for (SimdPath path : SupportedPaths()) {
      const KernelTable& kt = simd::KernelsFor(path);
      // out == sel: the executor's conjunction chain refines in place.
      std::vector<uint32_t> got = sel0;
      got.resize(kt.refine_i64_cmp(di.data(), got.data(),
                                   static_cast<uint32_t>(got.size()), op, 5,
                                   got.data()));
      EXPECT_EQ(got, want) << "path=" << simd::SimdPathName(path)
                           << " op=" << static_cast<int>(op);
      std::vector<uint32_t> gotd = sel0;
      gotd.resize(kt.refine_f64_cmp(dd.data(), gotd.data(),
                                    static_cast<uint32_t>(gotd.size()), op,
                                    5.0, gotd.data()));
      EXPECT_EQ(gotd, wantd) << "path=" << simd::SimdPathName(path)
                             << " op=" << static_cast<int>(op);
    }
  }
}

// ---- reductions ------------------------------------------------------------

TEST(SimdKernelTest, MaskedReductionsBitIdenticalAcrossPaths) {
  const size_t n = 8192;
  std::vector<double> vd = RandomF64(n, 41, 1.0);
  std::vector<int64_t> vi = RandomI64(n, 42, 1);
  // Remove NaN/inf poison from the sum input (sums of NaN are NaN on every
  // path, which EXPECT_EQ on bits still verifies — keep a clean copy for the
  // interesting finite case and a poisoned one for propagation).
  std::vector<double> vd_finite = vd;
  for (double& x : vd_finite) {
    if (!std::isfinite(x)) x = 0.25;
  }
  for (size_t sel_n : {0u, 1u, 7u, 8u, 9u, 4096u}) {
    Random rng(43);
    std::vector<uint32_t> sel(sel_n);
    for (auto& s : sel) s = rng.Uniform(static_cast<uint32_t>(n));
    const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
    const uint32_t sn = static_cast<uint32_t>(sel_n);
    const uint64_t want_sum = Bits(ref.sum_f64_sel(vd_finite.data(),
                                                   sel.data(), sn));
    const uint64_t want_sum_nan = Bits(ref.sum_f64_sel(vd.data(), sel.data(),
                                                       sn));
    const uint64_t want_sumi = Bits(ref.sum_i64_sel(vi.data(), sel.data(), sn));
    for (SimdPath path : SupportedPaths()) {
      const KernelTable& kt = simd::KernelsFor(path);
      EXPECT_EQ(Bits(kt.sum_f64_sel(vd_finite.data(), sel.data(), sn)),
                want_sum)
          << "path=" << simd::SimdPathName(path) << " sel_n=" << sel_n;
      EXPECT_EQ(Bits(kt.sum_f64_sel(vd.data(), sel.data(), sn)), want_sum_nan)
          << "path=" << simd::SimdPathName(path) << " sel_n=" << sel_n;
      EXPECT_EQ(Bits(kt.sum_i64_sel(vi.data(), sel.data(), sn)), want_sumi)
          << "path=" << simd::SimdPathName(path);
    }
  }
}

TEST(SimdKernelTest, ContiguousMinMaxMatchesScalar) {
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 8191u, 8192u}) {
    std::vector<int64_t> vi = RandomI64(n, 51, 0);
    std::vector<double> vd = RandomF64(n, 52, 0.0);
    const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
    int64_t wmin, wmax;
    double wdmin, wdmax;
    ref.minmax_i64(vi.data(), n, &wmin, &wmax);
    ref.minmax_f64(vd.data(), n, &wdmin, &wdmax);
    for (SimdPath path : SupportedPaths()) {
      const KernelTable& kt = simd::KernelsFor(path);
      int64_t gmin, gmax;
      double gdmin, gdmax;
      kt.minmax_i64(vi.data(), n, &gmin, &gmax);
      kt.minmax_f64(vd.data(), n, &gdmin, &gdmax);
      EXPECT_EQ(gmin, wmin) << "path=" << simd::SimdPathName(path) << " n=" << n;
      EXPECT_EQ(gmax, wmax) << "path=" << simd::SimdPathName(path) << " n=" << n;
      EXPECT_EQ(Bits(gdmin), Bits(wdmin))
          << "path=" << simd::SimdPathName(path) << " n=" << n;
      EXPECT_EQ(Bits(gdmax), Bits(wdmax))
          << "path=" << simd::SimdPathName(path) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, GatherAndWidenMatchScalar) {
  const size_t n = 2000;
  std::vector<uint32_t> src_u32(n);
  std::vector<double> src_f64 = RandomF64(n, 61, 0.0);
  std::vector<int64_t> src_i64 = RandomI64(n, 62, 0);
  Random rng(63);
  for (auto& x : src_u32) x = rng.Uniform(1 << 20);
  std::vector<uint32_t> sel(777);
  for (auto& s : sel) s = rng.Uniform(static_cast<uint32_t>(n));
  const KernelTable& ref = simd::KernelsFor(SimdPath::kScalar);
  std::vector<uint32_t> want_u(sel.size());
  std::vector<double> want_d(sel.size());
  std::vector<double> want_w(n);
  ref.gather_u32(src_u32.data(), sel.data(),
                 static_cast<uint32_t>(sel.size()), want_u.data());
  ref.gather_f64(src_f64.data(), sel.data(),
                 static_cast<uint32_t>(sel.size()), want_d.data());
  ref.widen_i64_f64(src_i64.data(), n, want_w.data());
  for (SimdPath path : SupportedPaths()) {
    const KernelTable& kt = simd::KernelsFor(path);
    std::vector<uint32_t> got_u(sel.size());
    std::vector<double> got_d(sel.size());
    std::vector<double> got_w(n);
    kt.gather_u32(src_u32.data(), sel.data(),
                  static_cast<uint32_t>(sel.size()), got_u.data());
    kt.gather_f64(src_f64.data(), sel.data(),
                  static_cast<uint32_t>(sel.size()), got_d.data());
    kt.widen_i64_f64(src_i64.data(), n, got_w.data());
    EXPECT_EQ(got_u, want_u) << "path=" << simd::SimdPathName(path);
    EXPECT_EQ(BitsOf(got_d), BitsOf(want_d))
        << "path=" << simd::SimdPathName(path);
    EXPECT_EQ(BitsOf(got_w), BitsOf(want_w))
        << "path=" << simd::SimdPathName(path);
  }
}

// ---- end-to-end query bit-identity across paths × thread counts ------------

class SimdQueryEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t(Schema({{"ts", DataType::kInt64},
                    {"value", DataType::kDouble},
                    {"kind", DataType::kString}}));
    Random rng(97);
    const char* kinds[] = {"alpha", "beta", "gamma", "delta"};
    for (size_t i = 0; i < 60000; ++i) {
      double v = rng.NextDouble() * 100;
      if (rng.Uniform(500) == 0) v = std::numeric_limits<double>::infinity();
      ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 99999)), Value(v),
                               Value(kinds[rng.Uniform(4)])})
                      .ok());
    }
    ASSERT_TRUE(db_.CreateTable("events", std::move(t)).ok());
    original_path_ = simd::ActivePath();
  }

  void TearDown() override {
    ASSERT_TRUE(simd::SetActivePathForTest(original_path_));
  }

  Database db_;
  SimdPath original_path_ = SimdPath::kScalar;
};

TEST_F(SimdQueryEquivalenceTest, QueriesBitIdenticalAcrossPathsAndThreads) {
  Executor exec(&db_);
  const Query select = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{20000})},
                 {0, CompareOp::kLt, Value(int64_t{70000})},
                 {1, CompareOp::kGt, Value(25.0)}}));
  Query sum = select;
  sum.Aggregate(AggKind::kSum, "value");
  Query avg = select;
  avg.Aggregate(AggKind::kAvg, "value");
  Query cnt = select;
  cnt.Aggregate(AggKind::kCount);
  Query grouped = select;
  grouped.Aggregate(AggKind::kSum, "value").GroupBy("kind");

  // Reference: scalar path, serial.
  ASSERT_TRUE(simd::SetActivePathForTest(SimdPath::kScalar));
  ExecContext serial;
  serial.SetThreadPool(nullptr).SetMorselSize(4096);
  auto want_sel = exec.Execute(select, serial);
  auto want_sum = exec.Execute(sum, serial);
  auto want_avg = exec.Execute(avg, serial);
  auto want_cnt = exec.Execute(cnt, serial);
  auto want_grp = exec.Execute(grouped, serial);
  ASSERT_TRUE(want_sel.ok() && want_sum.ok() && want_avg.ok() &&
              want_cnt.ok() && want_grp.ok());
  ASSERT_FALSE(want_sel.ValueOrDie().positions.empty());

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

      auto sel_r = exec.Execute(select, ctx);
      ASSERT_TRUE(sel_r.ok()) << tag;
      EXPECT_EQ(sel_r.ValueOrDie().positions, want_sel.ValueOrDie().positions)
          << tag;
      EXPECT_EQ(sel_r.ValueOrDie().stats().simd_path, path) << tag;

      auto sum_r = exec.Execute(sum, ctx);
      ASSERT_TRUE(sum_r.ok()) << tag;
      EXPECT_EQ(Bits(sum_r.ValueOrDie().scalar->value),
                Bits(want_sum.ValueOrDie().scalar->value))
          << tag;

      auto avg_r = exec.Execute(avg, ctx);
      ASSERT_TRUE(avg_r.ok()) << tag;
      EXPECT_EQ(Bits(avg_r.ValueOrDie().scalar->value),
                Bits(want_avg.ValueOrDie().scalar->value))
          << tag;

      auto cnt_r = exec.Execute(cnt, ctx);
      ASSERT_TRUE(cnt_r.ok()) << tag;
      EXPECT_EQ(cnt_r.ValueOrDie().scalar->value,
                want_cnt.ValueOrDie().scalar->value)
          << tag;

      auto grp_r = exec.Execute(grouped, ctx);
      ASSERT_TRUE(grp_r.ok()) << tag;
      const auto& want_groups = want_grp.ValueOrDie().groups;
      const auto& got_groups = grp_r.ValueOrDie().groups;
      ASSERT_EQ(got_groups.size(), want_groups.size()) << tag;
      for (size_t g = 0; g < want_groups.size(); ++g) {
        EXPECT_EQ(got_groups[g].key, want_groups[g].key) << tag;
        EXPECT_EQ(Bits(got_groups[g].value.value),
                  Bits(want_groups[g].value.value))
            << tag << " group=" << want_groups[g].key;
      }
    }
  }
}

TEST_F(SimdQueryEquivalenceTest, OnlineEstimateIdenticalAcrossPaths) {
  Executor exec(&db_);
  Query q = Query::On("events")
                .Where(Predicate({{1, CompareOp::kLt, Value(50.0)}}))
                .Aggregate(AggKind::kAvg, "value");
  auto run = [&](SimdPath path) {
    EXPECT_TRUE(simd::SetActivePathForTest(path));
    ExecContext ctx;
    ctx.SetThreadPool(nullptr);
    ctx.options().mode = ExecutionMode::kOnline;
    ctx.options().error_budget = 0.5;
    auto r = exec.Execute(q, ctx);
    EXPECT_TRUE(r.ok());
    return r.ValueOrDie().scalar->value;
  };
  const double want = run(SimdPath::kScalar);
  for (SimdPath path : SupportedPaths()) {
    EXPECT_EQ(Bits(run(path)), Bits(want))
        << "path=" << simd::SimdPathName(path);
  }
}

TEST(SimdDispatchTest, ActivePathReportedInStatsAndSummary) {
  const SimdPath original = simd::ActivePath();
  EXPECT_TRUE(simd::PathSupported(SimdPath::kScalar));
  EXPECT_TRUE(simd::SetActivePathForTest(SimdPath::kScalar));
  EXPECT_EQ(simd::ActivePath(), SimdPath::kScalar);
  EXPECT_EQ(simd::ActiveKernels().path, SimdPath::kScalar);

  ExecStats stats;
  stats.simd_path = simd::ActivePath();
  EXPECT_NE(stats.Summary().find("simd=scalar"), std::string::npos);

  // KernelsFor on an unsupported path degrades to the scalar table.
  for (SimdPath path : {SimdPath::kSse42, SimdPath::kAvx2}) {
    if (!simd::PathSupported(path)) {
      EXPECT_EQ(simd::KernelsFor(path).path, SimdPath::kScalar);
    } else {
      EXPECT_EQ(simd::KernelsFor(path).path, path);
    }
  }
  EXPECT_TRUE(simd::SetActivePathForTest(original));
}

}  // namespace
}  // namespace exploredb
