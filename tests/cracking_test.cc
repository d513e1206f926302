#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/random.h"
#include "cracking/baselines.h"
#include "cracking/cracker_column.h"
#include "cracking/stochastic.h"
#include "cracking/updates.h"

namespace exploredb {
namespace {

std::vector<int64_t> RandomValues(size_t n, int64_t domain, uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.UniformInt(0, domain - 1);
  return v;
}

// ---------------------------------------------------------------- index

TEST(CrackerIndexTest, SinglePieceInitially) {
  CrackerIndex index(100);
  EXPECT_EQ(index.num_pieces(), 1u);
  auto piece = index.FindPiece(50);
  EXPECT_EQ(piece.begin, 0u);
  EXPECT_EQ(piece.end, 100u);
}

TEST(CrackerIndexTest, PivotSplitsPieces) {
  CrackerIndex index(100);
  index.AddPivot(10, 40);
  EXPECT_EQ(index.num_pieces(), 2u);
  EXPECT_EQ(index.FindPiece(5).end, 40u);
  EXPECT_EQ(index.FindPiece(15).begin, 40u);
  EXPECT_EQ(index.FindPiece(15).end, 100u);
  // A value equal to the pivot belongs to the right piece.
  EXPECT_EQ(index.FindPiece(10).begin, 40u);
}

TEST(CrackerIndexTest, LowerBoundPositionOnlyForPivots) {
  CrackerIndex index(100);
  index.AddPivot(10, 40);
  EXPECT_TRUE(index.LowerBoundPosition(10).has_value());
  EXPECT_EQ(*index.LowerBoundPosition(10), 40u);
  EXPECT_FALSE(index.LowerBoundPosition(11).has_value());
}

TEST(CrackerIndexTest, ShiftAfterMovesStrictlyGreaterPivots) {
  CrackerIndex index(100);
  index.AddPivot(10, 40);
  index.AddPivot(20, 60);
  index.ShiftAfter(10);
  EXPECT_EQ(index.PivotPosition(10), 40u);
  EXPECT_EQ(index.PivotPosition(20), 61u);
  EXPECT_EQ(index.size(), 101u);
}

// ---------------------------------------------------------------- column

TEST(CrackerColumnTest, FirstQueryReturnsCorrectRange) {
  std::vector<int64_t> v{5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
  CrackerColumn col(v);
  CrackRange r = col.RangeSelect(3, 7);  // values 3,4,5,6
  EXPECT_EQ(r.count(), 4u);
  for (size_t i = r.begin; i < r.end; ++i) {
    EXPECT_GE(col.values()[i], 3);
    EXPECT_LT(col.values()[i], 7);
  }
}

TEST(CrackerColumnTest, RowIdsStayAlignedWithValues) {
  std::vector<int64_t> v{50, 10, 90, 30, 70};
  CrackerColumn col(v);
  col.RangeSelect(20, 80);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(v[col.row_ids()[i]], col.values()[i]);
  }
}

TEST(CrackerColumnTest, EmptyAndInvertedRanges) {
  CrackerColumn col(RandomValues(100, 1000, 3));
  EXPECT_EQ(col.RangeSelect(5, 5).count(), 0u);
  EXPECT_EQ(col.RangeSelect(7, 3).count(), 0u);
}

TEST(CrackerColumnTest, RepeatQueryNeedsNoNewCracks) {
  CrackerColumn col(RandomValues(1000, 10000, 5));
  col.RangeSelect(100, 200);
  uint64_t cracks = col.stats().cracks;
  CrackRange r1 = col.RangeSelect(100, 200);
  EXPECT_EQ(col.stats().cracks, cracks);
  EXPECT_TRUE(col.CanAnswerWithoutCracking(100, 200));
  CrackRange r2 = col.RangeSelect(100, 200);
  EXPECT_EQ(r1.count(), r2.count());
}

TEST(CrackerColumnTest, WorkPerQueryShrinksOverTime) {
  CrackerColumn col(RandomValues(100000, 100000, 7));
  Random rng(11);
  uint64_t first_touched = 0, late_touched = 0;
  for (int q = 0; q < 100; ++q) {
    uint64_t before = col.stats().elements_touched;
    int64_t lo = rng.UniformInt(0, 90000);
    col.RangeSelect(lo, lo + 1000);
    uint64_t delta = col.stats().elements_touched - before;
    if (q == 0) first_touched = delta;
    if (q == 99) late_touched = delta;
  }
  EXPECT_GT(first_touched, 0u);
  // After 100 queries pieces are small; cracking work must have collapsed.
  EXPECT_LT(late_touched, first_touched / 10);
}

// Property: cracking returns exactly the same multiset of row ids as a scan,
// across seeds and query patterns.
class CrackingEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrackingEquivalence, MatchesScanOnRandomWorkload) {
  const uint64_t seed = GetParam();
  std::vector<int64_t> v = RandomValues(5000, 2000, seed);
  CrackerColumn col(v);
  ScanSelector scan(v);
  Random rng(seed ^ 0xABCD);
  for (int q = 0; q < 50; ++q) {
    int64_t lo = rng.UniformInt(-100, 2100);
    int64_t hi = lo + rng.UniformInt(0, 500);
    CrackRange r = col.RangeSelect(lo, hi);
    std::vector<uint32_t> got(col.row_ids().begin() + r.begin,
                              col.row_ids().begin() + r.end);
    std::vector<uint32_t> want = scan.RangeSelect(lo, hi);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "seed=" << seed << " q=" << q << " [" << lo << ","
                         << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackingEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CrackerColumnTest, DuplicateHeavyData) {
  std::vector<int64_t> v(1000, 7);
  for (size_t i = 0; i < 100; ++i) v[i * 10] = static_cast<int64_t>(i % 5);
  CrackerColumn col(v);
  ScanSelector scan(v);
  EXPECT_EQ(col.RangeSelect(7, 8).count(), scan.RangeCount(7, 8));
  EXPECT_EQ(col.RangeSelect(0, 3).count(), scan.RangeCount(0, 3));
}

// ---------------------------------------------------------------- baselines

TEST(BaselinesTest, SortedIndexMatchesScan) {
  std::vector<int64_t> v = RandomValues(3000, 500, 21);
  ScanSelector scan(v);
  SortedIndex index(v);
  Random rng(23);
  for (int q = 0; q < 30; ++q) {
    int64_t lo = rng.UniformInt(0, 450);
    int64_t hi = lo + rng.UniformInt(1, 100);
    auto got = index.RangeSelect(lo, hi);
    auto want = scan.RangeSelect(lo, hi);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(index.RangeCount(lo, hi), scan.RangeCount(lo, hi));
  }
}

// ---------------------------------------------------------------- stochastic

class StochasticPolicy : public ::testing::TestWithParam<CrackPolicy> {};

TEST_P(StochasticPolicy, MatchesScanResults) {
  std::vector<int64_t> v = RandomValues(5000, 5000, 31);
  StochasticCrackerColumn col(v, GetParam(), /*seed=*/31,
                              /*min_piece_size=*/64);
  ScanSelector scan(v);
  Random rng(37);
  for (int q = 0; q < 40; ++q) {
    int64_t lo = rng.UniformInt(0, 4500);
    int64_t hi = lo + rng.UniformInt(1, 400);
    CrackRange r = col.RangeSelect(lo, hi);
    EXPECT_EQ(r.count(), scan.RangeCount(lo, hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, StochasticPolicy,
                         ::testing::Values(CrackPolicy::kBasic,
                                           CrackPolicy::kDD1R,
                                           CrackPolicy::kDDC));

TEST(StochasticTest, SequentialWorkloadTouchesFarLessThanBasic) {
  // Sequential pattern: the pathological case for basic cracking.
  const size_t n = 200000;
  std::vector<int64_t> v = RandomValues(n, 1000000, 41);
  StochasticCrackerColumn basic(v, CrackPolicy::kBasic, 41);
  StochasticCrackerColumn ddc(v, CrackPolicy::kDDC, 41);
  const int queries = 200;
  for (int q = 0; q < queries; ++q) {
    int64_t lo = static_cast<int64_t>(q) * 1000;
    basic.RangeSelect(lo, lo + 1000);
    ddc.RangeSelect(lo, lo + 1000);
  }
  // Basic cracking re-partitions the giant right piece every query; DDC's
  // recursive midpoint cracks shrink pieces geometrically.
  EXPECT_GT(basic.column().stats().elements_touched,
            2 * ddc.column().stats().elements_touched);
}

TEST(StochasticTest, PolicyNamesAreStable) {
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kBasic), "basic");
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kDD1R), "DD1R");
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kDDC), "DDC");
}

// ---------------------------------------------------------------- updates

TEST(UpdatableCrackerTest, PendingInsertsVisibleImmediately) {
  UpdatableCrackerColumn col(RandomValues(100, 100, 51),
                             /*merge_threshold=*/1000);
  size_t before = col.RangeCount(0, 100);
  col.Insert(50);
  col.Insert(150);  // outside query range
  EXPECT_EQ(col.RangeCount(0, 100), before + 1);
  EXPECT_GT(col.pending_size(), 0u);
}

TEST(UpdatableCrackerTest, MergeKeepsAnswersCorrect) {
  std::vector<int64_t> v = RandomValues(2000, 1000, 53);
  UpdatableCrackerColumn col(v, /*merge_threshold=*/8);
  ScanSelector base(v);
  Random rng(55);
  std::vector<int64_t> inserted;
  for (int step = 0; step < 300; ++step) {
    if (step % 3 == 0) {
      int64_t value = rng.UniformInt(0, 999);
      col.Insert(value);
      inserted.push_back(value);
    } else {
      int64_t lo = rng.UniformInt(0, 900);
      int64_t hi = lo + rng.UniformInt(1, 100);
      size_t want = base.RangeCount(lo, hi);
      for (int64_t x : inserted) want += (x >= lo && x < hi);
      ASSERT_EQ(col.RangeCount(lo, hi), want) << "step=" << step;
    }
  }
  EXPECT_EQ(col.size(), v.size() + inserted.size());
}

TEST(UpdatableCrackerTest, RippleInsertPreservesPieceInvariant) {
  std::vector<int64_t> v = RandomValues(500, 200, 57);
  UpdatableCrackerColumn col(v, /*merge_threshold=*/1);
  // Crack a few times first so there are pieces to ripple through.
  col.RangeCount(50, 100);
  col.RangeCount(120, 160);
  for (int i = 0; i < 50; ++i) col.Insert(i * 4 % 200);
  // Invariant: for every registered pivot p at position pos, values[0..pos)
  // < p and values[pos..) >= p.
  const CrackerColumn& inner = col.column();
  for (const auto& [pivot, pos] : inner.index().pivots()) {
    for (size_t i = 0; i < pos; ++i) ASSERT_LT(inner.values()[i], pivot);
    for (size_t i = pos; i < inner.size(); ++i) {
      ASSERT_GE(inner.values()[i], pivot);
    }
  }
}

TEST(UpdatableCrackerTest, ExtraRowIdsReportedForPending) {
  UpdatableCrackerColumn col({10, 20, 30}, /*merge_threshold=*/100);
  col.Insert(15);
  std::vector<uint32_t> extra;
  CrackRange r = col.RangeSelect(10, 20, &extra);
  EXPECT_EQ(r.count() + extra.size(), 2u);  // 10 and 15
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0], 3u);  // row id continues after initial data
}

// ---------------------------------------------------------------- concurrency

TEST(ConcurrentCrackerTest, ParallelQueriesAgreeWithScan) {
  std::vector<int64_t> v = RandomValues(20000, 5000, 61);
  ScanSelector scan(v);
  EpochCrackerColumn col(v);
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 100;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(100 + t);
      std::vector<uint32_t> rows;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        int64_t lo = rng.UniformInt(0, 4500);
        int64_t hi = lo + rng.UniformInt(1, 400);
        rows.clear();
        col.RangeSelectInto(lo, hi, &rows);
        if (rows.size() != scan.RangeCount(lo, hi)) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);
}

TEST(ConcurrentCrackerTest, RepeatedQueriesGoReadOnly) {
  EpochCrackerColumn col(RandomValues(1000, 100, 63));
  std::vector<uint32_t> rows;
  col.RangeSelectInto(10, 20, &rows);
  const uint64_t before = col.shared_reads();
  EXPECT_TRUE(col.RangeSelectInto(10, 20, &rows).shared_path);
  EXPECT_TRUE(col.RangeSelectInto(10, 20, &rows).shared_path);
  EXPECT_EQ(col.shared_reads(), before + 2);
}

// ---------------------------------------------------------------- validate

TEST(CrackerValidateTest, FreshAndCrackedColumnsValidate) {
  std::vector<int64_t> values = RandomValues(5000, 1000, 7);
  CrackerColumn col(values);
  EXPECT_TRUE(col.Validate(&values).ok());
  col.RangeSelect(100, 500);
  col.RangeSelect(250, 750);
  EXPECT_TRUE(col.index().Validate().ok());
  EXPECT_TRUE(col.Validate(&values).ok());
}

TEST(CrackerValidateTest, IndexValidateCatchesInvertedBoundaries) {
  CrackerIndex index(100);
  index.AddPivot(10, 40);
  EXPECT_TRUE(index.Validate().ok());
  index.AddPivot(20, 30);  // larger pivot, earlier position: pieces invert
  Status s = index.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("inverts"), std::string::npos);
}

TEST(CrackerValidateTest, IndexValidateCatchesPositionPastEnd) {
  CrackerIndex index(100);
  index.AddPivot(10, 101);
  EXPECT_FALSE(index.Validate().ok());
}

TEST(CrackerValidateTest, ValidateCatchesCorruptedBaseColumn) {
  std::vector<int64_t> values = RandomValues(1000, 100, 11);
  CrackerColumn col(values);
  col.RangeSelect(20, 60);
  // Claim a different base column: the value/row-id alignment check fires.
  std::vector<int64_t> wrong = values;
  wrong[123] += 1;
  EXPECT_TRUE(col.Validate(&values).ok());
  EXPECT_FALSE(col.Validate(&wrong).ok());
}

// The satellite stress check: 1k random range queries interleaved with
// inserts. After every batch the index must validate against the full base
// data, every query must agree with a scan oracle, and at the end the
// cracked copy must be exactly a permutation of the accumulated inserts
// (checked via sorted-copy comparison).
TEST(CrackerValidateTest, RandomizedQueriesWithUpdatesStayWellFormed) {
  constexpr int64_t kDomain = 1'000'000;
  std::vector<int64_t> master = RandomValues(10'000, kDomain, 42);
  UpdatableCrackerColumn col(master, /*merge_threshold=*/64);
  Random rng(43);

  for (int q = 0; q < 1000; ++q) {
    if (q % 3 == 0) {
      int64_t v = rng.UniformInt(0, kDomain - 1);
      col.Insert(v);
      master.push_back(v);  // row ids are assigned in insertion order
    }
    int64_t lo = rng.UniformInt(0, kDomain - 1);
    int64_t hi = lo + 1 + rng.UniformInt(0, kDomain / 10);
    size_t count = col.RangeCount(lo, hi);
    size_t oracle = static_cast<size_t>(std::count_if(
        master.begin(), master.end(),
        [&](int64_t v) { return v >= lo && v < hi; }));
    ASSERT_EQ(count, oracle) << "query " << q << " [" << lo << "," << hi
                             << ") disagrees with the scan oracle";
    if (q % 100 == 0) {
      // Merged prefix of the master data: pending inserts are not yet part
      // of the cracked array, so validate against what has been folded in.
      std::vector<int64_t> merged(master.begin(),
                                  master.begin() + col.column().size());
      ASSERT_TRUE(col.column().Validate(&merged).ok()) << "after query " << q;
    }
  }

  col.MergePending();
  Status final_state = col.column().Validate(&master);
  EXPECT_TRUE(final_state.ok()) << final_state.ToString();

  // Sorted-copy oracle: cracking permutes, never loses or invents values.
  std::vector<int64_t> cracked = col.column().values();
  std::sort(cracked.begin(), cracked.end());
  std::vector<int64_t> sorted_master = master;
  std::sort(sorted_master.begin(), sorted_master.end());
  EXPECT_EQ(cracked, sorted_master);

  // Full-range scan through the index agrees with everything inserted.
  EXPECT_EQ(col.RangeCount(0, kDomain), master.size());
}

}  // namespace
}  // namespace exploredb
