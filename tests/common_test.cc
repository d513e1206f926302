#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace exploredb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad x");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad x");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kIOError,
        StatusCode::kParseError, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Status FailingStep() { return Status::IOError("disk gone"); }

Status UsesReturnNotOk() {
  EXPLOREDB_RETURN_NOT_OK(FailingStep());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  Status s = UsesReturnNotOk();
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  EXPLOREDB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 21);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(99), 99);
}

TEST(ResultTest, AssignOrReturnChainsValues) {
  Result<int> r = DoubleIt(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, AssignOrReturnChainsErrors) {
  Result<int> r = DoubleIt(0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForEqualSeeds) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, UniformRespectsBound) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RandomTest, UniformIntCoversRangeInclusive) {
  Random rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Random rng(11);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RandomTest, ZipfStaysInRangeAndSkews) {
  Random rng(13);
  const uint64_t n = 1000;
  size_t low_rank = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t z = rng.Zipf(n, 1.2);
    ASSERT_LT(z, n);
    low_rank += (z < 10);
  }
  // With s=1.2 the top-10 ranks should absorb a large share of the mass.
  EXPECT_GT(low_rank, 20000 / 4);
}

TEST(RandomTest, ZipfZeroExponentIsUniformish) {
  Random rng(17);
  size_t low = 0;
  for (int i = 0; i < 20000; ++i) low += (rng.Zipf(100, 0.0) < 10);
  EXPECT_NEAR(static_cast<double>(low) / 20000.0, 0.10, 0.02);
}

TEST(RandomTest, ShuffleIsPermutation) {
  Random rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitPreservesEmptyFields) {
  auto f = SplitFields("a,,b,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "b");
  EXPECT_EQ(f[3], "");
}

TEST(StringsTest, ParseInt64Valid) {
  auto r = ParseInt64("  -42 ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), -42);
}

TEST(StringsTest, ParseInt64RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseInt64("42x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("4.2").ok());
}

TEST(StringsTest, ParseDoubleValid) {
  auto r = ParseDouble("3.5e2");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.ValueOrDie(), 350.0);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.0zz").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, JoinAndTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("   "), "");
}

// ---------------------------------------------------------------- JSON

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(JsonWriterTest, PlacesCommasAndColonsAcrossNesting) {
  JsonWriter w;
  w.BeginObject().Key("a").Int(-1).Key("b").BeginArray().Uint(2);
  w.BeginObject().EndObject().BeginArray().EndArray().String("x").EndArray();
  w.Key("c").BeginObject().Key("d").Bool(true).Key("e").BeginArray();
  w.BeginArray().Bool(false).EndArray().EndArray().EndObject().EndObject();
  EXPECT_EQ(w.str(),
            R"({"a":-1,"b":[2,{},[],"x"],"c":{"d":true,"e":[[false]]}})");
}

TEST(JsonWriterTest, EscapesQuoteBackslashAndControlBytesOnly) {
  JsonWriter w;
  w.String("q\"b\\n\n\x01\x1f\x7f/\xc3\xa9");
  EXPECT_EQ(w.str(), "\"q\\\"b\\\\n\\u000a\\u0001\\u001f\x7f/\xc3\xa9\"");
}

TEST(JsonWriterTest, NumbersPrintExactlyAndShortest) {
  const double inf = std::numeric_limits<double>::infinity();
  JsonWriter w;
  w.BeginArray().Int(std::numeric_limits<int64_t>::min());
  w.Uint(std::numeric_limits<uint64_t>::max()).Double(0.99).Double(0.1 + 0.2);
  w.Double(1e300).Double(-0.0).Double(inf).Double(-inf);
  w.Double(std::numeric_limits<double>::quiet_NaN()).EndArray();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,18446744073709551615,0.99,"
            "0.30000000000000004,1e+300,-0,\"inf\",\"-inf\",\"nan\"]");
}

TEST(JsonReaderTest, ReadsBackWhatTheWriterWrote) {
  const std::vector<double> doubles = {
      0.1, -0.0, 5e-324, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  std::string bytes;
  for (char c = 1; c < 0x20; ++c) bytes += c;
  bytes += "\"\\\x7f\xe2\x82\xac";
  JsonWriter w;
  w.BeginObject().Key("i").Int(std::numeric_limits<int64_t>::min());
  w.Key("u").Uint(std::numeric_limits<uint64_t>::max()).Key("s").String(bytes);
  w.Key("d").BeginArray();
  for (double d : doubles) w.Double(d);
  w.Double(std::numeric_limits<double>::quiet_NaN()).EndArray().EndObject();

  auto parsed = JsonValue::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.ValueOrDie();
  EXPECT_EQ(doc.Get<int64_t>("i"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(doc.Get<uint64_t>("u"), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(doc.Get<std::string>("s"), bytes);
  const std::vector<JsonValue>& items = doc.Find("d")->items();
  ASSERT_EQ(items.size(), doubles.size() + 1);
  for (size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(Bits(items[i].As<double>()), Bits(doubles[i])) << doubles[i];
  }
  EXPECT_TRUE(std::isnan(items.back().As<double>()));
  // Absent members and members of another kind read as the fallback.
  EXPECT_EQ(doc.Get<int64_t>("missing", 7), 7);
  EXPECT_EQ(doc.Get<int64_t>("s", 7), 7);
  EXPECT_EQ(doc.Get<std::string>("i"), "");
  EXPECT_EQ(doc.Get<bool>("u", true), true);
}

void ExpectInvalid(const std::string& text) {
  EXPECT_EQ(JsonValue::Parse(text).status().code(),
            StatusCode::kInvalidArgument)
      << text;
}

TEST(JsonReaderTest, RejectsTruncatedInput) {
  ExpectInvalid("");
  ExpectInvalid(R"({"a":[1,2)");
  ExpectInvalid(R"({"a":)");
  ExpectInvalid(R"({"a")");
}

TEST(JsonReaderTest, RejectsBadLiteral) {
  ExpectInvalid(R"({"a":tru})");
  ExpectInvalid(R"([nul])");
  ExpectInvalid(R"([1-2])");
}

TEST(JsonReaderTest, RejectsUnterminatedString) {
  ExpectInvalid(R"({"a":"abc})");
  ExpectInvalid(R"(["abc\)");
}

TEST(JsonReaderTest, RejectsBadOrNonAsciiEscape) {
  ExpectInvalid(R"(["\u12"])");
  ExpectInvalid(R"(["\u00e9"])");
  EXPECT_EQ(JsonValue::Parse(R"(["\u0041\t\/"])")
                .ValueOrDie()
                .items()[0]
                .As<std::string>(),
            "A\t/");
}

TEST(JsonReaderTest, RejectsTrailingContent) {
  ExpectInvalid(R"({"a":1} x)");
  ExpectInvalid("[1][2]");
}

TEST(JsonReaderTest, RejectsNestingPastTheCap) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(JsonValue::Parse(nested(JsonValue::kMaxDepth)).ok());
  ExpectInvalid(nested(JsonValue::kMaxDepth + 1));
  ExpectInvalid(std::string(100'000, '['));
}

// ---------------------------------------------------------------- CHECK

TEST(CheckTest, PassingChecksAreSilent) {
  CHECK(1 + 1 == 2);
  CHECK_OK(Status::OK());
  CHECK_EQ(3, 3);
  CHECK_LT(2, 3);
  Result<int> r(7);
  CHECK_OK(r);
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckAbortsWithExpressionEvenInRelease) {
  // Unlike assert(), CHECK must fire in NDEBUG builds too — the test suite
  // is built in Release, so surviving this test proves it.
  EXPECT_DEATH(CHECK(2 + 2 == 5), "CHECK failed.*2 \\+ 2 == 5");
}

TEST(CheckDeathTest, CheckOkReportsTheStatusMessage) {
  EXPECT_DEATH(CHECK_OK(Status::Internal("zone map corrupt")),
               "zone map corrupt");
}

TEST(CheckDeathTest, CheckOpPrintsBothOperands) {
  int lhs = 3;
  int rhs = 4;
  EXPECT_DEATH(CHECK_EQ(lhs, rhs), "3 vs 4");
}

TEST(CheckDeathTest, ResultMisuseAborts) {
  // Result from an OK status has no value to hold: programming error.
  EXPECT_DEATH(
      {
        Result<int> r(Status::OK());
        (void)r;
      },
      "CHECK failed");
  // ValueOrDie on an error aborts with the stored error, Release included.
  Result<int> err(Status::NotFound("no such column"));
  EXPECT_DEATH(err.ValueOrDie(), "no such column");
}

#ifndef NDEBUG
TEST(CheckDeathTest, DcheckFiresInDebugBuilds) {
  EXPECT_DEATH(DCHECK(false), "CHECK failed");
}
#else
TEST(CheckTest, DcheckDoesNotEvaluateInRelease) {
  int evaluations = 0;
  DCHECK([&] {
    ++evaluations;
    return false;
  }());
  EXPECT_EQ(evaluations, 0);
}
#endif

TEST(StopwatchTest, MeasuresNonNegativeElapsed) {
  Stopwatch t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.ElapsedMicros(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace exploredb
