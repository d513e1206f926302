#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/random.h"

namespace perfbench {

using exploredb::AggKind;
using exploredb::CompareOp;
using exploredb::ExecContext;
using exploredb::ExecutionMode;
using exploredb::QueryBuilder;
using exploredb::QueryResult;
using exploredb::Random;
using exploredb::Schema;
using exploredb::Table;
using exploredb::Value;

namespace {

// Mean think times (exponentially distributed), and below them the gesture
// and viewport mixes. These are load choices, not measured user behaviour:
// nothing in this repository records the think times or interaction mixes of
// real crossfilter or map users. 400 ms lets each dashboard refresh finish
// well before its user acts again; 15 ms makes four map users offer about
// 250 windows a second, enough to warm the shared cache and converge the
// cracked column within a run.
constexpr double kPanZoomThinkMs = 15;
constexpr double kCrossfilterThinkMs = 400;

// Crossfilter views run kBudgeted. The charts get a budget an exact scan
// fits; the selected-rows badge gets one only an approximate answer can aim
// for, so each view's plan is the same whatever the load.
constexpr int64_t kChartBudgetNs = 500'000'000;
constexpr int64_t kBadgeBudgetNs = 5'000'000;
constexpr double kViewTargetError = 0.05;
constexpr double kViewConfidence = 0.95;

// Pan-zoom geometry over lon. Viewports at zoom z are kBaseWidth << z wide
// and move in quarter-width steps inside 2^19-wide regions: one hot region
// every user visits, one home region per user.
constexpr int64_t kBaseWidth = 8192;
constexpr int kZooms = 3;
constexpr int64_t kRegionWidth = 16 * (kBaseWidth << (kZooms - 1));
constexpr int64_t kHotRegion = kLonDomain / 2;

const std::vector<std::string> kWindowColumns = {"lon", "air_time",
                                                 "dep_delay"};

/// Deals a fixed set of cards in random order, reshuffling whenever it runs
/// out. Every full deal holds each card once, so the seed changes the order
/// of a user's choices but hardly their mix, and a run's offered load and
/// its cost barely depend on the seed.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> cards)
      : cards_(std::move(cards)), next_(cards_.size()) {}

  T Deal(Random* rng) {
    if (next_ == cards_.size()) {
      rng->Shuffle(&cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<T> cards_;
  size_t next_;
};

/// `n` copies of each value.
template <typename T>
std::vector<T> Cards(std::initializer_list<std::pair<T, int>> counts) {
  std::vector<T> cards;
  for (const auto& [value, n] : counts) {
    cards.insert(cards.end(), static_cast<size_t>(n), value);
  }
  return cards;
}

/// The integers [lo, hi).
std::vector<int> Range(int lo, int hi) {
  std::vector<int> cards;
  for (int v = lo; v < hi; ++v) cards.push_back(v);
  return cards;
}

/// Exponentially distributed think times, stratified: a deck of the
/// distribution's 16 quantiles, so every full deal sums to the same total.
Deck<int64_t> ThinkTimes(double mean_ms) {
  constexpr int kQuantiles = 16;
  std::vector<int64_t> cards;
  for (int k = 0; k < kQuantiles; ++k) {
    const double p = (k + 0.5) / kQuantiles;
    cards.push_back(std::llround(-mean_ms * 1e6 * std::log(1.0 - p)));
  }
  return Deck<int64_t>(std::move(cards));
}

/// Interactions a user could issue in `seconds` with zero latency, twice
/// over: scripts are cycled only if a run outlasts them.
size_t ScriptLength(int seconds, double mean_think_ms) {
  return static_cast<size_t>(2.0 * seconds * 1000.0 / mean_think_ms) + 32;
}

Random UserRng(uint64_t seed, uint64_t salt, size_t user) {
  return Random(seed * 0x9E3779B97F4A7C15ULL + salt * 1'000'003 + user);
}

Request MakeRequest(const QueryBuilder& builder, const Schema& schema,
                    ExecutionMode mode, Expected expected) {
  Request r;
  r.query = builder.Build(schema).ValueOrDie();
  r.key = r.query.CacheKey();
  r.mode = mode;
  r.expected = std::move(expected);
  return r;
}

// ---- Crossfilter dashboards -----------------------------------------------

QueryBuilder Filtered(const CrossFilter& f, bool with_carrier) {
  QueryBuilder b("flights");
  if (f.since > 0) b.Where("ts", CompareOp::kGe, Value(SinceBound(f.since)));
  if (f.delay_lo > 0 || f.delay_hi < kDelayCells) {
    b.Where("dep_delay", CompareOp::kGe, Value(DelayBound(f.delay_lo)));
    b.Where("dep_delay", CompareOp::kLt, Value(DelayBound(f.delay_hi)));
  }
  if (with_carrier && f.carrier >= 0) {
    b.Where("carrier", CompareOp::kEq, Value(CarrierName(f.carrier)));
  }
  return b;
}

Expected Scalar(double v) {
  Expected e;
  e.shape = Expected::Shape::kScalar;
  e.scalar = v;
  return e;
}

Expected Groups(std::map<std::string, double> groups) {
  Expected e;
  e.shape = Expected::Shape::kGroups;
  e.groups = std::move(groups);
  return e;
}

/// The linked views a dashboard recomputes after every gesture.
std::vector<Request> Views(const CrossFilter& f, const Schema& schema,
                           const Oracle& oracle) {
  const Oracle::Totals total = oracle.Total(f);
  std::vector<Request> views;
  auto add = [&](QueryBuilder b, int64_t budget_ns, Expected e) {
    Request r = MakeRequest(b, schema, ExecutionMode::kBudgeted, std::move(e));
    r.budget_ns = budget_ns;
    views.push_back(std::move(r));
  };
  add(Filtered(f, false).Aggregate(AggKind::kCount).GroupBy("carrier"),
      kChartBudgetNs, Groups(oracle.CountByCarrier(f)));
  add(Filtered(f, true).Aggregate(AggKind::kAvg, "arr_delay").GroupBy("origin"),
      kChartBudgetNs, Groups(oracle.AvgArrByOrigin(f)));
  add(Filtered(f, true).Aggregate(AggKind::kSum, "air_time"), kChartBudgetNs,
      Scalar(static_cast<double>(total.air_sum)));
  add(Filtered(f, true).Aggregate(AggKind::kCount), kBadgeBudgetNs,
      Scalar(static_cast<double>(total.count)));
  return views;
}

enum class Gesture { kBrush, kPan, kZoom, kSlide, kDrill, kReset };

/// One dashboard user's choices. The time slider keeps at least the latest
/// half of the data in view, so a scan prunes at most half the zones.
struct DashboardDecks {
  Deck<Gesture> gestures{Cards<Gesture>({{Gesture::kBrush, 5},
                                          {Gesture::kPan, 4},
                                          {Gesture::kZoom, 3},
                                          {Gesture::kSlide, 4},
                                          {Gesture::kDrill, 3},
                                          {Gesture::kReset, 1}})};
  Deck<int> since{Range(0, kSinceCells / 2)};
  Deck<int> brush_width{Range(2, 11)};
  Deck<int> brush_quarter{Range(0, 4)};  ///< where in the delay axis
  Deck<int> pan{Cards<int>({{-3, 1}, {-2, 1}, {-1, 1}, {1, 1}, {2, 1}, {3, 1}})};
  Deck<int> widen{Range(0, 2)};
  Deck<int> carrier{Range(0, kCarriers)};
  Deck<int> undrill{Range(0, 2)};
};

/// Brush, pan or zoom the delay brush, move the time slider, drill into (or
/// out of, or across) a carrier, or clear the brush.
void Act(CrossFilter* f, DashboardDecks* d, Random* rng) {
  const int width = f->delay_hi - f->delay_lo;
  Gesture g = d->gestures.Deal(rng);
  // With no brush to pan or zoom, the user draws one.
  if (width == kDelayCells && (g == Gesture::kPan || g == Gesture::kZoom)) {
    g = Gesture::kBrush;
  }
  switch (g) {
    case Gesture::kBrush: {
      const int w = d->brush_width.Deal(rng);
      const int slots = kDelayCells - w + 1;
      const int q = d->brush_quarter.Deal(rng);
      const int first = q * slots / 4;
      f->delay_lo = first + static_cast<int>(rng->Uniform(
                                static_cast<uint64_t>((q + 1) * slots / 4 - first)));
      f->delay_hi = f->delay_lo + w;
      break;
    }
    case Gesture::kPan:
      f->delay_lo =
          std::clamp(f->delay_lo + d->pan.Deal(rng), 0, kDelayCells - width);
      f->delay_hi = f->delay_lo + width;
      break;
    case Gesture::kZoom:
      if (d->widen.Deal(rng) == 1 || width <= 2) {
        f->delay_lo = std::max(0, f->delay_lo - 1);
        f->delay_hi = std::min(kDelayCells, f->delay_hi + 1);
      } else {
        ++f->delay_lo;
        --f->delay_hi;
      }
      break;
    case Gesture::kSlide:
      f->since = d->since.Deal(rng);
      break;
    case Gesture::kDrill:
      f->carrier = f->carrier >= 0 && d->undrill.Deal(rng) == 1
                       ? -1
                       : d->carrier.Deal(rng);
      break;
    case Gesture::kReset:
      f->delay_lo = 0;
      f->delay_hi = kDelayCells;
      break;
  }
}

User Dashboard(std::string tenant, int seconds, Random rng,
               const Schema& schema, const Oracle& oracle) {
  User u{std::move(tenant), kCrossfilterThinkMs, {}};
  Deck<int64_t> think = ThinkTimes(kCrossfilterThinkMs);
  DashboardDecks decks;
  CrossFilter f;
  f.since = decks.since.Deal(&rng);
  for (size_t i = ScriptLength(seconds, kCrossfilterThinkMs); i > 0; --i) {
    Act(&f, &decks, &rng);
    // The views refresh one after another: the user's session serves one
    // query at a time, so submitting them together only queues them behind
    // its lock.
    int64_t think_ns = think.Deal(&rng);
    for (Request& view : Views(f, schema, oracle)) {
      u.script.push_back({think_ns, std::move(view)});
      think_ns = 0;
    }
  }
  return u;
}

std::vector<User> CrossfilterUsers(uint64_t seed, int seconds,
                                   const Schema& schema,
                                   const Oracle& oracle) {
  std::vector<User> users;
  for (size_t i = 0; i < 4; ++i) {
    users.push_back(Dashboard("dash-" + std::to_string(i), seconds,
                              UserRng(seed, 2, i), schema, oracle));
  }
  return users;
}

// ---- Pan-zoom map users ---------------------------------------------------

struct Viewport {
  int64_t region = 0;
  int zoom = 0;
  int64_t lo = 0;
  int dir = 1;

  int64_t width() const { return kBaseWidth << zoom; }
  int64_t step() const { return width() / 4; }
  int64_t Clamp(int64_t v) const {
    return std::clamp(v, region, region + kRegionWidth - width());
  }
};

enum class Move { kJump, kZoom, kPan };

/// One map user's choices: a third of the jumps land in the hot region.
struct MapDecks {
  Deck<Move> moves{Cards<Move>({{Move::kJump, 3}, {Move::kZoom, 6}, {Move::kPan, 41}})};
  Deck<int> hot{Cards<int>({{1, 1}, {0, 2}})};
  Deck<int> zoom{Range(0, kZooms)};
  Deck<int> zoom_in{Range(0, 2)};
  Deck<int64_t> pan_steps{Cards<int64_t>({{1, 2}, {2, 1}, {4, 1}})};
  Deck<int> turn{Cards<int>({{1, 1}, {0, 3}})};
};

void Jump(Viewport* v, int64_t home, MapDecks* d, Random* rng) {
  v->region = d->hot.Deal(rng) == 1 ? kHotRegion : home;
  v->zoom = d->zoom.Deal(rng);
  const auto slots =
      static_cast<uint64_t>((kRegionWidth - v->width()) / v->step() + 1);
  v->lo = v->region + v->step() * static_cast<int64_t>(rng->Uniform(slots));
}

/// Pan with momentum (a quarter, half or whole viewport), zoom about the
/// centre, or jump to the hot region or home.
void Step(Viewport* v, int64_t home, MapDecks* d, Random* rng) {
  switch (d->moves.Deal(rng)) {
    case Move::kJump:
      Jump(v, home, d, rng);
      break;
    case Move::kZoom: {
      const int64_t center = v->lo + v->width() / 2;
      v->zoom = std::clamp(v->zoom + (d->zoom_in.Deal(rng) == 1 ? -1 : 1), 0,
                           kZooms - 1);
      const int64_t offset =
          std::max<int64_t>(0, center - v->width() / 2 - v->region);
      v->lo = v->Clamp(v->region + offset / v->step() * v->step());
      break;
    }
    case Move::kPan: {
      if (d->turn.Deal(rng) == 1) v->dir = -v->dir;
      const int64_t to = v->lo + v->dir * d->pan_steps.Deal(rng) * v->step();
      if (v->Clamp(to) != to) v->dir = -v->dir;
      v->lo = v->Clamp(to);
      break;
    }
  }
}

Request LonWindow(int64_t lo, int64_t hi, const Schema& schema,
                  const Oracle& oracle) {
  Expected e;
  e.shape = Expected::Shape::kLonWindow;
  e.digest = oracle.LonWindow(lo, hi);
  e.lo = lo;
  e.hi = hi;
  return MakeRequest(
      QueryBuilder("flights").WhereBetween("lon", lo, hi).Select(kWindowColumns),
      schema, ExecutionMode::kCracking, std::move(e));
}

std::vector<User> PanZoomUsers(uint64_t seed, int seconds,
                               const Schema& schema, const Oracle& oracle) {
  std::vector<User> users;
  for (size_t i = 0; i < 4; ++i) {
    Random rng = UserRng(seed, 1, i);
    const int64_t home = static_cast<int64_t>(2 + 3 * i) * kRegionWidth;
    User u{"map-" + std::to_string(i), kPanZoomThinkMs, {}};
    Deck<int64_t> think = ThinkTimes(kPanZoomThinkMs);
    MapDecks decks;
    Viewport v;
    Jump(&v, home, &decks, &rng);
    for (size_t s = ScriptLength(seconds, kPanZoomThinkMs); s > 0; --s) {
      Step(&v, home, &decks, &rng);
      u.script.push_back({think.Deal(&rng),
                          LonWindow(v.lo, v.lo + v.width(), schema, oracle)});
    }
    users.push_back(std::move(u));
  }
  return users;
}

// ---- Verification ---------------------------------------------------------

double RelError(double got, double want) {
  if (got == want) return 0.0;
  const double err = std::abs(got - want) / std::max(std::abs(want), 1e-12);
  return std::min(1.0, err);  // NaN compares false, so it scores 1
}

bool Close(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

/// Scores one approximate value into `v`, which starts out correct,
/// accurate and covered.
void Score(const exploredb::Estimate& e, double want, Verdict* v,
           double* rel_error_sum) {
  *rel_error_sum += RelError(e.value, want);
  if (!std::isfinite(e.value) || !(e.ci_half_width >= 0.0)) {
    v->correct = v->accurate = v->covered = false;
    return;
  }
  const double miss = std::abs(e.value - want);
  if (Close(e.value, want)) return;
  v->covered = v->covered && miss <= e.ci_half_width;
  v->accurate = v->accurate && miss <= kCiSlack * e.ci_half_width;
}

}  // namespace

ExecContext Request::MakeContext() const {
  ExecContext ctx;
  ctx.SetMode(mode);
  if (mode == ExecutionMode::kBudgeted) {
    ctx.SetBudget({std::chrono::nanoseconds(budget_ns), kViewTargetError,
                   kViewConfidence});
  }
  return ctx;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     int seconds, const Schema& schema,
                                     const Oracle& oracle) {
  if (name == "crossfilter") {
    return Workload{name, CrossfilterUsers(seed, seconds, schema, oracle)};
  }
  if (name == "pan-zoom") {
    return Workload{name, PanZoomUsers(seed, seconds, schema, oracle)};
  }
  return std::nullopt;
}

Verdict Verify(const Request& request, const QueryResult& result,
               const Table& table) {
  Verdict v;
  const Expected& e = request.expected;
  switch (e.shape) {
    case Expected::Shape::kLonWindow: {
      if (result.approximate || !result.rows.has_value()) return v;
      SetDigest got;
      for (uint32_t p : result.positions) got.Add(p);
      if (!(got == e.digest)) return v;
      // The first projected column is lon: each value must be the table's
      // value at its position, and inside the window.
      const auto& truth = table.column(kLon).int64_data();
      const exploredb::ColumnVector& col = result.rows->column(0);
      if (result.rows->num_rows() != result.positions.size() ||
          col.type() != exploredb::DataType::kInt64) {
        return v;
      }
      for (size_t i = 0; i < result.positions.size(); ++i) {
        const int64_t lon = col.int64_data()[i];
        if (lon != truth[result.positions[i]] || lon < e.lo || lon >= e.hi) {
          return v;
        }
      }
      v.correct = v.accurate = true;
      return v;
    }
    case Expected::Shape::kScalar: {
      if (!result.scalar.has_value()) return v;
      if (!result.approximate) {
        v.correct = v.accurate = Close(result.scalar->value, e.scalar);
        return v;
      }
      v.correct = v.accurate = v.covered = true;
      Score(*result.scalar, e.scalar, &v, &v.rel_error);
      return v;
    }
    case Expected::Shape::kGroups: {
      std::map<std::string, const exploredb::Estimate*> got;
      for (const exploredb::GroupValue& g : result.groups) got[g.key] = &g.value;
      if (!result.approximate) {
        if (got.size() != e.groups.size()) return v;
        for (const auto& [key, want] : e.groups) {
          auto it = got.find(key);
          if (it == got.end() || !Close(it->second->value, want)) return v;
        }
        v.correct = v.accurate = true;
        return v;
      }
      // A sample may miss a small group, which scores 1 and makes the answer
      // inaccurate, but cannot invent one.
      v.correct = v.accurate = v.covered = true;
      double total = 0.0;
      for (const auto& [key, want] : e.groups) {
        auto it = got.find(key);
        if (it == got.end()) {
          total += 1.0;
          v.accurate = v.covered = false;
        } else {
          Score(*it->second, want, &v, &total);
        }
      }
      for (const auto& [key, estimate] : got) {
        if (e.groups.count(key) == 0) v.correct = v.accurate = false;
      }
      v.rel_error = e.groups.empty()
                        ? 0.0
                        : total / static_cast<double>(e.groups.size());
      return v;
    }
  }
  return v;
}

}  // namespace perfbench
