#include "viz/vizdeck.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace exploredb {

const char* ChartKindName(ChartKind kind) {
  switch (kind) {
    case ChartKind::kHistogram:
      return "histogram";
    case ChartKind::kBarChart:
      return "bar";
    case ChartKind::kScatter:
      return "scatter";
  }
  return "?";
}

std::string VizCard::Describe(const Schema& schema) const {
  std::string out = ChartKindName(kind);
  out += "(";
  out += schema.field(column_a).name;
  if (kind == ChartKind::kScatter) {
    out += ", ";
    out += schema.field(column_b).name;
  }
  out += ")";
  return out;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

/// CategoricalInterest over any sized range of strings (a vector, or a
/// string column's cells).
template <typename Strings>
double Interest(const Strings& values) {
  if (values.empty()) return 0.0;
  std::unordered_map<std::string, uint64_t> counts;
  for (const std::string& v : values) ++counts[v];
  const double n = static_cast<double>(values.size());
  const double distinct = static_cast<double>(counts.size());
  if (distinct <= 1) return 0.0;  // constant column: nothing to chart
  double entropy = 0.0;
  for (const auto& [value, count] : counts) {
    double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  double normalized = entropy / std::log2(distinct);
  // Near-key columns (cardinality ~ rows) make useless bar charts.
  double key_penalty = 1.0 - distinct / n;
  return normalized * std::max(key_penalty, 0.0);
}

}  // namespace

double CategoricalInterest(const std::vector<std::string>& values) {
  return Interest(values);
}

double NumericInterest(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n < 3) return 0.0;
  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(n);
  double m2 = 0, m3 = 0;
  for (double v : values) {
    double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 0) return 0.0;
  double skew = std::abs(m3 / std::pow(m2, 1.5));
  return skew / (1.0 + skew);  // squash to [0, 1)
}

Result<std::vector<VizCard>> RankVizCards(const Table& table, size_t limit) {
  if (table.num_rows() == 0) return Status::InvalidArgument("empty table");
  std::vector<VizCard> deck;
  std::vector<size_t> numeric_cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnVector& col = table.column(c);
    if (col.type() == DataType::kString) {
      deck.push_back({ChartKind::kBarChart, c, 0,
                      Interest(col.string_data())});
      continue;
    }
    numeric_cols.push_back(c);
    std::vector<double> values(table.num_rows());
    for (size_t r = 0; r < values.size(); ++r) values[r] = col.GetDouble(r);
    deck.push_back({ChartKind::kHistogram, c, 0, NumericInterest(values)});
  }
  // Scatter candidates: all numeric pairs.
  for (size_t i = 0; i < numeric_cols.size(); ++i) {
    for (size_t j = i + 1; j < numeric_cols.size(); ++j) {
      std::vector<double> x(table.num_rows()), y(table.num_rows());
      for (size_t r = 0; r < x.size(); ++r) {
        x[r] = table.column(numeric_cols[i]).GetDouble(r);
        y[r] = table.column(numeric_cols[j]).GetDouble(r);
      }
      deck.push_back({ChartKind::kScatter, numeric_cols[i], numeric_cols[j],
                      std::abs(PearsonCorrelation(x, y))});
    }
  }
  std::sort(deck.begin(), deck.end(), [](const VizCard& a, const VizCard& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.column_a != b.column_a) return a.column_a < b.column_a;
    return a.column_b < b.column_b;
  });
  if (deck.size() > limit) deck.resize(limit);
  return deck;
}

}  // namespace exploredb
