#ifndef EXPLOREDB_ENGINE_GROUP_BY_H_
#define EXPLOREDB_ENGINE_GROUP_BY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "storage/column.h"

namespace exploredb {

/// Exact grouped aggregation over `positions`, morsel-parallel with
/// deterministic merge: each morsel of positions accumulates a private
/// partial table and the partials are folded in morsel order, so the result
/// is identical (bit-identical doubles included) for any thread count.
///
/// Keys are typed, never stringified per row:
///  - int64   — dense accumulator array when `key_range` (usually the
///              column's zone-map min/max) spans a small domain, open-
///              addressed hash otherwise;
///  - double  — hashed by bit pattern;
///  - string  — dense array over the column's dictionary codes.
/// Display strings are produced only at result build, and the output is
/// sorted by display key — the same ordering the historical
/// `std::map<std::string, Acc>` accumulator produced.
///
/// `measure` may be null (COUNT). `stats` receives morsel dispatch counts;
/// `confidence` is copied into each group's Estimate. Exact answers carry a
/// zero CI width. With a `sample` (drawn, population), `positions` are the
/// matches among a uniform sample's draws: each group keeps Moments instead
/// of a sum, and EstimateAggregate finishes it.
Result<std::vector<GroupValue>> HashGroupBy(
    const ColumnVector& keys, const ColumnVector* measure, AggKind kind,
    double confidence, const std::vector<uint32_t>& positions,
    std::optional<std::pair<int64_t, int64_t>> key_range,
    std::optional<std::pair<uint64_t, uint64_t>> sample,
    const ExecContext& ctx, ExecStats* stats);

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_GROUP_BY_H_
