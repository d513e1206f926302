#ifndef EXPLOREDB_STORAGE_COMPRESSION_COMPRESSED_COLUMN_H_
#define EXPLOREDB_STORAGE_COMPRESSION_COMPRESSED_COLUMN_H_

// Lightweight columnar compression with scans that run on the compressed
// representation (DESIGN.md §2g). Columns are cut into fixed 8192-row blocks
// (the zone-map width, so every block carries its min/max synopsis for
// free), and each block independently picks the cheaper of two codecs:
//
//  - kFor:  frame-of-reference + bit-packing. Deltas v - min are packed at
//           the block's exact bit width; range predicates are rewritten into
//           the delta domain and evaluated on the packed words
//           (simd filter_packed_i64) so non-matching rows are never
//           decompressed.
//  - kRle:  run-length encoding for sorted/clustered data. A predicate is
//           evaluated once per run header; matching runs emit position
//           ranges without touching row data at all.
//
// String columns need no codec here: ColumnVector stores them as
// dictionary codes from the first append, and equality predicates and
// HashGroupBy read those codes directly.
//
// All codecs are exact (integers, no quantization), so compressed scans are
// bit-identical to raw scans on every SIMD tier and thread count.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/predicate.h"

namespace exploredb {

/// Rows per compressed block. Equal to ZoneMap::kDefaultZoneRows so block
/// synopses and zone maps describe the same row ranges.
inline constexpr size_t kCompressionBlockRows = 8192;

/// Unpack granularity inside a FOR block: surviving rows are decoded one
/// 128-row sub-block at a time into thread-local scratch (one or two cache
/// lines of packed input per step at typical widths).
inline constexpr size_t kUnpackSubBlockRows = 128;

/// Per-block codec choice (made independently per 8192-row block).
enum class BlockCodec : uint8_t { kFor, kRle };

/// One RLE run: `end` is the EXCLUSIVE row offset within the block where the
/// run stops, so run r covers [runs[r-1].end, runs[r].end) and lookups can
/// binary-search the ends.
struct RleRun {
  int64_t value;
  uint32_t end;
};

/// Header of one 8192-row (or trailing shorter) block. FOR blocks reference
/// a range of the column's shared word pool, RLE blocks a range of the
/// shared run pool.
struct Int64Block {
  BlockCodec codec = BlockCodec::kFor;
  uint8_t width = 0;       // FOR delta bit width, 0..64 (0: all rows == min)
  uint32_t rows = 0;       // rows in this block
  int64_t min = 0;         // block min; also the FOR frame
  int64_t max = 0;
  size_t words = 0;        // kFor: first word in the shared pool
  uint32_t first_run = 0;  // kRle: first run in the shared pool
  uint32_t num_runs = 0;   // kRle: run count
};

/// How EXPLOREDB_COMPRESS gates the compressed scans:
///   "0"    -> kOff      never scan compressed (string filters compare values)
///   "1"    -> kForced   compress every int64 column regardless of ratio
///   unset  -> kAdaptive compress when the achieved ratio clears ~1.25x
enum class CompressionPolicy { kOff, kAdaptive, kForced };

/// The policy from the environment, read once per process.
CompressionPolicy CompressionPolicyFromEnv();

/// A compressed int64 column: block headers plus shared word/run pools. The
/// filter entry points mirror Predicate::FilterRange's morsel contract —
/// they append matching GLOBAL row ids for [begin, end) in row order, and
/// emit exactly the rows a raw scan would.
class CompressedInt64Column {
 public:
  static CompressedInt64Column Encode(const std::vector<int64_t>& data);

  /// The representation a TableEntry publishes for `col`, or nullptr when
  /// it has none: doubles and strings (stored as dictionary codes already),
  /// any column under kOff, and under kAdaptive an int64 column whose
  /// achieved ratio is too small.
  static std::unique_ptr<CompressedInt64Column> Build(const ColumnVector& col);

  size_t num_rows() const { return num_rows_; }
  size_t num_blocks() const { return blocks_.size(); }
  const Int64Block& block(size_t i) const { return blocks_[i]; }

  /// Appends row ids r in [begin, end) with value(r) `op` k. Works block by
  /// block: min/max short-circuits first, then RLE run headers or a
  /// packed-domain FOR filter — rows of non-qualifying blocks/runs are never
  /// decoded.
  void FilterCmp(uint32_t begin, uint32_t end, CompareOp op, int64_t k,
                 std::vector<uint32_t>* out) const;

  /// The fused window idiom lo <= value < hi.
  void FilterRange(uint32_t begin, uint32_t end, int64_t lo, int64_t hi,
                   std::vector<uint32_t>* out) const;

  /// out[i] = value at row sel[i]; `sel` must be ascending (a selection
  /// vector). Decodes each touched 128-row sub-block once into thread-local
  /// scratch; RLE blocks are served from run headers.
  void Gather(const uint32_t* sel, uint32_t n, int64_t* out) const;

  /// Decodes rows [begin, end) into out (must hold end - begin values).
  void Decode(uint32_t begin, uint32_t end, int64_t* out) const;

  /// Estimated fraction of rows with value `op` k. EXACT for RLE blocks (run
  /// headers give true match counts); uniform-within-bounds model for FOR
  /// blocks — strictly better than the zone map's estimate on clustered
  /// data.
  double EstimateSelectivity(CompareOp op, int64_t k) const;

  size_t raw_bytes() const { return num_rows_ * sizeof(int64_t); }
  size_t compressed_bytes() const;
  double compression_ratio() const;
  /// Number of blocks that chose the RLE codec.
  size_t rle_block_count() const;

  /// Structural invariants (blocks cover [0, num_rows), run ends strictly
  /// ascending and covering, widths fit the bounds); with `data`, a full
  /// decode must reproduce the column exactly.
  Status Validate(const std::vector<int64_t>* data = nullptr) const;

 private:
  size_t num_rows_ = 0;
  std::vector<Int64Block> blocks_;
  std::vector<uint64_t> words_;  // packed FOR deltas (+1 guard word/block)
  std::vector<RleRun> runs_;
};

}  // namespace exploredb

#endif  // EXPLOREDB_STORAGE_COMPRESSION_COMPRESSED_COLUMN_H_
