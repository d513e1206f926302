#include "storage/compression/compressed_column.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/metrics.h"
#include "simd/simd.h"
#include "storage/zone_map.h"

namespace exploredb {

namespace {

/// Unsigned FOR delta of `v` against frame `f` (two's-complement wrap, so
/// INT64_MIN..INT64_MAX ranges work).
inline uint64_t DeltaOf(int64_t v, int64_t f) {
  return static_cast<uint64_t>(v) - static_cast<uint64_t>(f);
}

inline bool MatchesI64(int64_t v, CompareOp op, int64_t k) {
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

/// Block-level outcome from the min/max synopsis alone.
enum class BlockVerdict { kNone, kAll, kSome };

BlockVerdict ClassifyCmp(int64_t mn, int64_t mx, CompareOp op, int64_t k) {
  switch (op) {
    case CompareOp::kLt:
      if (mx < k) return BlockVerdict::kAll;
      if (mn >= k) return BlockVerdict::kNone;
      break;
    case CompareOp::kLe:
      if (mx <= k) return BlockVerdict::kAll;
      if (mn > k) return BlockVerdict::kNone;
      break;
    case CompareOp::kGt:
      if (mn > k) return BlockVerdict::kAll;
      if (mx <= k) return BlockVerdict::kNone;
      break;
    case CompareOp::kGe:
      if (mn >= k) return BlockVerdict::kAll;
      if (mx < k) return BlockVerdict::kNone;
      break;
    case CompareOp::kEq:
      if (mn == k && mx == k) return BlockVerdict::kAll;
      if (k < mn || k > mx) return BlockVerdict::kNone;
      break;
    case CompareOp::kNe:
      if (mn == k && mx == k) return BlockVerdict::kNone;
      if (k < mn || k > mx) return BlockVerdict::kAll;
      break;
  }
  return BlockVerdict::kSome;
}

inline void AppendRange(std::vector<uint32_t>* out, uint32_t s, uint32_t e) {
  // Bulk-resize then fill: the fill loop vectorizes, and a whole matching
  // run appends without per-element capacity checks.
  const size_t base = out->size();
  out->resize(base + (e - s));
  uint32_t* p = out->data() + base;
  for (uint32_t r = s; r < e; ++r) *p++ = r;
}

Counter* RleSkipCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_storage_blocks_skipped_rle_total",
      "RLE blocks filtered from run headers alone, rows never decoded");
  return c;
}

}  // namespace

CompressionPolicy CompressionPolicyFromEnv() {
  static const CompressionPolicy policy = [] {
    const char* env = std::getenv("EXPLOREDB_COMPRESS");
    if (env == nullptr) return CompressionPolicy::kAdaptive;
    if (std::strcmp(env, "0") == 0) return CompressionPolicy::kOff;
    if (std::strcmp(env, "1") == 0) return CompressionPolicy::kForced;
    return CompressionPolicy::kAdaptive;
  }();
  return policy;
}

CompressedInt64Column CompressedInt64Column::Encode(
    const std::vector<int64_t>& data) {
  CompressedInt64Column col;
  col.num_rows_ = data.size();
  const simd::KernelTable& kt = simd::ActiveKernels();
  for (size_t base = 0; base < data.size(); base += kCompressionBlockRows) {
    const uint32_t rows = static_cast<uint32_t>(
        std::min(kCompressionBlockRows, data.size() - base));
    const int64_t* d = data.data() + base;
    Int64Block b;
    b.rows = rows;
    kt.minmax_i64(d, rows, &b.min, &b.max);
    uint32_t num_runs = 1;
    for (uint32_t i = 1; i < rows; ++i) num_runs += d[i] != d[i - 1] ? 1 : 0;
    const uint64_t max_delta = DeltaOf(b.max, b.min);
    const uint32_t width = static_cast<uint32_t>(std::bit_width(max_delta));
    const size_t for_words =
        (static_cast<size_t>(rows) * width + 63) / 64 + 1;  // +1 guard word
    const size_t for_bytes = for_words * sizeof(uint64_t);
    const size_t rle_bytes = static_cast<size_t>(num_runs) * sizeof(RleRun);
    if (rle_bytes < for_bytes) {
      b.codec = BlockCodec::kRle;
      b.first_run = static_cast<uint32_t>(col.runs_.size());
      b.num_runs = num_runs;
      uint32_t i = 0;
      while (i < rows) {
        const int64_t v = d[i];
        uint32_t e = i + 1;
        while (e < rows && d[e] == v) ++e;
        col.runs_.push_back(RleRun{v, e});
        i = e;
      }
    } else {
      b.codec = BlockCodec::kFor;
      b.width = static_cast<uint8_t>(width);
      b.words = col.words_.size();
      col.words_.resize(col.words_.size() + for_words, 0);
      uint64_t* w = col.words_.data() + b.words;
      if (width > 0) {
        for (uint32_t i = 0; i < rows; ++i) {
          const uint64_t delta = DeltaOf(d[i], b.min);
          const uint64_t bit = static_cast<uint64_t>(i) * width;
          const uint64_t wd = bit >> 6;
          const uint32_t o = static_cast<uint32_t>(bit & 63);
          w[wd] |= delta << o;
          if (o + width > 64) w[wd + 1] |= delta >> (64 - o);
        }
      }
    }
    col.blocks_.push_back(b);
  }
  return col;
}

size_t CompressedInt64Column::compressed_bytes() const {
  return blocks_.size() * sizeof(Int64Block) +
         words_.size() * sizeof(uint64_t) + runs_.size() * sizeof(RleRun);
}

double CompressedInt64Column::compression_ratio() const {
  const size_t c = compressed_bytes();
  return c > 0 ? static_cast<double>(raw_bytes()) / static_cast<double>(c)
               : 1.0;
}

size_t CompressedInt64Column::rle_block_count() const {
  size_t n = 0;
  for (const Int64Block& b : blocks_) n += b.codec == BlockCodec::kRle ? 1 : 0;
  return n;
}

namespace {

/// Emits the rows of one RLE block whose run value satisfies the per-run
/// predicate, clipped to local rows [ls, le), as global ids base + local.
template <typename RunPred>
void FilterRleBlock(const RleRun* runs, uint32_t num_runs, uint32_t base,
                    uint32_t ls, uint32_t le, RunPred pred,
                    std::vector<uint32_t>* out) {
  uint32_t run_begin = 0;
  for (uint32_t r = 0; r < num_runs && run_begin < le; ++r) {
    const uint32_t run_end = runs[r].end;
    if (run_end > ls && pred(runs[r].value)) {
      const uint32_t s = std::max(run_begin, ls);
      const uint32_t e = std::min(run_end, le);
      AppendRange(out, base + s, base + e);
    }
    run_begin = run_end;
  }
  RleSkipCounter()->Add(1);
}

/// Packed-domain filter of one FOR block region: local rows [ls, le) whose
/// delta lies in the inclusive [dlo, dhi], appended as global ids.
void FilterForBlock(const uint64_t* words, uint8_t width, uint32_t base,
                    uint32_t ls, uint32_t le, uint64_t dlo, uint64_t dhi,
                    std::vector<uint32_t>* out) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  const uint32_t n = le - ls;
  const size_t old = out->size();
  out->resize(old + n);
  const uint32_t cnt = kt.filter_packed_i64(words, ls, n, width, dlo, dhi,
                                            base + ls, out->data() + old);
  out->resize(old + cnt);
}

/// Rare path (kNe inside the block's value range): decode the local rows and
/// run the ordinary compare kernel over the scratch.
void FilterForBlockDecoded(const uint64_t* words, uint8_t width, int64_t frame,
                           uint32_t base, uint32_t ls, uint32_t le,
                           CompareOp op, int64_t k,
                           std::vector<uint32_t>* out) {
  static thread_local std::vector<int64_t> scratch;
  const uint32_t n = le - ls;
  scratch.resize(n);
  const simd::KernelTable& kt = simd::ActiveKernels();
  kt.unpack_for_i64(words, ls, n, width, frame, scratch.data());
  const size_t old = out->size();
  out->resize(old + n);
  const uint32_t cnt = kt.filter_i64_cmp(scratch.data(), 0, n, ToSimdCmp(op),
                                         k, out->data() + old);
  uint32_t* o = out->data() + old;
  for (uint32_t i = 0; i < cnt; ++i) o[i] += base + ls;
  out->resize(old + cnt);
}

}  // namespace

void CompressedInt64Column::FilterCmp(uint32_t begin, uint32_t end,
                                      CompareOp op, int64_t k,
                                      std::vector<uint32_t>* out) const {
  const uint32_t lim =
      std::min(end, static_cast<uint32_t>(num_rows_));
  for (uint32_t pos = begin; pos < lim;) {
    const size_t bi = pos / kCompressionBlockRows;
    const Int64Block& b = blocks_[bi];
    const uint32_t block_base =
        static_cast<uint32_t>(bi * kCompressionBlockRows);
    const uint32_t s = pos;
    const uint32_t e = std::min(lim, block_base + b.rows);
    pos = e;
    switch (ClassifyCmp(b.min, b.max, op, k)) {
      case BlockVerdict::kNone:
        continue;
      case BlockVerdict::kAll:
        AppendRange(out, s, e);
        continue;
      case BlockVerdict::kSome:
        break;
    }
    const uint32_t ls = s - block_base;
    const uint32_t le = e - block_base;
    if (b.codec == BlockCodec::kRle) {
      FilterRleBlock(runs_.data() + b.first_run, b.num_runs, block_base, ls,
                     le, [&](int64_t v) { return MatchesI64(v, op, k); }, out);
      continue;
    }
    // Rewrite the predicate into the delta domain. The kSome verdict pins k
    // strictly inside the block's range for each op, so every subtraction
    // below is non-negative.
    const uint64_t dk = DeltaOf(k, b.min);
    const uint64_t max_delta = DeltaOf(b.max, b.min);
    uint64_t dlo = 0;
    uint64_t dhi = max_delta;
    switch (op) {
      case CompareOp::kLt:
        dhi = dk - 1;
        break;
      case CompareOp::kLe:
        dhi = dk;
        break;
      case CompareOp::kGt:
        dlo = dk + 1;
        break;
      case CompareOp::kGe:
        dlo = dk;
        break;
      case CompareOp::kEq:
        dlo = dhi = dk;
        break;
      case CompareOp::kNe:
        // Two disjoint delta intervals; decode instead (kNe inside the value
        // range is rare in exploration workloads).
        FilterForBlockDecoded(words_.data() + b.words, b.width, b.min,
                              block_base, ls, le, op, k, out);
        continue;
    }
    FilterForBlock(words_.data() + b.words, b.width, block_base, ls, le, dlo,
                   dhi, out);
  }
}

void CompressedInt64Column::FilterRange(uint32_t begin, uint32_t end,
                                        int64_t lo, int64_t hi,
                                        std::vector<uint32_t>* out) const {
  const uint32_t lim =
      std::min(end, static_cast<uint32_t>(num_rows_));
  for (uint32_t pos = begin; pos < lim;) {
    const size_t bi = pos / kCompressionBlockRows;
    const Int64Block& b = blocks_[bi];
    const uint32_t block_base =
        static_cast<uint32_t>(bi * kCompressionBlockRows);
    const uint32_t s = pos;
    const uint32_t e = std::min(lim, block_base + b.rows);
    pos = e;
    if (b.min >= hi || b.max < lo) continue;  // no row in lo <= v < hi
    if (b.min >= lo && b.max < hi) {
      AppendRange(out, s, e);
      continue;
    }
    const uint32_t ls = s - block_base;
    const uint32_t le = e - block_base;
    if (b.codec == BlockCodec::kRle) {
      FilterRleBlock(runs_.data() + b.first_run, b.num_runs, block_base, ls,
                     le, [&](int64_t v) { return v >= lo && v < hi; }, out);
      continue;
    }
    // Not-none pins b.min < hi and b.max >= lo, so both deltas are valid.
    const uint64_t dlo = lo <= b.min ? 0 : DeltaOf(lo, b.min);
    const uint64_t dhi =
        hi > b.max ? DeltaOf(b.max, b.min) : DeltaOf(hi, b.min) - 1;
    FilterForBlock(words_.data() + b.words, b.width, block_base, ls, le, dlo,
                   dhi, out);
  }
}

void CompressedInt64Column::Gather(const uint32_t* sel, uint32_t n,
                                   int64_t* out) const {
  if (n == 0) return;
  // Window predicates select contiguous row ranges; an ascending selection
  // spanning exactly n rows is one such run, and decoding it straight into
  // `out` skips the per-position sub-block scratch entirely.
  if (sel[n - 1] - sel[0] + 1 == n) {
    Decode(sel[0], sel[0] + n, out);
    return;
  }
  static thread_local std::vector<int64_t> sub;
  sub.resize(kUnpackSubBlockRows);
  const simd::KernelTable& kt = simd::ActiveKernels();
  uint32_t i = 0;
  while (i < n) {
    const size_t bi = sel[i] / kCompressionBlockRows;
    const Int64Block& b = blocks_[bi];
    const uint32_t block_base =
        static_cast<uint32_t>(bi * kCompressionBlockRows);
    const uint32_t block_end = block_base + b.rows;
    if (b.codec == BlockCodec::kRle) {
      const RleRun* runs = runs_.data() + b.first_run;
      uint32_t r = 0;
      while (i < n && sel[i] < block_end) {
        const uint32_t local = sel[i] - block_base;
        while (runs[r].end <= local) ++r;  // sel ascending: r only advances
        out[i] = runs[r].value;
        ++i;
      }
      continue;
    }
    while (i < n && sel[i] < block_end) {
      // Decode the 128-row sub-block around sel[i] once, then serve every
      // selected row that falls inside it.
      const uint32_t sb = (sel[i] - block_base) /
                          kUnpackSubBlockRows * kUnpackSubBlockRows;
      const uint32_t sbn = static_cast<uint32_t>(
          std::min(kUnpackSubBlockRows, static_cast<size_t>(b.rows - sb)));
      kt.unpack_for_i64(words_.data() + b.words, sb, sbn, b.width, b.min,
                        sub.data());
      const uint32_t sub_end = block_base + sb + sbn;
      while (i < n && sel[i] < sub_end) {
        out[i] = sub[sel[i] - block_base - sb];
        ++i;
      }
    }
  }
}

void CompressedInt64Column::Decode(uint32_t begin, uint32_t end,
                                   int64_t* out) const {
  const simd::KernelTable& kt = simd::ActiveKernels();
  for (uint32_t pos = begin; pos < end;) {
    const size_t bi = pos / kCompressionBlockRows;
    const Int64Block& b = blocks_[bi];
    const uint32_t block_base =
        static_cast<uint32_t>(bi * kCompressionBlockRows);
    const uint32_t e = std::min(end, block_base + b.rows);
    const uint32_t ls = pos - block_base;
    const uint32_t le = e - block_base;
    int64_t* o = out + (pos - begin);
    if (b.codec == BlockCodec::kFor) {
      kt.unpack_for_i64(words_.data() + b.words, ls, le - ls, b.width, b.min,
                        o);
    } else {
      const RleRun* runs = runs_.data() + b.first_run;
      uint32_t run_begin = 0;
      for (uint32_t r = 0; r < b.num_runs && run_begin < le; ++r) {
        const uint32_t run_end = runs[r].end;
        for (uint32_t x = std::max(run_begin, ls); x < std::min(run_end, le);
             ++x) {
          o[x - ls] = runs[r].value;
        }
        run_begin = run_end;
      }
    }
    pos = e;
  }
}

double CompressedInt64Column::EstimateSelectivity(CompareOp op,
                                                  int64_t k) const {
  if (num_rows_ == 0) return 1.0;
  double expected = 0;
  for (const Int64Block& b : blocks_) {
    switch (ClassifyCmp(b.min, b.max, op, k)) {
      case BlockVerdict::kNone:
        continue;
      case BlockVerdict::kAll:
        expected += b.rows;
        continue;
      case BlockVerdict::kSome:
        break;
    }
    if (b.codec == BlockCodec::kRle) {
      // Run headers give the exact match count.
      const RleRun* runs = runs_.data() + b.first_run;
      uint32_t run_begin = 0;
      for (uint32_t r = 0; r < b.num_runs; ++r) {
        if (MatchesI64(runs[r].value, op, k)) {
          expected += runs[r].end - run_begin;
        }
        run_begin = runs[r].end;
      }
    } else {
      expected += UniformSelectivityFraction(static_cast<double>(b.min),
                                             static_cast<double>(b.max), op,
                                             static_cast<double>(k)) *
                  static_cast<double>(b.rows);
    }
  }
  return std::clamp(expected / static_cast<double>(num_rows_), 0.0, 1.0);
}

Status CompressedInt64Column::Validate(
    const std::vector<int64_t>* data) const {
  size_t covered = 0;
  for (size_t bi = 0; bi < blocks_.size(); ++bi) {
    const Int64Block& b = blocks_[bi];
    const bool last = bi + 1 == blocks_.size();
    if (b.rows == 0 || b.rows > kCompressionBlockRows ||
        (!last && b.rows != kCompressionBlockRows)) {
      return Status::Internal("compressed column: block " +
                              std::to_string(bi) + " has bad row count " +
                              std::to_string(b.rows));
    }
    if (b.min > b.max) {
      return Status::Internal("compressed column: block " +
                              std::to_string(bi) + " has min > max");
    }
    if (b.codec == BlockCodec::kFor) {
      const uint64_t max_delta = DeltaOf(b.max, b.min);
      if (b.width > 64 || std::bit_width(max_delta) > b.width) {
        return Status::Internal("compressed column: block " +
                                std::to_string(bi) + " width " +
                                std::to_string(b.width) +
                                " cannot hold its delta range");
      }
      const size_t need =
          (static_cast<size_t>(b.rows) * b.width + 63) / 64 + 1;
      if (b.words + need > words_.size()) {
        return Status::Internal("compressed column: block " +
                                std::to_string(bi) +
                                " word range exceeds the pool");
      }
    } else {
      if (b.num_runs == 0 ||
          static_cast<size_t>(b.first_run) + b.num_runs > runs_.size()) {
        return Status::Internal("compressed column: block " +
                                std::to_string(bi) + " run range invalid");
      }
      uint32_t prev_end = 0;
      for (uint32_t r = 0; r < b.num_runs; ++r) {
        const RleRun& run = runs_[b.first_run + r];
        if (run.end <= prev_end || run.value < b.min || run.value > b.max) {
          return Status::Internal("compressed column: block " +
                                  std::to_string(bi) + " run " +
                                  std::to_string(r) + " malformed");
        }
        if (r > 0 && run.value == runs_[b.first_run + r - 1].value) {
          return Status::Internal("compressed column: block " +
                                  std::to_string(bi) +
                                  " adjacent runs share a value");
        }
        prev_end = run.end;
      }
      if (prev_end != b.rows) {
        return Status::Internal("compressed column: block " +
                                std::to_string(bi) +
                                " runs do not cover its rows");
      }
    }
    covered += b.rows;
  }
  if (covered != num_rows_) {
    return Status::Internal(
        "compressed column: blocks cover " + std::to_string(covered) +
        " rows, column has " + std::to_string(num_rows_));
  }
  if (data != nullptr) {
    if (data->size() != num_rows_) {
      return Status::Internal("compressed column: row count changed since "
                              "encode");
    }
    std::vector<int64_t> decoded(num_rows_);
    if (num_rows_ > 0) {
      Decode(0, static_cast<uint32_t>(num_rows_), decoded.data());
    }
    for (size_t i = 0; i < num_rows_; ++i) {
      if (decoded[i] != (*data)[i]) {
        return Status::Internal("compressed column: decode mismatch at row " +
                                std::to_string(i));
      }
    }
  }
  return Status::OK();
}

std::unique_ptr<CompressedInt64Column> CompressedInt64Column::Build(
    const ColumnVector& col) {
  // Doubles have no codec (yet), and strings are stored as dictionary codes
  // already: both scan their raw column.
  const CompressionPolicy policy = CompressionPolicyFromEnv();
  if (col.type() != DataType::kInt64 || policy == CompressionPolicy::kOff) {
    return nullptr;
  }
  auto out = std::make_unique<CompressedInt64Column>(Encode(col.int64_data()));
  if (policy == CompressionPolicy::kAdaptive &&
      out->compression_ratio() < 1.25) {
    return nullptr;  // not worth the extra copy; caller caches the miss
  }
  static Counter* blocks = Metrics().GetCounter(
      "exploredb_storage_compressed_blocks_total",
      "8192-row blocks encoded into a compressed representation");
  static Counter* bytes_raw = Metrics().GetCounter(
      "exploredb_storage_raw_bytes_total",
      "uncompressed bytes of columns given a compressed representation");
  static Counter* bytes_comp = Metrics().GetCounter(
      "exploredb_storage_compressed_bytes_total",
      "bytes of the compressed representations");
  blocks->Add(out->num_blocks());
  bytes_raw->Add(out->raw_bytes());
  bytes_comp->Add(out->compressed_bytes());
  return out;
}

}  // namespace exploredb
