#ifndef EXPLOREDB_OBS_JOURNAL_H_
#define EXPLOREDB_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "engine/query.h"

namespace exploredb {

/// Always-on workload journal: every query a Session executes is appended as
/// one structured record — the query itself (structured form + canonical
/// text), how it was requested and how it actually ran (modes, planner
/// choice, budget, promised/achieved error, full ExecStats), when it arrived
/// (wall time) and how long the user "thought" since the session's previous
/// query, plus a fingerprint of the result for bit-identity checks on
/// replay. Records go into preallocated per-thread rings and a background
/// writer thread drains them to a JSONL file (one JSON object per line), so
/// the query thread never does I/O.
///
/// Cost model (the trace.cc discipline):
///  - Journal OFF (the default): the emission hook is one relaxed bool load.
///    No record is built, nothing allocates (journal_test pins this with a
///    counting allocator).
///  - Journal ON: the record copy (a Query + small strings) lands in the
///    calling thread's ring under a short lock; serialization and the fwrite
///    happen on the writer thread. A full ring drops the newest record and
///    counts it (exploredb_journal_dropped_total) — the query path is never
///    blocked on the journal.
///
/// Enablement: EXPLOREDB_JOURNAL=<path> at startup, or EnableFile() /
/// EnableMemory() at runtime. While enabled, a bounded in-memory tail of
/// rendered lines is also kept for the /querylog HTTP endpoint.

/// One journaled query execution. This is the replay contract: everything
/// tools/replay needs to re-execute the query (dataset provenance lives in
/// the file header) and verify the answer.
struct JournalRecord {
  // -- Provenance -----------------------------------------------------------
  uint64_t session_id = 0;   ///< process-unique session number
  uint64_t session_seq = 0;  ///< 0-based query index within the session
  uint64_t global_seq = 0;   ///< process-wide append order
  int64_t wall_time_us = 0;  ///< arrival, system_clock micros since epoch
  /// Nanoseconds between the session's previous query finishing and this one
  /// arriving (IDEBench think time); -1 on a session's first query.
  int64_t think_ns = -1;
  /// Tenant label of the issuing session (serving layer); empty for
  /// unlabeled sessions. Serialized only when non-empty, and tolerated as
  /// absent by FromJsonLine — pre-tenant journals stay readable.
  std::string tenant;

  // -- The query ------------------------------------------------------------
  Query query;             ///< structured form (replay re-executes this)
  std::string query_text;  ///< Query::CacheKey — canonical text

  // -- How it ran -----------------------------------------------------------
  ExecutionMode requested_mode = ExecutionMode::kScan;
  ExecutionMode resolved_mode = ExecutionMode::kScan;
  bool from_cache = false;
  bool approximate = false;
  int64_t budget_ns = 0;      ///< latency contract (0 = none / non-budgeted)
  double target_error = 0.0;  ///< contract target relative error
  /// Approximate-mode knobs, recorded so replay reconstructs the context.
  double sample_fraction = 0.0;
  double error_budget = 0.0;
  double confidence = 0.0;
  ExecStats stats;  ///< path, rows, morsels, planner provenance, phase nanos

  // -- The answer -----------------------------------------------------------
  /// FNV-1a 64 over the result payload (positions bytes, scalar bit
  /// pattern, group keys + value bit patterns). For exact answers this is a
  /// replayable bit-identity check; approximate answers record it for
  /// reference only.
  uint64_t result_fingerprint = 0;
  uint64_t result_rows = 0;  ///< positions (selections) or groups count
  std::optional<double> scalar;  ///< aggregate value, informational
};

/// Fingerprint of a result's payload — see JournalRecord::result_fingerprint.
uint64_t QueryResultFingerprint(const QueryResult& result);

/// Self-describing first line of a journal file: how to regenerate the
/// dataset the session ran against (tools/replay rebuilds it per thread).
struct JournalHeader {
  std::string dataset;  ///< generator name (e.g. "events")
  int64_t rows = 0;
  uint64_t seed = 0;
};

/// A parsed journal file: the optional header plus all query records, in
/// file order — which is only approximately global_seq order (each drain
/// batch is sorted, but a record can slip from one batch to the next);
/// re-sort by global_seq/session_seq when strict order matters. Event lines
/// (slo_breach etc.) are skipped.
struct JournalFile {
  std::optional<JournalHeader> header;
  std::vector<JournalRecord> records;
};

class WorkloadJournal {
 public:
  /// Per-thread ring capacity (records). The slot array is preallocated at
  /// ring creation; a drain keeps the capacity.
  static constexpr size_t kRingCapacity = 1024;
  /// In-memory tail of rendered JSONL lines kept for /querylog.
  static constexpr size_t kTailCapacity = 1024;

  static WorkloadJournal& Global();

  /// The emission fast path: one relaxed load, safe anywhere.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts journaling to `path` (truncating it), optionally writing a
  /// dataset header line first, and spawns the writer thread. An already
  /// enabled journal is flushed and disabled first.
  Status EnableFile(const std::string& path,
                    const std::optional<JournalHeader>& header = std::nullopt)
      EXCLUDES(mu_);

  /// Enables journaling into the in-memory tail only (no file) — how the
  /// HTTP exporter gets a live /querylog without touching disk.
  void EnableMemory() EXCLUDES(mu_);

  /// Drains everything, stops the writer thread, closes the file, and turns
  /// the emission hook back into a single load. Idempotent.
  void Disable() EXCLUDES(mu_);

  /// Blocks until every record appended before this call has been rendered
  /// (and written, when a file is attached). Must not be called while the
  /// writer is paused (SetWriterPausedForTest).
  void Flush() EXCLUDES(mu_);

  /// Appends one record (no-op unless enabled; callers on hot paths check
  /// enabled() first — see JournalQueryExecution). Never blocks on I/O: a
  /// full ring drops the record and counts it.
  void Append(JournalRecord record) EXCLUDES(mu_);

  /// Appends a pre-rendered event line (SLO breaches). Same ring/drop
  /// discipline as Append.
  void AppendEventLine(std::string json_line) EXCLUDES(mu_);

  /// Most recent rendered lines (oldest first, at most kTailCapacity).
  std::vector<std::string> Tail(size_t max_lines = kTailCapacity) const
      EXCLUDES(mu_);

  /// Records accepted into rings / dropped against full rings.
  uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Test hook: a paused writer never drains, so ring-wrap/backpressure
  /// behavior is deterministic. Unpause before Flush().
  void SetWriterPausedForTest(bool paused) EXCLUDES(mu_);

  // -- Serialization (stable JSONL format, see DESIGN.md §2h) ---------------
  static std::string ToJsonLine(const JournalRecord& record);
  static Result<JournalRecord> FromJsonLine(const std::string& line);
  static std::string HeaderJsonLine(const JournalHeader& header);
  /// Parses a whole journal file; unknown line types are skipped.
  static Result<JournalFile> ReadFile(const std::string& path);

 private:
  WorkloadJournal() = default;

  struct Item;
  struct ThreadRing;

  ThreadRing* LocalRing();
  /// Moves `item` into the calling thread's ring, or counts it as dropped
  /// when the ring is full.
  void Push(Item item);
  /// Drops any records still sitting in rings from a previous enablement
  /// (appended in the Append/Disable race window after the final drain), so
  /// they cannot leak stale seq/session context into the next journal.
  void DiscardPendingLocked() REQUIRES(mu_);
  void StartWriterLocked() REQUIRES(mu_);
  void WriterLoop();
  /// One drain pass: moves every ring's pending items out, renders them in
  /// global_seq order within the batch, appends to the file/tail. Runs on
  /// the writer thread (or inline from Disable after the writer stopped).
  /// Note the file is therefore only approximately seq-ordered overall: a
  /// record can land in a ring after that ring was visited but before the
  /// pass ends, so it is written in a later batch. Consumers needing strict
  /// order (tools/replay) re-sort by sequence after ReadFile.
  void DrainOnce();

  static std::atomic<bool> enabled_;

  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> next_seq_{0};

  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_ GUARDED_BY(mu_);
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  std::deque<std::string> tail_ GUARDED_BY(mu_);
  bool running_ GUARDED_BY(mu_) = false;
  bool paused_ GUARDED_BY(mu_) = false;
  uint64_t flush_requests_ GUARDED_BY(mu_) = 0;
  uint64_t flushes_done_ GUARDED_BY(mu_) = 0;
  CondVar cv_;
  // NOLINT-exploredb(guarded-by): spawned/joined only inside the
  // Enable*/Disable transitions, which serialize through mu_.
  std::thread writer_;
};

/// Everything Session::LogQuery passes to the journal, bundled as pointers
/// so the disabled path builds nothing.
struct JournalQueryInfo {
  uint64_t session_id = 0;
  uint64_t session_seq = 0;
  int64_t think_ns = -1;
  const Query* query = nullptr;
  /// Canonical query text (Query::CacheKey), computed by the caller — the
  /// journal library deliberately references no engine-library symbols.
  const std::string* query_text = nullptr;
  ExecutionMode requested_mode = ExecutionMode::kScan;
  int64_t budget_ns = 0;
  double target_error = 0.0;
  double sample_fraction = 0.0;
  double error_budget = 0.0;
  double confidence = 0.0;
  const QueryResult* result = nullptr;
  /// Tenant label of the issuing session; nullptr/empty means unlabeled.
  const std::string* tenant = nullptr;
};

/// The Session emission hook: checks WorkloadJournal::enabled() with one
/// relaxed load and returns immediately (no clock reads, no allocation) when
/// the journal is off; otherwise builds a JournalRecord from `info` and
/// appends it.
void JournalQueryExecution(const JournalQueryInfo& info);

}  // namespace exploredb

#endif  // EXPLOREDB_OBS_JOURNAL_H_
