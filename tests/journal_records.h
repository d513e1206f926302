#ifndef EXPLOREDB_TESTS_JOURNAL_RECORDS_H_
#define EXPLOREDB_TESTS_JOURNAL_RECORDS_H_

// Test helpers: read a session's queries back from the workload journal's
// in-memory tail — the one per-query record (JournalRecord), filtered by
// Session::id().

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"

namespace exploredb {

/// Journals into the in-memory tail for the guard's lifetime.
class ScopedMemoryJournal {
 public:
  ScopedMemoryJournal() { WorkloadJournal::Global().EnableMemory(); }
  ~ScopedMemoryJournal() { WorkloadJournal::Global().Disable(); }
  ScopedMemoryJournal(const ScopedMemoryJournal&) = delete;
  ScopedMemoryJournal& operator=(const ScopedMemoryJournal&) = delete;
};

/// Flushes the journal and returns the records of session `sid` still in its
/// in-memory tail, in session order. The journal must have been enabled
/// (e.g. by a ScopedMemoryJournal) before the queries ran.
inline std::vector<JournalRecord> SessionJournal(uint64_t sid) {
  WorkloadJournal::Global().Flush();
  std::vector<JournalRecord> records;
  for (const std::string& line : WorkloadJournal::Global().Tail()) {
    Result<JournalRecord> record = WorkloadJournal::FromJsonLine(line);
    if (record.ok() && record.ValueOrDie().session_id == sid) {
      records.push_back(std::move(record).ValueOrDie());
    }
  }
  // Drain batches are only approximately seq-ordered (journal.h).
  std::sort(records.begin(), records.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.session_seq < b.session_seq;
            });
  return records;
}

}  // namespace exploredb

#endif  // EXPLOREDB_TESTS_JOURNAL_RECORDS_H_
