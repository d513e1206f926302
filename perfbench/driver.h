// The closed-loop load generator: users wait for each reply, think, then
// submit their next request through their ServerSession. At most one
// generator thread per core multiplexes the users.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <vector>

#include "engine/query.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

/// One answered request, timed from the generator.
struct Completion {
  int64_t due_ns = 0;       ///< end of the user's think time
  int64_t submit_ns = 0;    ///< Submit called
  int64_t resolved_ns = 0;  ///< future seen resolved
  int64_t budget_ns = 0;
  bool ok = false;       ///< the engine returned an answer
  Verdict verdict;       ///< the answer against the oracle
  bool approximate = false;
  bool spec_hit = false;  ///< cache hit on a key no client had issued before
  exploredb::ExecStats stats;

  int64_t client_ns() const { return resolved_ns - due_ns; }
  bool within_budget() const {
    return verdict.accurate && client_ns() <= budget_ns;
  }
};

/// A span recorded by the driver: the client's view of one request, with
/// the engine's returned queue and phase times laid out as children.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t user = 0;
};

struct DriveResult {
  std::vector<Completion> completions;
  std::vector<Span> spans;  ///< empty unless traced
  uint64_t attempted = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< when users stopped starting interactions
};

/// Runs `workload`'s users (users[i] through sessions[i]) for `seconds`,
/// then waits for every outstanding reply.
DriveResult Drive(const Workload& workload,
                  const std::vector<exploredb::ServerSession*>& sessions,
                  const exploredb::Table& table, int seconds, size_t threads,
                  bool traced);

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
