#include "driver.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/annotations.h"
#include "common/mutex.h"

namespace perfbench {

using exploredb::QueryResult;
using exploredb::Result;
using exploredb::ServerSession;

namespace {

using Clock = std::chrono::steady_clock;

/// With several users' replies outstanding, a generator thread blocks on
/// the oldest and polls the others this often, so a reply may be seen up to
/// this late. A thread with one reply outstanding sees it at once.
constexpr int64_t kPollNs = 50'000;
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

Clock::time_point At(int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// Every key a client has submitted, across users: a cache hit on a key
/// not in it can only have been put there by speculation.
class IssuedKeys {
 public:
  bool SeenBefore(const std::string& key) EXCLUDES(mu_) {
    exploredb::MutexLock lock(mu_);
    return !keys_.insert(key).second;
  }

 private:
  exploredb::Mutex mu_;
  std::unordered_set<std::string> keys_ GUARDED_BY(mu_);
};

struct UserState {
  const User* user = nullptr;
  ServerSession* session = nullptr;
  uint32_t index = 0;
  size_t step = 0;
  int64_t due_ns = 0;
  // The outstanding request, if `reply` is valid.
  std::future<Result<QueryResult>> reply;
  int64_t submit_ns = 0;
  bool seen_before = false;

  const Request& current() const {
    return user->script[step % user->script.size()].request;
  }
  int64_t next_think_ns() const {
    return user->script[(step + 1) % user->script.size()].think_ns;
  }
};

struct ThreadOutput {
  std::vector<Completion> completions;
  std::vector<Span> spans;
  uint64_t attempted = 0;
};

/// The client span of one request, its lateness and server spans, and the
/// engine's returned queue and phase times as children laid end to end.
void RecordSpans(const Completion& c, uint32_t user, uint64_t* next_id,
                 std::vector<Span>* spans) {
  auto add = [&](uint64_t parent, const char* name, int64_t start,
                 int64_t end) {
    const uint64_t id = (*next_id)++;
    spans->push_back({id, parent, name, start, std::max(start, end), user});
    return id;
  };
  const exploredb::ExecStats& s = c.stats;
  const uint64_t client = add(0, "client", c.due_ns, c.resolved_ns);
  add(client, "driver.lateness", c.due_ns, c.submit_ns);
  const uint64_t request =
      add(client, "server.request", c.submit_ns, c.resolved_ns);
  const int64_t exec_start = c.submit_ns + s.queue_nanos;
  add(request, "server.queue", c.submit_ns, exec_start);
  const uint64_t exec =
      add(request, "executor.exec", exec_start, exec_start + s.total_nanos);
  int64_t t = exec_start;
  add(exec, "executor.plan", t, t + s.plan_nanos);
  t += s.plan_nanos;
  const int64_t select_start = t;
  const uint64_t select =
      add(exec, "executor.select", t, t + s.select_nanos);
  t += s.select_nanos;
  const int64_t aggregate_start = t;
  const uint64_t aggregate =
      add(exec, "executor.aggregate", t, t + s.aggregate_nanos);
  t += s.aggregate_nanos;
  add(exec, "executor.project", t, t + s.project_nanos);
  // Decompression is part of select or aggregate time, not a phase of its
  // own: it nests under the longer of the two.
  const bool in_select = s.select_nanos >= s.aggregate_nanos;
  const int64_t d_start = in_select ? select_start : aggregate_start;
  add(in_select ? select : aggregate, "executor.decompress", d_start,
      d_start + s.decompress_nanos);
}

/// Records the reply `u` was waiting for, and starts the user's think time.
void Complete(UserState* u, int64_t resolved_ns, const exploredb::Table& table,
              bool traced, uint64_t* next_id, ThreadOutput* out) {
  const Request& request = u->current();
  Completion c;
  c.due_ns = u->due_ns;
  c.submit_ns = u->submit_ns;
  c.resolved_ns = resolved_ns;
  c.budget_ns = request.EffectiveBudgetNs();
  Result<QueryResult> result = u->reply.get();
  c.ok = result.ok();
  if (c.ok) {
    const QueryResult& r = result.ValueOrDie();
    c.verdict = Verify(request, r, table);
    c.approximate = r.approximate;
    c.spec_hit = r.from_cache && !u->seen_before;
    c.stats = r.exec_stats;
  }
  if (traced) RecordSpans(c, u->index, next_id, &out->spans);
  out->completions.push_back(c);
  u->due_ns = resolved_ns + u->next_think_ns();
  ++u->step;
}

void Generate(const std::vector<UserState*>& users, int64_t end_ns,
              const exploredb::Table& table, IssuedKeys* issued, bool traced,
              uint64_t first_span_id, ThreadOutput* out) {
  uint64_t next_id = first_span_id;
  for (;;) {
    // Harvest replies.
    for (UserState* u : users) {
      if (u->reply.valid() && u->reply.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready) {
        Complete(u, NowNs(), table, traced, &next_id, out);
      }
    }

    // Submit every request that is due.
    const int64_t now = NowNs();
    for (UserState* u : users) {
      if (u->reply.valid() || u->due_ns > now || u->due_ns >= end_ns) continue;
      const Request& r = u->current();
      u->seen_before = issued->SeenBefore(r.key);
      u->submit_ns = NowNs();
      u->reply = u->session->Submit(r.query, r.MakeContext());
      ++out->attempted;
    }

    // Sleep until the next request is due or a reply arrives.
    int64_t next_due = kNever;
    UserState* oldest = nullptr;
    size_t outstanding = 0;
    for (UserState* u : users) {
      if (!u->reply.valid()) {
        if (u->due_ns < end_ns) next_due = std::min(next_due, u->due_ns);
        continue;
      }
      ++outstanding;
      if (oldest == nullptr || u->submit_ns < oldest->submit_ns) oldest = u;
    }
    if (oldest == nullptr) {
      if (next_due == kNever) return;
      std::this_thread::sleep_until(At(next_due));
      continue;
    }
    int64_t until = next_due;
    if (outstanding > 1) until = std::min(until, NowNs() + kPollNs);
    if (until == kNever) {
      oldest->reply.wait();
    } else {
      oldest->reply.wait_until(At(until));
    }
  }
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

DriveResult Drive(const Workload& workload,
                  const std::vector<ServerSession*>& sessions,
                  const exploredb::Table& table, int seconds, size_t threads,
                  bool traced) {
  DriveResult result;
  result.start_ns = NowNs();
  result.end_ns = result.start_ns + int64_t{seconds} * 1'000'000'000;
  std::vector<UserState> states(workload.users.size());
  for (size_t i = 0; i < states.size(); ++i) {
    states[i].user = &workload.users[i];
    states[i].session = sessions[i];
    states[i].index = static_cast<uint32_t>(i);
    states[i].due_ns =
        result.start_ns + states[i].user->script.front().think_ns;
  }

  IssuedKeys issued;
  std::vector<ThreadOutput> outputs(threads);
  std::vector<std::vector<UserState*>> assigned(threads);
  for (size_t i = 0; i < states.size(); ++i) {
    assigned[i % threads].push_back(&states[i]);
  }
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back(Generate, std::cref(assigned[t]), result.end_ns,
                           std::cref(table), &issued, traced,
                           (uint64_t{t} + 1) << 40, &outputs[t]);
    }
    for (std::thread& w : workers) w.join();
  }
  for (ThreadOutput& out : outputs) {
    result.attempted += out.attempted;
    result.completions.insert(result.completions.end(),
                              out.completions.begin(), out.completions.end());
    result.spans.insert(result.spans.end(), out.spans.begin(),
                        out.spans.end());
  }
  return result;
}

}  // namespace perfbench
