// Serving-layer tests: SFQ scheduler fairness and admission control,
// cross-session synopsis sharing, queue-time accounting, bit-identity of
// concurrent execution against a serial reference, multi-session storms
// over shared epoch-published crackers (run with EXPLOREDB_VALIDATE=1 in CI's
// server-stress job to deep-validate every adaptive structure per query), and
// a table materialized while other sessions scan it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "cracking/updates.h"
#include "engine/database.h"
#include "engine/session.h"
#include "obs/journal.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "storage/csv.h"

namespace exploredb {
namespace {

// ------------------------------------------------------------- scheduler

TEST(SchedulerTest, WeightedFairInterleaving) {
  // One pool thread + cap 1 makes dispatch order fully deterministic: while
  // a gate task holds the only slot, queue three tasks each for tenants A
  // (weight 1) and B (weight 2), then release the gate and observe the SFQ
  // order. Finish tags: A = 1, 2, 3; B = 0.5, 1.0, 1.5 — ties go to the
  // earlier map key, so the expected order is B A B B A A.
  ThreadPool pool(1);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  SessionScheduler scheduler(options);
  scheduler.SetTenantWeight("B", 2);

  std::promise<void> gate_running;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  scheduler.Submit("gate", [&, release_future](int64_t) {
    gate_running.set_value();
    release_future.wait();
  });
  gate_running.get_future().wait();

  Mutex mu;
  std::vector<std::string> order;
  auto record = [&mu, &order](std::string who) {
    MutexLock lock(mu);
    order.push_back(std::move(who));
  };
  for (int i = 0; i < 3; ++i) {
    scheduler.Submit("A", [&record](int64_t) { record("A"); });
    scheduler.Submit("B", [&record](int64_t) { record("B"); });
  }
  EXPECT_EQ(scheduler.queue_depth(), 6u);

  release.set_value();
  scheduler.Drain();

  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<std::string>{"B", "A", "B", "B", "A", "A"}));
  EXPECT_EQ(scheduler.tenant_stats("A").completed, 3u);
  EXPECT_EQ(scheduler.tenant_stats("B").completed, 3u);
  EXPECT_EQ(scheduler.tenant_stats("B").weight, 2u);
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

TEST(SchedulerTest, ConcurrencyCapRespected) {
  ThreadPool pool(4);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 2;
  SessionScheduler scheduler(options);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 32; ++i) {
    scheduler.Submit("t" + std::to_string(i % 4), [&](int64_t) {
      const int now = running.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      running.fetch_sub(1);
    });
  }
  scheduler.Drain();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GT(peak.load(), 0);
}

TEST(SchedulerTest, QueueWaitMeasured) {
  // Cap 1: the second task must wait at least as long as the first runs.
  ThreadPool pool(2);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  SessionScheduler scheduler(options);

  std::atomic<int64_t> second_wait{-1};
  scheduler.Submit("t", [](int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  scheduler.Submit("t", [&second_wait](int64_t queue_ns) {
    second_wait.store(queue_ns);
  });
  scheduler.Drain();

  EXPECT_GE(second_wait.load(), 1'000'000);  // >= 1ms of the 2ms sleep
  const TenantSchedStats stats = scheduler.tenant_stats("t");
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GE(stats.queue_nanos_max, second_wait.load());
}

// ---------------------------------------------------------------- server

Schema EventsSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"latency_ms", DataType::kDouble}});
}

Table EventsTable(size_t rows, uint64_t seed) {
  Table t(EventsSchema());
  Random rng(seed);
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    t.mutable_column(0)->AppendInt64(static_cast<int64_t>(i));
    t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 9'999));
    t.mutable_column(2)->AppendDouble(5.0 + rng.NextDouble() * 95.0);
  }
  return t;
}

Query WindowQuery(const Schema& schema, int64_t lo, int64_t hi) {
  return Query::From("events")
      .WhereBetween("user_id", lo, hi)
      .Build(schema)
      .ValueOrDie();
}

Query CountQuery(const Schema& schema, int64_t lo, int64_t hi) {
  return Query::From("events")
      .WhereBetween("user_id", lo, hi)
      .Aggregate(AggKind::kCount)
      .Build(schema)
      .ValueOrDie();
}

TEST(ServerTest, SharedCacheServesAcrossSessions) {
  Database db;
  ASSERT_TRUE(db.CreateTable("events", EventsTable(20'000, 7)).ok());
  const Schema schema = EventsSchema();
  ExplorationServer server(&db);
  ServerSession* alice = server.OpenSession("alice");
  ServerSession* bob = server.OpenSession("bob");
  ASSERT_EQ(server.session_count(), 2u);

  const Query q = WindowQuery(schema, 1'000, 2'000);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;

  auto first = alice->Execute(q, cracking);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.ValueOrDie().from_cache);

  // Bob's identical window is a cross-session hit on the shared cache, with
  // the bit-identical position list.
  auto second = bob->Execute(q, cracking);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.ValueOrDie().from_cache);
  EXPECT_EQ(second.ValueOrDie().positions, first.ValueOrDie().positions);
  EXPECT_EQ(bob->session().stats().cache_hits, 1u);
  EXPECT_GE(server.shared_cache().stats().hits, 1u);
}

TEST(ServerTest, QueueWaitSurfacesInExecStats) {
  Database db;
  ASSERT_TRUE(db.CreateTable("events", EventsTable(50'000, 7)).ok());
  const Schema schema = EventsSchema();
  ThreadPool pool(2);
  ServerOptions options;
  options.max_concurrent = 1;
  options.pool = &pool;
  ExplorationServer server(&db, options);
  ServerSession* a = server.OpenSession("a");
  ServerSession* b = server.OpenSession("b");

  // Two submissions against a single slot: whichever runs second carries a
  // nonzero fair-queue wait in its ExecStats.
  auto fa = a->Submit(CountQuery(schema, 0, 10'000));
  auto fb = b->Submit(CountQuery(schema, 0, 5'000));
  auto ra = fa.get();
  auto rb = fb.get();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  const int64_t max_queue = std::max(ra.ValueOrDie().exec_stats.queue_nanos,
                                     rb.ValueOrDie().exec_stats.queue_nanos);
  EXPECT_GT(max_queue, 0);
  server.Drain();
}

// Fingerprints of a workload executed serially on a private database.
std::vector<uint64_t> SerialFingerprints(const std::vector<Query>& workload) {
  Database db;
  EXPECT_TRUE(db.CreateTable("events", EventsTable(20'000, 7)).ok());
  Session session(&db);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  std::vector<uint64_t> fps;
  for (const Query& q : workload) {
    auto r = session.Execute(q, cracking);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    fps.push_back(QueryResultFingerprint(r.ValueOrDie()));
  }
  return fps;
}

TEST(ServerTest, ConcurrentExecutionBitIdenticalToSerial) {
  // Four sessions interleave their windows over ONE shared database (shared
  // crackers, shared cache) at scheduler caps 1, 2, and 8; every result must
  // fingerprint-match the serial single-session reference. This holds
  // because exact answers are independent of physical crack state — the
  // executor sorts candidate positions — and cache hits return the
  // bit-identical stored list.
  const Schema schema = EventsSchema();
  std::vector<Query> workload;
  for (int64_t lo = 0; lo < 10'000; lo += 500) {
    workload.push_back(WindowQuery(schema, lo, lo + 700));
    workload.push_back(CountQuery(schema, lo / 2, lo / 2 + 1'000));
  }
  const std::vector<uint64_t> want = SerialFingerprints(workload);

  for (size_t cap : {1u, 2u, 8u}) {
    Database db;
    ASSERT_TRUE(db.CreateTable("events", EventsTable(20'000, 7)).ok());
    ThreadPool pool(4);
    ServerOptions options;
    options.max_concurrent = cap;
    options.pool = &pool;
    ExplorationServer server(&db, options);

    constexpr size_t kSessions = 4;
    std::vector<ServerSession*> sessions;
    for (size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(server.OpenSession("tenant-" + std::to_string(s)));
    }
    std::vector<std::vector<std::pair<size_t, uint64_t>>> got(kSessions);
    std::vector<std::thread> drivers;
    for (size_t s = 0; s < kSessions; ++s) {
      drivers.emplace_back([&, s] {
        ExecContext cracking;
        cracking.options().mode = ExecutionMode::kCracking;
        // Strided assignment: sessions contend on overlapping crack ranges.
        for (size_t i = s; i < workload.size(); i += kSessions) {
          auto r = sessions[s]->Execute(workload[i], cracking);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          got[s].push_back({i, QueryResultFingerprint(r.ValueOrDie())});
        }
      });
    }
    for (std::thread& d : drivers) d.join();
    server.Drain();

    for (size_t s = 0; s < kSessions; ++s) {
      for (const auto& [i, fp] : got[s]) {
        EXPECT_EQ(fp, want[i]) << "cap=" << cap << " query#" << i;
      }
    }
  }
}

// --------------------------------------------------------------- stress

TEST(ServerStressTest, MultiSessionStorm) {
  // >= 8 concurrent sessions over one database: cracking point lookups +
  // window counts + budgeted aggregates + shared-cache revisits, all while
  // the crackers reorganize under epochs. Afterwards every adaptive
  // structure must deep-validate and spot answers must match an oracle.
  // (Runs TSan-clean; CI's server-stress job also sets EXPLOREDB_VALIDATE=1
  // so every query revalidates the structures it touched.)
  Database db;
  const size_t kRows = 30'000;
  ASSERT_TRUE(db.CreateTable("events", EventsTable(kRows, 11)).ok());
  const Schema schema = EventsSchema();
  ThreadPool pool(4);
  ServerOptions options;
  options.pool = &pool;
  options.max_concurrent = 8;
  ExplorationServer server(&db, options);

  constexpr size_t kSessions = 8;
  std::vector<ServerSession*> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(server.OpenSession("storm-" + std::to_string(s)));
  }
  std::vector<std::thread> drivers;
  std::atomic<uint64_t> executed{0};
  for (size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&, s] {
      Random rng(1'000 + s);
      ExecContext cracking;
      cracking.options().mode = ExecutionMode::kCracking;
      for (int step = 0; step < 40; ++step) {
        const int kind = static_cast<int>(rng.Uniform(4));
        if (kind == 0) {
          // Point lookup on the clustered column (ts = row number).
          const int64_t ts = rng.UniformInt(0, static_cast<int64_t>(kRows) - 1);
          auto point = Query::From("events")
                           .WhereBetween("ts", ts, ts + 1)
                           .Build(schema)
                           .ValueOrDie();
          auto pr = sessions[s]->Execute(point, cracking);
          ASSERT_TRUE(pr.ok());
          ASSERT_EQ(pr.ValueOrDie().positions.size(), 1u);
        } else if (kind == 1) {
          const int64_t lo = rng.UniformInt(0, 9'000);
          auto r = sessions[s]->Execute(
              CountQuery(schema, lo, lo + rng.UniformInt(1, 1'000)),
              cracking);
          ASSERT_TRUE(r.ok());
        } else if (kind == 2) {
          // Budgeted aggregate (may resolve approximate — that's the point).
          ExecContext budgeted;
          budgeted.SetBudget({std::chrono::milliseconds(20), 0.05, 0.95});
          auto q = Query::From("events")
                       .WhereBetween("user_id", int64_t{0}, int64_t{5'000})
                       .Aggregate(AggKind::kAvg, "latency_ms")
                       .Build(schema)
                       .ValueOrDie();
          auto r = sessions[s]->Execute(q, budgeted);
          ASSERT_TRUE(r.ok());
        } else {
          // Shared-cache revisit: every session issues this same window.
          auto r = sessions[s]->Execute(WindowQuery(schema, 4'000, 4'200),
                                        cracking);
          ASSERT_TRUE(r.ok());
        }
        executed.fetch_add(1);
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  server.Drain();
  EXPECT_EQ(executed.load(), kSessions * 40);

  // Deep validation of every adaptive structure the storm grew.
  TableEntry* entry = db.GetTable("events").ValueOrDie();
  ASSERT_TRUE(entry->ValidateAdaptiveState().ok());

  // Oracle spot check: cracked count vs direct column scan.
  const ColumnVector* user_id = entry->GetColumn(1).ValueOrDie();
  size_t oracle = 0;
  for (int64_t v : user_id->int64_data()) {
    oracle += (v >= 4'000 && v < 4'200);
  }
  Session checker(&db);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  auto check = checker.Execute(WindowQuery(schema, 4'000, 4'200), cracking);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.ValueOrDie().positions.size(), oracle);
}

TEST(ServerStressTest, AdaptiveStructuresBuildOnceUnderRace) {
  // 8 racers ask for every adaptive structure on every cold column of a
  // fresh database at once, while a validator walks the published ones. For
  // each (kind, column) every racer must get the same instance, built
  // exactly once; a structure the column's type cannot carry is an
  // InvalidArgument every time and is never built. (Run under TSan, a
  // publish that is not a release store shows up here as a race.)
  enum Kind { kCracker, kSortedIndex, kZoneMap, kCompressed, kKinds };
  constexpr size_t kColumns = 4;  // int64, int64, double, string
  // Which (kind, column) pairs succeed: int64-only crackers and sorted
  // indexes, numeric zone maps, and compressed for every column (a double's
  // and a string's are the cached nullptr verdict). A string column's
  // dictionary is no adaptive structure: the column fills it on append.
  constexpr bool kBuildable[kKinds][kColumns] = {{true, true, false, false},
                                                 {true, true, false, false},
                                                 {true, true, true, false},
                                                 {true, true, true, true}};
  constexpr uint64_t kStructures = 2 + 2 + 3 + 4;
  constexpr int kRacers = 8;
  constexpr int kValidatorPasses = 20;
  Counter* builds = Metrics().GetCounter("exploredb_synopsis_builds_total");

  for (uint64_t round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    Table t(Schema({{"ts", DataType::kInt64},
                    {"user_id", DataType::kInt64},
                    {"latency_ms", DataType::kDouble},
                    {"carrier", DataType::kString}}));
    Random rng(40 + round);
    for (int64_t i = 0; i < 20'000; ++i) {
      t.mutable_column(0)->AppendInt64(i);
      t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 9'999));
      t.mutable_column(2)->AppendDouble(rng.NextDouble() * 100.0);
      t.mutable_column(3)->AppendString("c" +
                                        std::to_string(rng.Uniform(12)));
    }
    Database db;
    ASSERT_TRUE(db.CreateTable("events", std::move(t)).ok());
    TableEntry* entry = db.GetTable("events").ValueOrDie();
    const uint64_t builds_before = builds->Value();

    // got[racer][kind][column]: the instance returned, nullptr on an error.
    std::vector<std::array<std::array<const void*, kColumns>, kKinds>> got(
        kRacers);
    std::atomic<int> wrong_status{0};
    std::atomic<int> invalid_passes{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int r = 0; r < kRacers; ++r) {
      threads.emplace_back([&, r] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Rotated visiting orders, so different racers lead on different
        // slots.
        for (int k = 0; k < kKinds; ++k) {
          const int kind = (k + r) % kKinds;
          for (size_t c = 0; c < kColumns; ++c) {
            const size_t col = (c + static_cast<size_t>(r)) % kColumns;
            Status st;
            const void* ptr = nullptr;
            auto take = [&](auto result) {
              st = result.status();
              if (result.ok()) ptr = result.ValueOrDie();
            };
            switch (kind) {
              case kCracker:
                take(entry->GetCracker(col));
                break;
              case kSortedIndex:
                take(entry->GetSortedIndex(col));
                break;
              case kZoneMap:
                take(entry->GetZoneMap(col));
                break;
              default:
                take(entry->GetCompressed(col));
                break;
            }
            const bool want_ok = kBuildable[kind][col];
            if (want_ok ? !st.ok()
                        : st.code() != StatusCode::kInvalidArgument) {
              wrong_status.fetch_add(1);
            }
            got[r][kind][col] = ptr;
          }
        }
      });
    }
    std::thread validator([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int pass = 0; pass < kValidatorPasses; ++pass) {
        if (!entry->ValidateAdaptiveState().ok()) invalid_passes.fetch_add(1);
      }
    });
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    validator.join();

    EXPECT_EQ(wrong_status.load(), 0);
    EXPECT_EQ(invalid_passes.load(), 0);
    EXPECT_EQ(builds->Value() - builds_before, kStructures);
    for (int kind = 0; kind < kKinds; ++kind) {
      for (size_t col = 0; col < kColumns; ++col) {
        for (int r = 1; r < kRacers; ++r) {
          EXPECT_EQ(got[r][kind][col], got[0][kind][col])
              << "kind=" << kind << " column=" << col << " racer=" << r;
        }
      }
    }
    // The racers' instances are the published ones; neither a double nor a
    // string has a compressed form.
    EXPECT_EQ(got[0][kCracker][1], entry->GetCracker(1).ValueOrDie());
    EXPECT_EQ(got[0][kZoneMap][2], entry->GetZoneMap(2).ValueOrDie());
    EXPECT_EQ(got[0][kCompressed][2], nullptr);
    EXPECT_EQ(got[0][kCompressed][3], nullptr);
    EXPECT_TRUE(entry->ValidateAdaptiveState().ok());
    EXPECT_EQ(builds->Value() - builds_before, kStructures);
  }
}

TEST(ServerStressTest, MaterializedWhileQueriesRun) {
  // One session loops exact COUNTs over a CSV-registered table while another
  // asks for view recommendations, which materialize the table. Building the
  // materialized copy must not free the raw columns the running scans read
  // (under TSan, a free of a column another thread still reads shows up as
  // a race), and every COUNT keeps its answer.
  const std::string path =
      ::testing::TempDir() + "/exploredb_server_materialized.csv";
  ASSERT_TRUE(WriteCsv(EventsTable(20'000, 23), path).ok());
  Database db;
  ASSERT_TRUE(db.RegisterCsv("events", path, EventsSchema()).ok());
  const Schema schema = EventsSchema();
  const Query count = CountQuery(schema, 1'000, 6'000);
  Session counter(&db);
  Session recommender(&db);
  ExecContext scan;
  scan.SetMode(ExecutionMode::kScan);
  const double want =
      counter.Execute(count, scan).ValueOrDie().scalar->value;
  ASSERT_TRUE(recommender.Execute(count, scan).ok());

  std::atomic<bool> recommended{false};
  std::thread views([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Result<SeeDbReport> report =
        recommender.RecommendViews({{1, 2, AggKind::kAvg}}, 1);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    recommended.store(true);
  });
  int after = 0;
  for (int i = 0; i < 5'000 && after < 50; ++i) {
    Result<QueryResult> r = counter.Execute(count, scan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().scalar->value, want);
    if (recommended.load()) ++after;
  }
  views.join();
  EXPECT_TRUE(recommended.load());
  std::remove(path.c_str());
}

TEST(EpochCrackerStressTest, ConcurrentReadsDuringCracking) {
  // Hammer one EpochCrackerColumn from 8 threads with random ranges; every
  // count must match the sorted oracle, converged reads must take the
  // shared-lock path, and the final layout must validate against the
  // original data.
  std::vector<int64_t> values;
  Random seed_rng(99);
  for (int i = 0; i < 20'000; ++i) values.push_back(seed_rng.UniformInt(0, 9'999));
  const std::vector<int64_t> original = values;
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  auto oracle_count = [&sorted](int64_t lo, int64_t hi) -> size_t {
    return static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), hi) -
        std::lower_bound(sorted.begin(), sorted.end(), lo));
  };

  EpochCrackerColumn column(std::move(values));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Random rng(500 + t);
      std::vector<uint32_t> out;
      for (int i = 0; i < 300; ++i) {
        const int64_t lo = rng.UniformInt(0, 9'000);
        const int64_t hi = lo + rng.UniformInt(1, 1'000);
        out.clear();
        EpochCrackerColumn::ReadStats rs =
            column.RangeSelectInto(lo, hi, &out);
        ASSERT_EQ(out.size(), oracle_count(lo, hi))
            << "thread=" << t << " lo=" << lo << " hi=" << hi
            << " epoch=" << rs.epoch;
        // Row ids must dereference back into the range.
        for (uint32_t pos : out) {
          ASSERT_GE(original[pos], lo);
          ASSERT_LT(original[pos], hi);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(column.Validate(&original).ok());
  EXPECT_GT(column.epoch(), 0u);          // cracking published new layouts
  EXPECT_GT(column.shared_reads(), 0u);   // converged reads shared the lock
  EXPECT_GT(column.exclusive_cracks(), 0u);
}

}  // namespace
}  // namespace exploredb
