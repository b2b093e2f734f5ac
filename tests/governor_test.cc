// Query lifecycle governance (DESIGN.md §13): unit tests for the
// governor primitives (MemoryBudget, CancellationToken, Deadline,
// AdmissionGate) and end-to-end engine tests for deadlines, kill,
// memory budgets, result-row caps, and admission control — including
// the pinned acceptance bound: a 50 ms deadline against the ~800 ms
// qty_lt theta-join workload must return kDeadlineExceeded promptly.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/governor.h"
#include "index/corpus.h"
#include "workload/xmark.h"

namespace rox {
namespace {

// Sanitizer builds run several times slower; timing bounds relax so the
// tests pin behavior, not the sanitizer's overhead.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ROX_SANITIZER_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ROX_SANITIZER_BUILD 1
#endif
#endif
#ifdef ROX_SANITIZER_BUILD
constexpr double kDeadlineReturnBoundMs = 1500;
#else
constexpr double kDeadlineReturnBoundMs = 150;
#endif

// Total user+system CPU consumed by this process, for load-immune
// latency bounds (a starved process accrues wall time but not CPU).
double ProcessCpuMillis() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

// --- MemoryBudget ----------------------------------------------------------------

TEST(MemoryBudgetTest, LatchesOnceOverLimit) {
  MemoryBudget b(100);
  b.Charge(60);
  EXPECT_FALSE(b.Exceeded());
  EXPECT_EQ(b.used(), 60u);
  b.Charge(60);
  EXPECT_TRUE(b.Exceeded());
  EXPECT_EQ(b.used(), 120u);
  // The latch is sticky: later charges never clear it.
  b.Charge(1);
  EXPECT_TRUE(b.Exceeded());
}

TEST(MemoryBudgetTest, UnlimitedBudgetMetersButNeverLatches) {
  MemoryBudget b;  // limit 0
  b.Charge(uint64_t{1} << 40);
  EXPECT_FALSE(b.Exceeded());
  EXPECT_EQ(b.used(), uint64_t{1} << 40);
}

// --- CancellationToken -----------------------------------------------------------

TEST(CancellationTokenTest, StartsClean) {
  CancellationToken t;
  EXPECT_FALSE(t.StopRequested());
  EXPECT_EQ(t.TripReason(), StatusCode::kOk);
  EXPECT_TRUE(t.Check().ok());
  EXPECT_FALSE(StopRequested(nullptr));  // null token never stops
}

TEST(CancellationTokenTest, CancelTripsWithLatchedReason) {
  CancellationToken t;
  t.Cancel();
  EXPECT_TRUE(t.StopRequested());
  EXPECT_EQ(t.TripReason(), StatusCode::kCancelled);
  EXPECT_EQ(t.Check().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, DeadlineTrips) {
  CancellationToken t;
  t.ArmDeadline(Deadline::AfterMillis(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(t.StopRequested());
  EXPECT_EQ(t.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, BudgetLatchTrips) {
  MemoryBudget b(10);
  CancellationToken t;
  t.set_budget(&b);
  EXPECT_FALSE(t.StopRequested());
  b.Charge(11);
  EXPECT_TRUE(t.StopRequested());
  EXPECT_EQ(t.Check().code(), StatusCode::kResourceExhausted);
}

TEST(CancellationTokenTest, FirstReasonWinsOverLaterTrips) {
  // A query killed *and* past deadline must report one stable code:
  // the first reason observed.
  CancellationToken t;
  t.Cancel();
  EXPECT_TRUE(t.StopRequested());  // latches kCancelled
  t.ArmDeadline(Deadline::AfterMillis(-1));  // already expired
  EXPECT_TRUE(t.StopRequested());
  EXPECT_EQ(t.TripReason(), StatusCode::kCancelled);
}

// --- Deadline --------------------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1e100);
}

TEST(DeadlineTest, AfterMillisExpires) {
  Deadline d = Deadline::AfterMillis(5);
  EXPECT_FALSE(d.IsInfinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.Remaining().count(), 0);
}

TEST(DeadlineTest, AfterMillisSaturates) {
  // Past the clock's range (10^13 ms overflows int64 nanoseconds; 2^64
  // ms does not fit int64 at all) a deadline never expires.
  EXPECT_TRUE(Deadline::AfterMillis(1e13).IsInfinite());
  EXPECT_TRUE(Deadline::AfterMillis(18446744073709551615.0).IsInfinite());
  EXPECT_TRUE(Deadline::AfterMillis(std::nan("")).IsInfinite());
  // Below 1 ms it has already lapsed, however negative.
  EXPECT_TRUE(Deadline::AfterMillis(0.5).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-1e30).Expired());
  // A day is an ordinary deadline.
  Deadline day = Deadline::AfterMillis(86400000);
  EXPECT_FALSE(day.IsInfinite());
  EXPECT_FALSE(day.Expired());
}

// --- AdmissionGate ---------------------------------------------------------------

TEST(AdmissionGateTest, AdmitsUpToCap) {
  AdmissionGate gate(2, 4);
  auto t1 = gate.Admit(Deadline::Infinite());
  auto t2 = gate.Admit(Deadline::Infinite());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(gate.running(), 2u);
  EXPECT_EQ(gate.queued(), 0u);
}

TEST(AdmissionGateTest, ShedsWhenQueueFull) {
  // Cap 1, queue 0: with one ticket held, the next Admit sheds
  // immediately — it never blocks behind the running query.
  AdmissionGate gate(1, 0);
  auto held = gate.Admit(Deadline::Infinite());
  ASSERT_TRUE(held.ok());
  auto refused = gate.Admit(Deadline::Infinite());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.shed_count(), 1u);
}

TEST(AdmissionGateTest, QueuedWaiterAdmittedWhenSlotFrees) {
  AdmissionGate gate(1, 2);
  auto held = gate.Admit(Deadline::Infinite());
  ASSERT_TRUE(held.ok());
  std::promise<bool> admitted;
  std::thread waiter([&]() {
    auto t = gate.Admit(Deadline::Infinite());
    admitted.set_value(t.ok());
  });
  // Give the waiter time to enqueue, then free the slot.
  while (gate.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gate.peak_queued(), 1u);
  *held = AdmissionGate::Ticket();  // drop the ticket; slot frees
  auto fut = admitted.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(fut.get());
  waiter.join();
}

TEST(AdmissionGateTest, DeadlineLapsesWhileQueued) {
  AdmissionGate gate(1, 2);
  auto held = gate.Admit(Deadline::Infinite());
  ASSERT_TRUE(held.ok());
  auto timed_out = gate.Admit(Deadline::AfterMillis(20));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.queued(), 0u);  // the waiter left the queue
}

// --- engine end-to-end -----------------------------------------------------------

// One shared XMark corpus for all engine tests (the qty_lt theta join
// over it runs long enough — hundreds of ms — that deadlines and kills
// land mid-flight deterministically). Engines share it via the
// shared_ptr constructor, so each test gets private cache/stats.
class GovernedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto corpus = std::make_unique<Corpus>();
    XmarkGenOptions gen;
    gen.items = static_cast<uint32_t>(4350 * 0.15);
    gen.persons = static_cast<uint32_t>(5100 * 0.15);
    gen.open_auctions = static_cast<uint32_t>(2400 * 0.15);
    ASSERT_TRUE(GenerateXmarkDocument(*corpus, gen).ok());
    shared_corpus_ =
        new std::shared_ptr<const Corpus>(std::move(corpus));
  }
  static void TearDownTestSuite() {
    delete shared_corpus_;
    shared_corpus_ = nullptr;
  }

  static std::shared_ptr<const Corpus> corpus() { return *shared_corpus_; }

  // The ~800 ms (full scale, release build) theta-join workload from
  // BENCH_theta_joins.json.
  static std::string SlowQuery() {
    return XmarkQuantityIncreaseQuery(CmpOp::kLt, 1);
  }
  static std::string FastQuery() {
    return R"(for $p in doc("xmark.xml")//person return $p)";
  }

 private:
  static std::shared_ptr<const Corpus>* shared_corpus_;
};

std::shared_ptr<const Corpus>* GovernedEngineTest::shared_corpus_ = nullptr;

// The pinned acceptance bound: 50 ms deadline against the qty_lt
// theta join returns kDeadlineExceeded promptly — the amortized kernel
// polls bound the undetected-work window well under the query's
// remaining runtime.
TEST_F(GovernedEngineTest, DeadlineBoundsThetaJoinPinned) {
  engine::Engine eng(corpus(), {});
  QueryLimits limits;
  limits.deadline_ms = 50;
  // The bound asserts the engine's unwind latency, not the CI
  // runner's scheduler. Wall time is the primary check; when a
  // parallel ctest run starves this process of cores, the process CPU
  // time of the governed run is the load-immune fallback — other test
  // processes cannot inflate it, while a genuinely slow unwind
  // (amortized polls too coarse, work continuing past the deadline)
  // blows through both on every attempt.
  constexpr int kAttempts = 3;
  double best_wall = 1e300;
  double best_cpu = 1e300;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const double cpu_before = ProcessCpuMillis();
    StopWatch watch;
    engine::QueryResult r = eng.Run(SlowQuery(), limits);
    best_wall = std::min(best_wall, watch.ElapsedMillis());
    best_cpu = std::min(best_cpu, ProcessCpuMillis() - cpu_before);
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << r.status.ToString();
    if (best_wall <= kDeadlineReturnBoundMs) break;
  }
  EXPECT_TRUE(best_wall <= kDeadlineReturnBoundMs ||
              best_cpu <= kDeadlineReturnBoundMs)
      << "deadline trip took " << best_wall << " ms wall / " << best_cpu
      << " ms cpu to unwind (best of " << kAttempts << ")";
  // Stats classified every attempt, and the engine survived intact:
  // the same query without a deadline completes on the same engine.
  engine::EngineStats stats = eng.Stats();
  EXPECT_GE(stats.queries_deadline_exceeded, 1u);
  EXPECT_EQ(stats.queries_deadline_exceeded, stats.failed);
  engine::QueryResult full = eng.Run(SlowQuery());
  ASSERT_TRUE(full.ok()) << full.status.ToString();
  EXPECT_GT(full.items->size(), 0u);
}

TEST_F(GovernedEngineTest, KillCancelsInFlightQuery) {
  engine::Engine eng(corpus(), {});
  std::future<engine::QueryResult> fut = eng.Submit(SlowQuery());
  // Let it get into execution, then kill everything in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  size_t killed = eng.KillAll();
  EXPECT_GE(killed, 1u);
  engine::QueryResult r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status.ToString();
  EXPECT_EQ(eng.Stats().queries_cancelled, 1u);
  // Kill of an unknown sequence is a clean no-op that says so.
  EXPECT_EQ(eng.Kill(123456789).code(), StatusCode::kNotFound);
}

TEST_F(GovernedEngineTest, KillReportsNotFoundForCompletedQuery) {
  engine::Engine eng(corpus(), {});
  engine::QueryResult done = eng.Run(FastQuery());
  ASSERT_TRUE(done.ok()) << done.status.ToString();
  // The query finished: its sequence is no longer in flight, and a
  // late Kill (a client disconnecting after the response was built)
  // must be distinguishable from killing a live query.
  Status late = eng.Kill(done.sequence);
  EXPECT_EQ(late.code(), StatusCode::kNotFound) << late.ToString();
  // Nothing was cancelled by the late kill.
  EXPECT_EQ(eng.Stats().queries_cancelled, 0u);

  // Contrast: a kill that lands while the query is active returns Ok
  // (covered above); an unknown-but-never-issued sequence is the same
  // not-found as a completed one — callers cannot tell them apart,
  // which is exactly the contract the server needs for idempotent
  // disconnect handling.
  EXPECT_EQ(eng.Kill(done.sequence + 1000).code(), StatusCode::kNotFound);
}

TEST_F(GovernedEngineTest, DeadlineCoversDispatchQueueWait) {
  // One pool thread: the slow query occupies it, so the governed fast
  // query sits in the dispatch queue well past its deadline. The
  // deadline must cover that wait — a backlogged pool must not
  // silently extend every deadline by its queue depth.
  engine::EngineOptions opts;
  opts.num_threads = 1;
  engine::Engine eng(corpus(), opts);

  engine::QueryRequest blocker;
  blocker.text = SlowQuery();
  std::future<engine::QueryResponse> slow =
      eng.ExecuteAsync(std::move(blocker));

  engine::QueryRequest governed;
  governed.text = FastQuery();
  QueryLimits limits;
  limits.deadline_ms = 1;  // lapses while queued behind the blocker
  governed.limits = limits;
  engine::QueryResponse fast =
      eng.ExecuteAsync(std::move(governed)).get();
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status.code(), StatusCode::kDeadlineExceeded)
      << fast.status.ToString();

  engine::QueryResponse done = slow.get();
  EXPECT_TRUE(done.ok()) << done.status.ToString();
}

TEST_F(GovernedEngineTest, MemoryBudgetTripsAndIsMetered) {
  engine::Engine eng(corpus(), {});
  QueryLimits limits;
  limits.memory_budget_bytes = 1;  // any arena block latches
  engine::QueryResult r = eng.Run(SlowQuery(), limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
      << r.status.ToString();
  EXPECT_GT(r.memory_bytes, 0u);
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.queries_budget_exceeded, 1u);
  EXPECT_GT(stats.peak_query_memory_bytes, 0u);
}

TEST_F(GovernedEngineTest, MaxResultRowsCapsFreshAndReplayedResults) {
  engine::Engine eng(corpus(), {});
  // Uncapped run: completes and memoizes the result.
  engine::QueryResult full = eng.Run(FastQuery());
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.items->size(), 1u);

  QueryLimits limits;
  limits.max_result_rows = 1;
  // The replay path enforces the cap without re-running...
  engine::QueryResult replay = eng.Run(FastQuery(), limits);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status.code(), StatusCode::kResourceExhausted);
  // ...and a fresh execution enforces it too.
  engine::EngineOptions no_cache;
  no_cache.enable_cache = false;
  engine::Engine eng2(corpus(), no_cache);
  engine::QueryResult fresh = eng2.Run(FastQuery(), limits);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status.code(), StatusCode::kResourceExhausted);
  // A cap the result fits under passes.
  limits.max_result_rows = full.items->size();
  engine::QueryResult fits = eng.Run(FastQuery(), limits);
  ASSERT_TRUE(fits.ok()) << fits.status.ToString();
}

TEST_F(GovernedEngineTest, AdmissionGateShedsExcessLoad) {
  engine::EngineOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued_queries = 0;
  engine::Engine eng(corpus(), opts);
  std::future<engine::QueryResult> slow = eng.Submit(SlowQuery());
  // Wait until the slow query actually occupies the slot.
  while (eng.Stats().admission_running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine::QueryResult refused = eng.Run(FastQuery());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted)
      << refused.status.ToString();
  eng.KillAll();
  (void)slow.get();
  engine::EngineStats stats = eng.Stats();
  EXPECT_GE(stats.queries_shed, 1u);
}

TEST_F(GovernedEngineTest, GenerousLimitsDoNotChangeResults) {
  engine::EngineOptions no_cache;
  no_cache.enable_cache = false;
  engine::Engine eng(corpus(), no_cache);
  engine::QueryResult unlimited = eng.Run(FastQuery());
  ASSERT_TRUE(unlimited.ok());
  QueryLimits generous;
  generous.deadline_ms = 600000;
  generous.memory_budget_bytes = uint64_t{8} << 30;
  generous.max_result_rows = 1u << 30;
  engine::QueryResult governed = eng.Run(FastQuery(), generous);
  ASSERT_TRUE(governed.ok()) << governed.status.ToString();
  EXPECT_EQ(*governed.items, *unlimited.items);
}

TEST_F(GovernedEngineTest, DefaultLimitsApplyToEveryQuery) {
  engine::EngineOptions opts;
  opts.default_limits.deadline_ms = 50;
  engine::Engine eng(corpus(), opts);
  engine::QueryResult r = eng.Run(SlowQuery());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  // Per-query limits override the default.
  QueryLimits none;
  engine::QueryResult full = eng.Run(SlowQuery(), none);
  ASSERT_TRUE(full.ok()) << full.status.ToString();
}

}  // namespace
}  // namespace rox
