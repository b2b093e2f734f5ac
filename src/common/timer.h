// Wall-clock measurement utilities used by the ROX optimizer to split
// time between sampling (optimization) and execution, and by benches.

#ifndef ROX_COMMON_TIMER_H_
#define ROX_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace rox {

// Monotonic stopwatch with nanosecond resolution.
class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Nanoseconds elapsed since construction or the last Restart().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedMicros() const { return ElapsedNanos() / 1e3; }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates time across multiple start/stop intervals, e.g. total
// sampling time over a whole ROX run.
class TimeAccumulator {
 public:
  // Start/Stop pairs may nest (e.g. a sampling routine called from a
  // larger sampled phase); only the outermost pair is measured.
  void Start() {
    if (depth_++ == 0) watch_.Restart();
  }
  void Stop() {
    if (--depth_ == 0) total_nanos_ += watch_.ElapsedNanos();
  }
  void Reset() {
    total_nanos_ = 0;
    depth_ = 0;
  }

  // Folds another accumulator's total in (e.g. when merging the stats
  // of independent sub-runs).
  void Merge(const TimeAccumulator& other) {
    total_nanos_ += other.total_nanos_;
  }

  int64_t TotalNanos() const { return total_nanos_; }
  double TotalMillis() const { return total_nanos_ / 1e6; }

 private:
  StopWatch watch_;
  int64_t total_nanos_ = 0;
  int depth_ = 0;
};

// A monotonic point in time a query must finish by. Built on
// steady_clock so deadline math is immune to wall-clock adjustments —
// the same rule all latency measurement in this codebase follows
// (never system_clock). Default-constructed deadlines are infinite.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Infinite: never expires.
  Deadline() : when_(Clock::time_point::max()) {}
  explicit Deadline(Clock::time_point when) : when_(when) {}

  static Deadline Infinite() { return Deadline(); }
  // `ms` from now, in whole milliseconds (the fraction is dropped).
  // Saturates: below 1 is already expired, and a point the clock cannot
  // represent (or NaN) is Infinite().
  static Deadline AfterMillis(double ms) {
    // Largest ms whose nanosecond count fits in int64.
    constexpr double kMaxMillis =
        static_cast<double>(std::chrono::nanoseconds::max().count()) / 1e6;
    const Clock::time_point now = Clock::now();
    if (!(ms < kMaxMillis)) return Infinite();
    const int64_t whole = ms < 1 ? 0 : static_cast<int64_t>(ms);
    const std::chrono::milliseconds after(whole);
    if (after >= Clock::time_point::max() - now) return Infinite();
    return Deadline(now + after);
  }

  bool IsInfinite() const { return when_ == Clock::time_point::max(); }
  bool Expired() const { return !IsInfinite() && Clock::now() >= when_; }

  // Time left; clamped at zero once expired, huge when infinite.
  std::chrono::nanoseconds Remaining() const {
    if (IsInfinite()) return std::chrono::nanoseconds::max();
    auto left = when_ - Clock::now();
    return left.count() < 0 ? std::chrono::nanoseconds(0)
                            : std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(left);
  }
  double RemainingMillis() const {
    if (IsInfinite()) return 1e300;
    return static_cast<double>(Remaining().count()) / 1e6;
  }

  Clock::time_point when() const { return when_; }

 private:
  Clock::time_point when_;
};

// RAII guard that accumulates the lifetime of a scope into `acc`.
class ScopedTimer {
 public:
  explicit ScopedTimer(TimeAccumulator& acc) : acc_(acc) { acc_.Start(); }
  ~ScopedTimer() { acc_.Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimeAccumulator& acc_;
};

}  // namespace rox

#endif  // ROX_COMMON_TIMER_H_
