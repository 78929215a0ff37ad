#ifndef YCSBT_COMMON_CLOCK_H_
#define YCSBT_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace ycsbt {

/// Nanoseconds from the monotonic clock: the time base for run-level
/// intervals, deadlines and schedules.  Per-sample latencies are timed by
/// `LatencyTimer`.
inline uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock microseconds since the Unix epoch (lock lease timestamps).
inline uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock milliseconds since the Unix epoch (the physical component of
/// hybrid logical clocks; milliseconds keep the packed value within 64 bits).
inline uint64_t WallMillis() { return WallMicros() / 1000; }

/// Hybrid logical clock (Kulkarni et al.): physical milliseconds in the high
/// 16..63 bits, a logical counter in the low 16 bits.
///
/// The client-coordinated transaction library (paper ref [28]) explicitly
/// avoids a central timestamp oracle; each client derives start and commit
/// timestamps from its local clock.  An HLC gives those timestamps two
/// properties a bare local clock lacks: they are strictly monotonic per
/// process even if the wall clock stalls or steps backwards, and observing a
/// remote timestamp (via `Observe`) pushes the local clock forward so that
/// causally-later transactions get larger timestamps.
class HybridLogicalClock {
 public:
  HybridLogicalClock() : state_(Pack(WallMillis(), 0)) {}

  /// Returns the next timestamp, strictly greater than all previously
  /// returned or observed timestamps.
  uint64_t Now() {
    uint64_t wall = WallMillis();
    uint64_t prev = state_.load(std::memory_order_relaxed);
    for (;;) {
      uint64_t phys = Physical(prev);
      uint64_t next;
      if (wall > phys) {
        next = Pack(wall, 0);
      } else {
        next = prev + 1;  // bump logical; overflows into physical, still monotonic
      }
      if (state_.compare_exchange_weak(prev, next, std::memory_order_relaxed)) {
        return next;
      }
    }
  }

  /// Merges a timestamp received from elsewhere so subsequent `Now()` results
  /// exceed it.
  void Observe(uint64_t remote) {
    uint64_t prev = state_.load(std::memory_order_relaxed);
    while (remote > prev &&
           !state_.compare_exchange_weak(prev, remote, std::memory_order_relaxed)) {
    }
  }

  /// Extracts the physical (millisecond) component of a timestamp.
  static uint64_t Physical(uint64_t ts) { return ts >> kLogicalBits; }

  /// Extracts the logical counter component.
  static uint64_t Logical(uint64_t ts) { return ts & ((1ull << kLogicalBits) - 1); }

  static constexpr int kLogicalBits = 16;

 private:
  static uint64_t Pack(uint64_t phys, uint64_t logical) {
    return (phys << kLogicalBits) | logical;
  }

  std::atomic<uint64_t> state_;
};

/// A monotonically increasing stopwatch for measuring one interval.
class Stopwatch {
 public:
  Stopwatch() : start_(SteadyNanos()) {}

  void Restart() { start_ = SteadyNanos(); }
  uint64_t ElapsedNanos() const { return SteadyNanos() - start_; }
  uint64_t ElapsedMicros() const { return ElapsedNanos() / 1000; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  uint64_t start_;
};

namespace clock_internal {
/// The tick source `LatencyTimer` reads, fixed once during static
/// initialisation (clock.cc) and read-only afterwards.
extern bool latency_tsc;
/// Nanoseconds per TSC tick in 32.32 fixed point.
extern uint64_t latency_ns_per_tick_q32;
}  // namespace clock_internal

/// Times one latency sample: every interval that ends as one histogram
/// sample (`MeasuredDB`'s calls, the runner's whole-transaction latency,
/// `ResilientStore`'s read samples, the WAL's fdatasync).  On x86-64 with an
/// invariant TSC it reads `rdtsc` and converts ticks with a scale calibrated
/// against `SteadyNanos()` at startup; elsewhere it reads `SteadyNanos()`.
/// Run-level intervals keep `Stopwatch` (DESIGN.md §6).
class LatencyTimer {
 public:
  LatencyTimer() : start_(Now()) {}

  /// Nanoseconds since construction; 0 when the ticks went
  /// backwards (TSC skew between the cores the thread ran on).
  uint64_t ElapsedNanos() const {
    uint64_t now = Now();
    return now > start_ ? ToNanos(now - start_) : 0;
  }
  uint64_t ElapsedMicros() const { return ElapsedNanos() / 1000; }

  /// "tsc" or "steady_clock": the source chosen at startup.
  static const char* Source();

 private:
  static uint64_t Now() {
#if defined(__x86_64__)
    if (clock_internal::latency_tsc) return __rdtsc();
#endif
    return SteadyNanos();
  }

  static uint64_t ToNanos(uint64_t ticks) {
    if (!clock_internal::latency_tsc) return ticks;
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(ticks) *
         clock_internal::latency_ns_per_tick_q32) >>
        32);
  }

  uint64_t start_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_CLOCK_H_
