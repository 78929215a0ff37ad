#include "common/clock.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace ycsbt {
namespace clock_internal {

bool latency_tsc = false;
uint64_t latency_ns_per_tick_q32 = 0;

}  // namespace clock_internal

namespace {

#if defined(__x86_64__)

/// CPUID 0x80000007 EDX bit 8: the TSC ticks at a constant rate in every
/// P-, C- and T-state, so ticks convert to time with one scale.
bool InvariantTsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000007) return false;
  __cpuid(0x80000007, eax, ebx, ecx, edx);
  return (edx >> 8) & 1;
}

/// One `(tsc, steady ns)` reading: the steady-clock read bracketed by two
/// `rdtsc`, keeping the tightest bracket of several tries so a preemption
/// or an interrupt inside one try does not skew the pair.
struct ClockPair {
  uint64_t tsc = 0;
  uint64_t ns = 0;
  uint64_t width = ~uint64_t{0};
};

ClockPair TightestPair() {
  constexpr int kTries = 5;
  ClockPair best;
  for (int i = 0; i < kTries; ++i) {
    uint64_t before = __rdtsc();
    uint64_t ns = SteadyNanos();
    uint64_t after = __rdtsc();
    if (after > before && after - before < best.width) {
      best = {before + (after - before) / 2, ns, after - before};
    }
  }
  return best;
}

/// Chooses the latency source: the TSC when it is invariant and two pairs
/// ~1 ms apart give a sane, tight scale, else `SteadyNanos()`.
void CalibrateLatencyTimer() {
  if (!InvariantTsc()) return;
  constexpr uint64_t kSpanNs = 1'000'000;
  // A pair is off by at most half its bracket, so brackets no wider than
  // this keep the scale error under 1/2000.  Where the steady clock is a
  // syscall (~1 µs) rather than a vDSO read the brackets are wider, and the
  // samples stay on the steady clock.
  constexpr double kMaxBracketNs = kSpanNs / 2000;
  ClockPair first = TightestPair();
  while (SteadyNanos() - first.ns < kSpanNs) {
  }
  ClockPair second = TightestPair();
  if (first.width == ~uint64_t{0} || second.width == ~uint64_t{0} ||
      second.tsc <= first.tsc || second.ns <= first.ns) {
    return;
  }
  double ns_per_tick = static_cast<double>(second.ns - first.ns) /
                       static_cast<double>(second.tsc - first.tsc);
  if (static_cast<double>(std::max(first.width, second.width)) * ns_per_tick >
      kMaxBracketNs) {
    return;
  }
  double q32 = std::round(ns_per_tick * 4294967296.0);
  if (!(q32 >= 1.0 && q32 < 1e18)) return;
  clock_internal::latency_ns_per_tick_q32 = static_cast<uint64_t>(q32);
  clock_internal::latency_tsc = true;
}

#else

void CalibrateLatencyTimer() {}

#endif

struct LatencyTimerCalibration {
  LatencyTimerCalibration() { CalibrateLatencyTimer(); }
};

// Runs before every default-priority static initialiser of the program, so
// no timer can start on one source and stop on the other.
__attribute__((init_priority(101))) LatencyTimerCalibration calibration;

}  // namespace

const char* LatencyTimer::Source() {
  return clock_internal::latency_tsc ? "tsc" : "steady_clock";
}

}  // namespace ycsbt
