#ifndef YCSBT_COMMON_CIRCUIT_BREAKER_H_
#define YCSBT_COMMON_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/random.h"
#include "common/status.h"

namespace ycsbt {

inline constexpr PropertyDecl kBreakerEnabled =
    BoolProperty("breaker.enabled", false, "per-backend rolling-window circuit breakers");
inline constexpr PropertyDecl kBreakerWindow =
    IntProperty("breaker.window", 64, 1, kIntMax, "outcomes in the rolling window");
inline constexpr PropertyDecl kBreakerMinSamples = IntProperty(
    "breaker.min_samples", 16, 1, kIntMax,
    "outcomes required before the trip ratio is evaluated (at most the window)");
inline constexpr PropertyDecl kBreakerFailureRatio = DoubleProperty(
    "breaker.failure_ratio", 0.5, 0.0, 1.0,
    "failure fraction of the window that trips Closed -> Open");
inline constexpr PropertyDecl kBreakerCooldownUs =
    UintProperty("breaker.cooldown_us", 50'000, "wall-clock Open -> Half-Open delay");
/// The deterministic cooldown chaos replays rely on.
inline constexpr PropertyDecl kBreakerCooldownRejects = IntProperty(
    "breaker.cooldown_rejects", 0, 0, kIntMax,
    "fast-fails after which the next arrival probes whatever the clock (0 = off)");
inline constexpr PropertyDecl kBreakerProbes = IntProperty(
    "breaker.probes", 3, 1, kIntMax,
    "consecutive Half-Open probe successes needed to re-close");
inline constexpr const PropertyDecl* kBreakerProperties[] = {
    &kBreakerEnabled, &kBreakerWindow, &kBreakerMinSamples, &kBreakerFailureRatio,
    &kBreakerCooldownUs, &kBreakerCooldownRejects, &kBreakerProbes};

/// Configuration of one circuit breaker, from the `breaker.*` properties
/// declared above.
struct CircuitBreakerOptions {
  bool enabled = kBreakerEnabled.Default<bool>();
  int window = kBreakerWindow.Default<int>();
  int min_samples = kBreakerMinSamples.Default<int>();
  double failure_ratio = kBreakerFailureRatio.Default<double>();
  uint64_t cooldown_us = kBreakerCooldownUs.Default<uint64_t>();
  int cooldown_rejects = kBreakerCooldownRejects.Default<int>();
  int probes = kBreakerProbes.Default<int>();

  static CircuitBreakerOptions FromProperties(const Properties& props);
};

/// Monotonic counters one breaker (or a whole set, aggregated) exposes.
struct BreakerStats {
  uint64_t opens = 0;       ///< Closed/Half-Open -> Open transitions
  uint64_t fast_fails = 0;  ///< arrivals rejected without touching the store
  uint64_t probes_sent = 0; ///< Half-Open trial requests admitted
  uint64_t recloses = 0;    ///< Half-Open -> Closed recoveries
};

/// Rolling-window circuit breaker guarding one backend (one cloud container).
///
/// State machine: *Closed* admits everything and records outcomes in a ring;
/// once `min_samples` outcomes are in the window and the failure fraction
/// reaches `failure_ratio` it trips to *Open*.  Open fails arrivals fast
/// (no store call) until the cooldown passes — wall clock, or a count of
/// fast-failed arrivals — then the next arrival is admitted as a *Half-Open*
/// probe.  `probes` consecutive probe successes re-close the breaker; one
/// probe failure re-opens it.
///
/// Determinism: the breaker holds no RNG and no sampled state — every
/// transition is a pure function of the outcome/arrival sequence, so a
/// seeded chaos run (whose fault schedule is already deterministic) replays
/// the identical BREAKER-* lifecycle when `cooldown_rejects` drives the
/// cooldown.  Failure classification: throttles (`RateLimited`), timeouts
/// and I/O errors count against the window; application outcomes (NotFound,
/// Conflict, Busy, ...) count as successes — a lost CAS is the store
/// working, not the store failing.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// Admission decision for one arrival.
  struct Ticket {
    bool admitted = true;
    bool probe = false;  ///< admitted as a Half-Open trial request
  };

  explicit CircuitBreaker(const CircuitBreakerOptions& options);

  /// Gate for one arrival.  A rejected ticket means fail fast with
  /// `Status::Unavailable` and do not touch the backend.
  Ticket Admit();

  /// Reports the outcome of an admitted request.  `probe` must echo the
  /// ticket's flag.
  void OnResult(const Status& s, bool probe);

  /// True when `s` counts against the failure window.
  static bool CountsAsFailure(const Status& s) {
    return s.IsRateLimited() || s.IsTimeout() || s.IsIOError() ||
           s.IsUnavailable();
  }

  State state() const;
  BreakerStats stats() const;
  const CircuitBreakerOptions& options() const { return options_; }

 private:
  void TripLocked(uint64_t now_ns);

  const CircuitBreakerOptions options_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  std::vector<uint8_t> window_;  // ring of outcomes; 1 = failure
  size_t window_next_ = 0;
  size_t window_filled_ = 0;
  int window_failures_ = 0;
  uint64_t opened_at_ns_ = 0;
  uint64_t rejects_this_open_ = 0;
  int probes_in_flight_ = 0;
  int probe_successes_ = 0;
  BreakerStats stats_;
};

/// One breaker per backend partition, keyed by the same hash
/// `SimCloudStore` partitions its keyspace with, so the breaker fencing a
/// container sees exactly that container's outcomes.
class CircuitBreakerSet {
 public:
  CircuitBreakerSet(const CircuitBreakerOptions& options, int backends);

  /// Stable backend index of `key` (must match the store's partitioning).
  static size_t BackendIndexFor(const std::string& key, size_t backends) {
    if (backends <= 1) return 0;
    return FNVHash64(std::hash<std::string>{}(key)) % backends;
  }

  CircuitBreaker& ForKey(const std::string& key) {
    return *breakers_[BackendIndexFor(key, breakers_.size())];
  }
  CircuitBreaker& backend(size_t i) { return *breakers_[i]; }
  size_t backends() const { return breakers_.size(); }

  /// True while any backend's breaker is Open (the brownout trigger).
  bool AnyOpen() const;

  /// Sums the per-backend counters.
  BreakerStats Aggregate() const;

 private:
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_CIRCUIT_BREAKER_H_
