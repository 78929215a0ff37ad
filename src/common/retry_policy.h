#ifndef YCSBT_COMMON_RETRY_POLICY_H_
#define YCSBT_COMMON_RETRY_POLICY_H_

#include <cstdint>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/random.h"
#include "common/status.h"

namespace ycsbt {

/// Parses a server-suggested wait from a failure message: the simulated
/// cloud store (and the breaker's fail-fast) embed `retry_after_us=<n>` in
/// their status messages, the HTTP `Retry-After` analogue.  Returns 0 when
/// the message carries no hint.
uint64_t RetryAfterUsHint(const Status& failure);

/// One step of the AWS-style *decorrelated jitter* schedule:
/// `sleep = min(cap, base + uniform(0, max(base+1, *prev * 3) - base))`,
/// with `*prev` updated to the drawn sleep (floored at `base`).  Successive
/// sleeps are correlated only through the previous sleep, never the attempt
/// number, which is what breaks up convoys of clients that failed at the
/// same instant.  Shared by the transaction retry loop's backoff ladder and
/// the txn library's lock-wait delay (a fixed lock-wait sleep re-collides
/// contending writers forever).  Returns `0` when `base == 0`.
uint64_t DecorrelatedJitterUs(Random64& rng, uint64_t base, uint64_t cap,
                              uint64_t* prev);

inline constexpr PropertyDecl kRetryMaxAttempts = IntProperty(
    "retry.max_attempts", 1, 1, kIntMax,
    "total attempts per transaction (1 = retries off)");
inline constexpr PropertyDecl kRetryBackoffInitialUs =
    UintProperty("retry.backoff_initial_us", 100, "first backoff");
inline constexpr PropertyDecl kRetryBackoffMaxUs = UintProperty(
    "retry.backoff_max_us", 100'000,
    "backoff cap (raised to the first backoff when below it)");
inline constexpr PropertyDecl kRetryBackoffMultiplier = DoubleProperty(
    "retry.backoff_multiplier", 2.0, 1.0, kNoLimit,
    "growth factor of the backoff ladder when jitter is off");
inline constexpr PropertyDecl kRetryJitter = BoolProperty(
    "retry.jitter", true, "decorrelated jitter between first backoff and cap");
inline constexpr PropertyDecl kRetryDeadlineUs = UintProperty(
    "retry.deadline_us", 0,
    "per-transaction time budget across attempts and backoffs (0 = none)");
/// Retrying a saturated container on the hot exponential ladder amplifies
/// the overload; a configured breaker cooldown describes the same drain
/// time, so it is the default.
inline constexpr PropertyDecl kRetryThrottleCooldownUs = Derived(
    UintProperty("retry.throttle_cooldown_us", 25'000,
                 "wait before retrying a throttle-class failure"),
    "breaker.cooldown_us, else 25000");
inline constexpr const PropertyDecl* kRetryProperties[] = {
    &kRetryMaxAttempts, &kRetryBackoffInitialUs, &kRetryBackoffMaxUs,
    &kRetryBackoffMultiplier, &kRetryJitter, &kRetryDeadlineUs,
    &kRetryThrottleCooldownUs};

/// Client-side retry discipline for transactions that fail with a retryable
/// status (`Status::IsRetryable()`): bounded attempts, exponential backoff
/// with decorrelated jitter, and an overall per-transaction deadline.
/// Configured from the `retry.*` properties declared above.
struct RetryPolicy {
  int max_attempts = kRetryMaxAttempts.Default<int>();
  uint64_t initial_backoff_us = kRetryBackoffInitialUs.Default<uint64_t>();
  uint64_t max_backoff_us = kRetryBackoffMaxUs.Default<uint64_t>();
  double multiplier = kRetryBackoffMultiplier.Default<double>();
  bool decorrelated_jitter = kRetryJitter.Default<bool>();
  uint64_t deadline_us = kRetryDeadlineUs.Default<uint64_t>();
  uint64_t throttle_cooldown_us = kRetryThrottleCooldownUs.Default<uint64_t>();

  bool enabled() const { return max_attempts > 1; }

  static RetryPolicy FromProperties(const Properties& props);
};

/// Per-transaction backoff sequence.  Construct one per transaction attempt
/// chain; each `NextBackoffUs` advances the schedule.
///
/// With jitter the schedule is AWS-style *decorrelated jitter*
/// (sleep = uniform(base, prev * 3), capped), which spreads synchronized
/// retry storms far better than plain exponential backoff; without jitter it
/// is the deterministic base * multiplier^n ladder.
///
/// Throttle-class failures (`Status::IsThrottle()`: the store said
/// RateLimited, or the circuit breaker failed fast with Unavailable) take a
/// different path: the wait is `max(throttle_cooldown_us, retry_after_us
/// hint)` and the exponential ladder does not advance — backing away from a
/// saturated container is cooldown behaviour, not congestion probing.
/// Leadership changes (`Status::IsLeadershipChange()`: a replicated store
/// said NotLeader mid-election) ride the same path: the failure is not
/// congestion, so the ladder stays put and the wait honours the election's
/// `retry_after_us=` redirect hint when present.
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy)
      : policy_(policy), prev_us_(policy.initial_backoff_us) {}

  /// Backoff before retrying after `failure`.
  uint64_t NextBackoffUs(Random64& rng, const Status& failure);

  /// True when `attempt` (1-based count of attempts already made) has
  /// exhausted the policy or `elapsed_us` blew the deadline.
  bool Exhausted(int attempts_made, uint64_t elapsed_us) const {
    if (attempts_made >= policy_.max_attempts) return true;
    if (policy_.deadline_us != 0 && elapsed_us >= policy_.deadline_us) return true;
    return false;
  }

 private:
  const RetryPolicy& policy_;
  uint64_t prev_us_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_RETRY_POLICY_H_
