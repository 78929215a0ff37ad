#include "common/retry_policy.h"

#include <algorithm>
#include <cstdlib>

#include "common/circuit_breaker.h"

namespace ycsbt {

uint64_t RetryAfterUsHint(const Status& failure) {
  static constexpr char kTag[] = "retry_after_us=";
  const std::string& msg = failure.message();
  size_t pos = msg.find(kTag);
  if (pos == std::string::npos) return 0;
  return std::strtoull(msg.c_str() + pos + sizeof(kTag) - 1, nullptr, 10);
}

uint64_t DecorrelatedJitterUs(Random64& rng, uint64_t base, uint64_t cap,
                              uint64_t* prev) {
  if (base == 0) return 0;
  uint64_t hi = std::max(base + 1, *prev * 3);
  uint64_t next = std::min(base + rng.Uniform(hi - base), cap);
  *prev = std::max(next, base);
  return next;
}

RetryPolicy RetryPolicy::FromProperties(const Properties& props) {
  RetryPolicy p;
  p.max_attempts = kRetryMaxAttempts.Get<int>(props);
  p.initial_backoff_us = kRetryBackoffInitialUs.Get<uint64_t>(props);
  p.max_backoff_us = std::max(kRetryBackoffMaxUs.Get<uint64_t>(props),
                              p.initial_backoff_us);
  p.multiplier = kRetryBackoffMultiplier.Get<double>(props);
  p.decorrelated_jitter = kRetryJitter.Get<bool>(props);
  p.deadline_us = kRetryDeadlineUs.Get<uint64_t>(props);
  p.throttle_cooldown_us = kRetryThrottleCooldownUs.Get<uint64_t>(
      props, kBreakerCooldownUs.Get<uint64_t>(props, p.throttle_cooldown_us));
  return p;
}

uint64_t RetryState::NextBackoffUs(Random64& rng, const Status& failure) {
  if (failure.IsThrottle() || failure.IsLeadershipChange()) {
    // Cooldown, not congestion probing: honour the server's suggested wait
    // when it is longer (for NotLeader that is the remaining election
    // window), jitter a little so released clients do not stampede back in
    // lockstep, and leave the exponential ladder where it was.
    uint64_t wait = std::max(policy_.throttle_cooldown_us,
                             RetryAfterUsHint(failure));
    if (policy_.decorrelated_jitter && wait > 0) {
      wait += rng.Uniform(wait / 4 + 1);
    }
    return wait;
  }
  uint64_t base = policy_.initial_backoff_us;
  if (base == 0) return 0;
  uint64_t next;
  if (policy_.decorrelated_jitter) {
    next = DecorrelatedJitterUs(rng, base, policy_.max_backoff_us, &prev_us_);
  } else {
    // Deterministic ladder: base, base*m, base*m^2, ... capped.
    next = std::min(prev_us_, policy_.max_backoff_us);
    double grown = static_cast<double>(prev_us_) * policy_.multiplier;
    prev_us_ = grown >= static_cast<double>(policy_.max_backoff_us)
                   ? policy_.max_backoff_us
                   : static_cast<uint64_t>(grown);
  }
  return next;
}

}  // namespace ycsbt
