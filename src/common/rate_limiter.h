#ifndef YCSBT_COMMON_RATE_LIMITER_H_
#define YCSBT_COMMON_RATE_LIMITER_H_

#include <cstdint>
#include <mutex>

namespace ycsbt {

/// Token-bucket rate limiter.
///
/// Its one user in this codebase is the simulated cloud store, which caps
/// each storage container's request rate (the mechanism behind the Fig 2
/// throughput plateau at 32 threads).  Client-side `target` throttling does
/// not go through it: the runner paces each thread on a fixed `interval_ns`
/// schedule instead.
///
/// `TryAcquire` is non-blocking (it answers "is there a token now?");
/// `AcquireDelayNanos` consumes a token unconditionally and returns how long
/// the caller must wait for it, which the cloud simulator turns into either
/// a queueing delay or an HTTP-503-style `RateLimited` refusal.
class TokenBucket {
 public:
  /// @param rate tokens per second; <= 0 means unlimited.
  /// @param burst bucket capacity; defaults to one second's worth of tokens.
  explicit TokenBucket(double rate, double burst = -1.0);

  /// True if a token was available and has been consumed.
  bool TryAcquire(double tokens = 1.0);

  /// Consumes a token unconditionally and returns the number of nanoseconds
  /// the caller should sleep so the long-run rate matches the target
  /// (0 when the bucket had capacity).
  uint64_t AcquireDelayNanos(double tokens = 1.0);

  /// True when no rate limit is configured.
  bool Unlimited() const { return rate_ <= 0.0; }

  double rate() const { return rate_; }

 private:
  void Refill(uint64_t now_nanos);

  const double rate_;
  const double burst_;
  double available_;
  uint64_t last_refill_nanos_;
  std::mutex mu_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_RATE_LIMITER_H_
