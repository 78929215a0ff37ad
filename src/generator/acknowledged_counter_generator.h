#ifndef YCSBT_GENERATOR_ACKNOWLEDGED_COUNTER_GENERATOR_H_
#define YCSBT_GENERATOR_ACKNOWLEDGED_COUNTER_GENERATOR_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "generator/generator.h"

namespace ycsbt {

/// Counter whose `Last()` only advances once values are acknowledged.
///
/// During the transaction phase, insert operations draw new key numbers from
/// this counter, but a key must not be *read* by other threads until its
/// insert has actually completed — otherwise read-latest workloads would
/// request keys that are still in flight.  YCSB solves this with a sliding
/// acknowledgement window; this is a faithful port.
class AcknowledgedCounterGenerator : public CounterGenerator {
 public:
  explicit AcknowledgedCounterGenerator(uint64_t start)
      : CounterGenerator(start), limit_(start - 1), window_(kWindowSize, false) {}

  /// Highest key number k such that every value <= k has been acknowledged.
  /// One acquire load: every client calls this per key choice, so it must
  /// not write a shared cache line.
  uint64_t Last() const override {
    return limit_.load(std::memory_order_acquire);
  }

  /// Marks `value` (previously returned by Next) as durably inserted.
  void Acknowledge(uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    window_[value % kWindowSize] = true;
    // Advance the limit over the contiguous acknowledged prefix, then
    // publish it once.
    uint64_t limit = limit_.load(std::memory_order_relaxed);
    while (window_[(limit + 1) % kWindowSize]) {
      ++limit;
      window_[limit % kWindowSize] = false;
    }
    limit_.store(limit, std::memory_order_release);
  }

 private:
  static constexpr size_t kWindowSize = 1 << 16;

  std::mutex mu_;  ///< serialises Acknowledge; Last() reads `limit_` only
  std::atomic<uint64_t> limit_;
  std::vector<bool> window_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_ACKNOWLEDGED_COUNTER_GENERATOR_H_
