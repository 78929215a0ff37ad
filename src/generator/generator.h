#ifndef YCSBT_GENERATOR_GENERATOR_H_
#define YCSBT_GENERATOR_GENERATOR_H_

#include <atomic>
#include <cstdint>

#include "common/random.h"

namespace ycsbt {

/// Base interface of the YCSB value-generator suite.
///
/// Generators pick key numbers, operation types, field sizes and scan lengths
/// for the workloads.  Unlike the Java original (which hides a thread-local
/// RNG), `Next` takes the calling thread's `Random64` explicitly, which makes
/// every workload run replayable from its seeds.
///
/// Implementations must be safe for concurrent `Next` calls from multiple
/// threads (client threads share one workload object, as in YCSB).  A draw
/// writes shared state only where the distribution is made of it (a
/// counter's position), so client threads choosing keys do not bounce a
/// cache line.  YCSB's `lastValue` is kept only by the counters, the one
/// place it is read.
template <typename T>
class Generator {
 public:
  virtual ~Generator() = default;

  /// Produces the next value.
  virtual T Next(Random64& rng) = 0;
};

using IntegerGenerator = Generator<uint64_t>;

/// Always returns the same value.
template <typename T>
class ConstantGenerator : public Generator<T> {
 public:
  explicit ConstantGenerator(T value) : value_(value) {}

  T Next(Random64& /*rng*/) override { return value_; }

 private:
  T value_;
};

/// Monotonically increasing counter; generates the key sequence of the load
/// phase and new keys for inserts.
class CounterGenerator : public IntegerGenerator {
 public:
  explicit CounterGenerator(uint64_t start) : counter_(start) {}

  uint64_t Next(Random64& /*rng*/) override {
    return counter_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The highest value handed out (YCSB `lastValue`): the insert key
  /// sequence's bound for key choices and SkewedLatest's basis.
  virtual uint64_t Last() const {
    return counter_.load(std::memory_order_relaxed) - 1;
  }

  /// Resets the counter (between load and run phases in tests).
  void Set(uint64_t value) { counter_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> counter_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_GENERATOR_H_
