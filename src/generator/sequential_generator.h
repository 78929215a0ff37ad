#ifndef YCSBT_GENERATOR_SEQUENTIAL_GENERATOR_H_
#define YCSBT_GENERATOR_SEQUENTIAL_GENERATOR_H_

#include <atomic>

#include "generator/generator.h"

namespace ycsbt {

/// Cycles through [lower, upper] in order, wrapping around; used for
/// sequential-scan style request patterns (YCSB `requestdistribution=sequential`).
class SequentialGenerator : public IntegerGenerator {
 public:
  SequentialGenerator(uint64_t lower, uint64_t upper)
      : lower_(lower), interval_(upper - lower + 1), counter_(0) {}

  uint64_t Next(Random64& /*rng*/) override {
    uint64_t c = counter_.fetch_add(1, std::memory_order_relaxed);
    return lower_ + c % interval_;
  }

 private:
  const uint64_t lower_;
  const uint64_t interval_;
  std::atomic<uint64_t> counter_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_SEQUENTIAL_GENERATOR_H_
