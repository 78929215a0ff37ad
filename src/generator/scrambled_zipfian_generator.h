#ifndef YCSBT_GENERATOR_SCRAMBLED_ZIPFIAN_GENERATOR_H_
#define YCSBT_GENERATOR_SCRAMBLED_ZIPFIAN_GENERATOR_H_

#include <memory>

#include "generator/zipfian_generator.h"

namespace ycsbt {

/// Zipfian popularity with the hot items scattered across the key space.
///
/// A plain ZipfianGenerator makes the *lowest* key numbers hottest, which
/// would put all the contention on the first data pages.  YCSB's scrambled
/// variant draws a zipfian rank from a large fixed universe and hashes it
/// (FNV-64) back into [min, max], so the hot set is spread uniformly over the
/// key space while per-key popularity stays zipfian.  This is the actual
/// distribution behind `requestdistribution=zipfian` in YCSB and in the
/// paper's CEW properties file.
class ScrambledZipfianGenerator : public IntegerGenerator {
 public:
  /// Skew is fixed at theta = 0.99 because the zeta constant for the 10^10
  /// universe is precomputed (as in YCSB).
  ScrambledZipfianGenerator(uint64_t min, uint64_t max)
      : min_(min),
        item_count_(max - min + 1),
        // Fixed large universe, like YCSB's ITEM_COUNT, with YCSB's
        // precomputed zeta constant (computing zeta(10^10) is infeasible).
        base_(0, kUniverse - 1, ZipfianGenerator::kDefaultTheta, kZetan) {}

  explicit ScrambledZipfianGenerator(uint64_t items)
      : ScrambledZipfianGenerator(0, items - 1) {}

  uint64_t Next(Random64& rng) override {
    return min_ + FNVHash64(base_.Next(rng)) % item_count_;
  }

 private:
  static constexpr uint64_t kUniverse = 10000000000ull;
  /// zeta(kUniverse, 0.99), the constant YCSB ships for its ITEM_COUNT.
  static constexpr double kZetan = 26.46902820178302;

  const uint64_t min_;
  const uint64_t item_count_;
  ZipfianGenerator base_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_SCRAMBLED_ZIPFIAN_GENERATOR_H_
