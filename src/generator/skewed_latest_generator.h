#ifndef YCSBT_GENERATOR_SKEWED_LATEST_GENERATOR_H_
#define YCSBT_GENERATOR_SKEWED_LATEST_GENERATOR_H_

#include "generator/zipfian_generator.h"

namespace ycsbt {

/// Zipfian distribution anchored at the most recently inserted key: the
/// newest key is the most popular ("read latest" workloads, YCSB workload D).
///
/// The basis counter is owned by the workload (it is the insert key
/// sequence); this generator draws an offset from its current `Last()`.
class SkewedLatestGenerator : public IntegerGenerator {
 public:
  explicit SkewedLatestGenerator(const CounterGenerator* basis,
                                 double theta = ZipfianGenerator::kDefaultTheta)
      : basis_(basis), zipfian_(0, 0, theta) {}

  uint64_t Next(Random64& rng) override {
    uint64_t max = basis_->Last();
    return max - zipfian_.Next(rng, max + 1);
  }

 private:
  const CounterGenerator* basis_;  // not owned
  ZipfianGenerator zipfian_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_SKEWED_LATEST_GENERATOR_H_
