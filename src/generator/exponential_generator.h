#ifndef YCSBT_GENERATOR_EXPONENTIAL_GENERATOR_H_
#define YCSBT_GENERATOR_EXPONENTIAL_GENERATOR_H_

#include <cmath>

#include "generator/generator.h"

namespace ycsbt {

/// Exponentially distributed integers: small values are most likely, with
/// the given `percentile` of the mass falling inside `range`
/// (YCSB `requestdistribution=exponential`).
class ExponentialGenerator : public IntegerGenerator {
 public:
  /// YCSB defaults: 95% of operations inside the most recent 1/10th.
  static constexpr double kDefaultPercentile = 95.0;

  ExponentialGenerator(double percentile, double range)
      : gamma_(-std::log(1.0 - percentile / 100.0) / range) {}

  /// Directly parameterised by the rate gamma.
  explicit ExponentialGenerator(double gamma) : gamma_(gamma) {}

  uint64_t Next(Random64& rng) override {
    double u = rng.NextDouble();
    if (u <= 0.0) u = 1e-12;
    return static_cast<uint64_t>(-std::log(u) / gamma_);
  }

  double gamma() const { return gamma_; }

 private:
  const double gamma_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_EXPONENTIAL_GENERATOR_H_
