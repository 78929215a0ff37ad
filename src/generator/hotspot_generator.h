#ifndef YCSBT_GENERATOR_HOTSPOT_GENERATOR_H_
#define YCSBT_GENERATOR_HOTSPOT_GENERATOR_H_

#include "generator/generator.h"

namespace ycsbt {

/// Hotspot distribution: a fraction of operations target a small "hot" prefix
/// of the interval, the rest are uniform over the cold remainder
/// (YCSB `requestdistribution=hotspot`).
class HotspotIntegerGenerator : public IntegerGenerator {
 public:
  /// @param lower,upper inclusive key-number interval.
  /// @param hot_set_fraction fraction of the interval that is hot, in [0,1].
  /// @param hot_opn_fraction fraction of operations hitting the hot set.
  HotspotIntegerGenerator(uint64_t lower, uint64_t upper, double hot_set_fraction,
                          double hot_opn_fraction)
      : lower_(lower),
        upper_(upper),
        hot_opn_fraction_(Clamp01(hot_opn_fraction)),
        hot_interval_(static_cast<uint64_t>(
            static_cast<double>(upper - lower + 1) * Clamp01(hot_set_fraction))),
        cold_interval_(upper - lower + 1 - hot_interval_) {}

  uint64_t Next(Random64& rng) override {
    if (hot_interval_ > 0 && rng.NextDouble() < hot_opn_fraction_) {
      return lower_ + rng.Uniform(hot_interval_);
    }
    if (cold_interval_ > 0) return lower_ + hot_interval_ + rng.Uniform(cold_interval_);
    return lower_ + rng.Uniform(hot_interval_);
  }

  uint64_t hot_interval() const { return hot_interval_; }

 private:
  static double Clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

  const uint64_t lower_;
  const uint64_t upper_;
  const double hot_opn_fraction_;
  const uint64_t hot_interval_;
  const uint64_t cold_interval_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_HOTSPOT_GENERATOR_H_
