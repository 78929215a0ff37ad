#ifndef YCSBT_GENERATOR_DISCRETE_GENERATOR_H_
#define YCSBT_GENERATOR_DISCRETE_GENERATOR_H_

#include <string>
#include <utility>
#include <vector>

#include "generator/generator.h"

namespace ycsbt {

/// Weighted choice among a fixed set of values; YCSB uses it as the
/// "operation chooser" that realises the read/update/insert/scan/RMW
/// proportions from the workload properties file.
template <typename T>
class DiscreteGenerator : public Generator<T> {
 public:
  DiscreteGenerator() = default;

  /// Adds a value with the given weight (weights need not sum to 1).
  void AddValue(T value, double weight) {
    values_.emplace_back(std::move(value), weight);
    total_weight_ += weight;
  }

  T Next(Random64& rng) override {
    double target = rng.NextDouble() * total_weight_;
    double acc = 0.0;
    for (const auto& [value, weight] : values_) {
      acc += weight;
      if (target < acc) return value;
    }
    return values_.back().first;  // floating-point edge
  }

  bool Empty() const { return values_.empty(); }
  double total_weight() const { return total_weight_; }

 private:
  std::vector<std::pair<T, double>> values_;
  double total_weight_ = 0.0;
};

using OperationChooser = DiscreteGenerator<std::string>;

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_DISCRETE_GENERATOR_H_
