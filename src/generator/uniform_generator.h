#ifndef YCSBT_GENERATOR_UNIFORM_GENERATOR_H_
#define YCSBT_GENERATOR_UNIFORM_GENERATOR_H_

#include "generator/generator.h"

namespace ycsbt {

/// Uniform integers in the inclusive interval [lower, upper].
class UniformLongGenerator : public IntegerGenerator {
 public:
  UniformLongGenerator(uint64_t lower, uint64_t upper)
      : lower_(lower), upper_(upper) {}

  uint64_t Next(Random64& rng) override {
    return lower_ + rng.Uniform(upper_ - lower_ + 1);
  }

 private:
  uint64_t lower_;
  uint64_t upper_;
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_UNIFORM_GENERATOR_H_
