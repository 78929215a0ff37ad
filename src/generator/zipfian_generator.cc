#include "generator/zipfian_generator.h"

#include <algorithm>
#include <cmath>

namespace ycsbt {

ZipfianGenerator::ZipfianGenerator(uint64_t min, uint64_t max, double theta)
    : ZipfianGenerator(min, max, theta, Zeta(max - min + 1, theta)) {}

ZipfianGenerator::ZipfianGenerator(uint64_t min, uint64_t max, double theta,
                                   double zetan)
    : min_(min),
      theta_(theta),
      zeta2theta_(Zeta(2, theta)),
      alpha_(1.0 / (1.0 - theta)),
      half_pow_theta_(std::pow(0.5, theta)),
      count_(max - min + 1),
      zeta_n_(max - min + 1),
      zetan_(zetan),
      eta_(Eta(max - min + 1, zetan)) {}

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  return ZetaIncremental(0, n, 0.0, theta);
}

double ZipfianGenerator::ZetaIncremental(uint64_t prev_n, uint64_t n,
                                         double prev_sum, double theta) {
  double sum = prev_sum;
  for (uint64_t i = prev_n + 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

double ZipfianGenerator::Eta(uint64_t n, double zetan) const {
  return (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan);
}

void ZipfianGenerator::ConstantsForCount(uint64_t n, double* zetan, double* eta) {
  std::lock_guard<std::mutex> lock(zeta_mu_);
  uint64_t cached_n = zeta_n_.load(std::memory_order_relaxed);
  *zetan = zetan_.load(std::memory_order_relaxed);
  *eta = eta_.load(std::memory_order_relaxed);
  if (n == cached_n) return;
  if (n > cached_n) {
    *zetan = ZetaIncremental(cached_n, n, *zetan, theta_);
  } else {
    // Shrinking item counts are rare (delete-heavy workloads); recompute.
    *zetan = Zeta(n, theta_);
  }
  *eta = Eta(n, *zetan);
  zetan_.store(*zetan, std::memory_order_relaxed);
  eta_.store(*eta, std::memory_order_relaxed);
  zeta_n_.store(n, std::memory_order_release);  // publish both with the count
}

uint64_t ZipfianGenerator::Next(Random64& rng, uint64_t item_count) {
  if (item_count == 0) return min_;
  double zetan = 0.0;
  double eta = 0.0;
  if (item_count == zeta_n_.load(std::memory_order_acquire)) {
    // Fast path: the cached constants match the requested count, no locking.
    zetan = zetan_.load(std::memory_order_relaxed);
    eta = eta_.load(std::memory_order_relaxed);
  } else {
    ConstantsForCount(item_count, &zetan, &eta);
    count_.store(item_count, std::memory_order_relaxed);
  }

  double u = rng.NextDouble();
  double uz = u * zetan;
  if (uz < 1.0) return min_;
  if (uz < 1.0 + half_pow_theta_) return min_ + 1;
  uint64_t result = min_ + static_cast<uint64_t>(
                               static_cast<double>(item_count) *
                               std::pow(eta * u - eta + 1.0, alpha_));
  return std::min(result, min_ + item_count - 1);
}

}  // namespace ycsbt
