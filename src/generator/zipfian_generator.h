#ifndef YCSBT_GENERATOR_ZIPFIAN_GENERATOR_H_
#define YCSBT_GENERATOR_ZIPFIAN_GENERATOR_H_

#include <atomic>
#include <mutex>

#include "generator/generator.h"

namespace ycsbt {

/// Zipfian-distributed integers in [min, max], favouring low values.
///
/// Implements the incremental algorithm of Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases" (SIGMOD'94), the same algorithm YCSB
/// ports.  The zeta normalisation constant is computed once for the initial
/// item count and extended incrementally (under a mutex) when the item count
/// grows, e.g. while inserts are being performed.
///
/// The paper's CEW runs use `requestdistribution=zipfian` over 10,000
/// records with the YCSB default skew theta = 0.99; the induced hot keys are
/// what makes concurrent read-modify-write transactions collide and produce
/// the anomalies of Figure 4.
class ZipfianGenerator : public IntegerGenerator {
 public:
  static constexpr double kDefaultTheta = 0.99;

  /// Distribution over [min, max] inclusive with skew `theta` in (0, 1).
  ZipfianGenerator(uint64_t min, uint64_t max, double theta = kDefaultTheta);

  /// Same, with a precomputed zeta(n, theta) — computing zeta is O(n), so
  /// huge universes (ScrambledZipfian's 10^10) must pass the known constant.
  ZipfianGenerator(uint64_t min, uint64_t max, double theta, double zetan);

  /// Distribution over [0, items-1].
  explicit ZipfianGenerator(uint64_t items)
      : ZipfianGenerator(0, items - 1, kDefaultTheta) {}

  /// Draws from the configured item count.
  uint64_t Next(Random64& rng) override { return Next(rng, item_count()); }

  /// Draws from the first `item_count` items (>= the constructed count grows
  /// the cached zeta; smaller counts are served with a freshly scaled zeta).
  uint64_t Next(Random64& rng, uint64_t item_count);

  uint64_t Last() const override { return last_.load(std::memory_order_relaxed); }

  uint64_t item_count() const { return count_.load(std::memory_order_relaxed); }
  double theta() const { return theta_; }

  /// Partial harmonic-like sum zeta(n, theta) = sum_{i=1..n} 1/i^theta.
  /// Exposed for tests; O(n).
  static double Zeta(uint64_t n, double theta);

  /// Incremental extension: zeta(prev_n..n) added onto `prev_sum`.
  static double ZetaIncremental(uint64_t prev_n, uint64_t n, double prev_sum,
                                double theta);

 private:
  /// Gray et al.'s eta for `n` items, given zeta(n, theta).
  double Eta(uint64_t n, double zetan) const;

  /// zeta(n, theta) and Eta(n) for a count other than the cached one;
  /// caches them as the new count's.
  void ConstantsForCount(uint64_t n, double* zetan, double* eta);

  const uint64_t min_;
  const double theta_;
  const double zeta2theta_;
  const double alpha_;
  const double half_pow_theta_;  // 0.5^theta: draws below 1 + this are min_ + 1

  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> last_;

  std::mutex zeta_mu_;               // serialises zeta extension
  std::atomic<uint64_t> zeta_n_;     // item count zetan_ and eta_ correspond to
  std::atomic<double> zetan_;        // cached zeta(zeta_n_, theta_)
  std::atomic<double> eta_;          // cached Eta(zeta_n_, zetan_)
};

}  // namespace ycsbt

#endif  // YCSBT_GENERATOR_ZIPFIAN_GENERATOR_H_
