#ifndef YCSBT_COMMON_HISTOGRAM_H_
#define YCSBT_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ycsbt {

/// Log-bucketed latency histogram (HdrHistogram-lite).
///
/// Values (microseconds in this codebase) are recorded into buckets that are
/// exact up to 2^kSubBucketBits and thereafter keep a relative error below
/// 1/2^kSubBucketBits (~1.5%), which is more than enough resolution for
/// reporting the percentile lines of the paper's Listing 3.  Not thread-safe;
/// the measurement layer shards histograms per thread and merges.
class Histogram {
 public:
  Histogram();

  /// Records one value (negative values are clamped to zero).
  void Add(int64_t value);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  /// Removes all recorded values.
  void Reset();

  uint64_t Count() const { return count_; }
  int64_t Min() const;
  int64_t Max() const;
  double Mean() const;
  double StdDev() const;

  /// Value at quantile q in [0,1]; e.g. ValueAtQuantile(0.99) is p99.
  /// Returns 0 when empty.
  int64_t ValueAtQuantile(double q) const;

  int64_t Percentile(double p) const { return ValueAtQuantile(p / 100.0); }

  /// Multi-line human-readable summary.
  std::string ToString() const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per power of two
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // 64-bit value range / sub-bucket resolution.
  static constexpr int kBucketGroups = 64 - kSubBucketBits;

  static int BucketIndex(uint64_t value);
  /// Representative (upper-bound) value of a bucket.
  static int64_t BucketValue(int index);

  std::vector<uint64_t> buckets_;
  uint64_t count_;
  int64_t min_;
  int64_t max_;
  // Exact integer moments: the sum and the sum of squares of the (clamped,
  // non-negative) samples.  Add is two multiply-adds with no division, and
  // two histograms merge by addition.  StdDev takes n*sum_sq - sum^2, which
  // is exact modulo 2^128 and so exact whenever the true value fits, even
  // after sum_sq itself wraps: no cancellation for large values with a
  // small spread.
  unsigned __int128 sum_;
  unsigned __int128 sum_sq_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_HISTOGRAM_H_
