#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

namespace ycsbt {

Histogram::Histogram()
    : buckets_(static_cast<size_t>(kBucketGroups) * kSubBuckets, 0) {
  Reset();
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = 0;
  sum_ = 0;
  sum_sq_ = 0;
}

int Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  // Highest set bit determines the group; the next kSubBucketBits bits select
  // the sub-bucket within the group.
  int msb = 63 - std::countl_zero(value);
  int group = msb - kSubBucketBits + 1;
  int sub = static_cast<int>((value >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  // Group g >= 1 starts at (g + 1) * kSubBuckets/... Layout: group 0 covers
  // [0, kSubBuckets) with exact buckets; each later group contributes
  // kSubBuckets buckets (top half of that power-of-two range).
  return group * kSubBuckets + sub;
}

int64_t Histogram::BucketValue(int index) {
  int group = index / kSubBuckets;
  int sub = index % kSubBuckets;
  if (group == 0) return sub;
  // Reconstruct the upper edge of the bucket.
  int msb = group + kSubBucketBits - 1;
  uint64_t base = 1ull << msb;
  uint64_t width = 1ull << (msb - kSubBucketBits);
  return static_cast<int64_t>(base + (static_cast<uint64_t>(sub) + 1) * width - 1);
}

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;
  uint64_t v = static_cast<uint64_t>(value);
  int idx = BucketIndex(v);
  if (idx >= static_cast<int>(buckets_.size())) idx = static_cast<int>(buckets_.size()) - 1;
  ++buckets_[static_cast<size_t>(idx)];
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += v;
  sum_sq_ += static_cast<unsigned __int128>(v) * v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

int64_t Histogram::Min() const { return count_ == 0 ? 0 : min_; }

int64_t Histogram::Max() const { return max_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::StdDev() const {
  if (count_ < 2) return 0.0;
  // n * sum_sq - sum^2 = sum over pairs of (x_i - x_j)^2: non-negative and
  // computed exactly in wrapping 128-bit arithmetic.
  unsigned __int128 n = count_;
  long double spread = static_cast<long double>(n * sum_sq_ - sum_ * sum_);
  long double var = spread / (static_cast<long double>(count_) *
                               static_cast<long double>(count_ - 1));
  return static_cast<double>(std::sqrt(var));
}

int64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      int64_t v = BucketValue(static_cast<int>(i));
      return std::min(v, max_);
    }
  }
  return max_;
}

std::string Histogram::ToString() const {
  std::ostringstream out;
  out << "count=" << count_ << " mean=" << Mean() << " min=" << Min()
      << " p50=" << ValueAtQuantile(0.50) << " p95=" << ValueAtQuantile(0.95)
      << " p99=" << ValueAtQuantile(0.99) << " max=" << Max();
  return out.str();
}

}  // namespace ycsbt
