#ifndef YCSBT_COMMON_RANDOM_H_
#define YCSBT_COMMON_RANDOM_H_

#include <cstdint>

#include "common/property_schema.h"

namespace ycsbt {

/// The run seed: workload generators, fan-out workers, lock-wait jitter and
/// replication lag all draw from streams derived from it, so one value pins
/// the entire run.
inline constexpr PropertyDecl kSeed =
    UintProperty("seed", 0x5EEDBA5E, "run seed every random stream derives from");
inline constexpr const PropertyDecl* kSeedProperties[] = {&kSeed};

/// splitmix64 finaliser: a high-quality 64->64 mix, so consecutive inputs
/// give uncorrelated outputs.
inline constexpr uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic uniform double in [0,1) for draw number `ticket` of stream
/// `salt` under `seed` (distinct salts give independent streams): how the
/// fault injectors make every decision a pure function of (seed, ticket).
inline double TicketDraw(uint64_t seed, uint64_t ticket, uint64_t salt) {
  uint64_t v = Mix64(seed ^ Mix64(ticket ^ (salt * 0x9E3779B97F4A7C15ull)));
  return static_cast<double>(v >> 11) * (1.0 / 9007199254740992.0);
}

/// Fast, seedable 64-bit PRNG (xoshiro256**), one instance per client thread.
///
/// The YCSB generators need a cheap random source whose cost is negligible
/// next to a database round trip; std::mt19937_64 is both heavier and awkward
/// to seed deterministically across threads.  Seeding uses splitmix64 so that
/// consecutive integer seeds give uncorrelated streams.
class Random64 {
 public:
  explicit Random64(uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

  /// Re-seeds the generator; identical seeds replay identical streams.
  void Seed(uint64_t seed) {
    // splitmix64 expansion of the seed into the four lanes.
    for (auto& lane : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      lane = Mix64(seed);
    }
  }

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n).  n must be > 0.
  uint64_t Uniform(uint64_t n) {
    // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64 * n,
    // irrelevant for workload generation.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// Returns this thread's RNG, seeded once per thread from the monotonic
/// clock and the thread identity.  Use for latency sampling and other
/// simulation randomness that need not be replayable; workload generation
/// uses explicitly seeded per-thread Random64 instances instead.
Random64& ThreadLocalRandom();

/// 64-bit FNV-1a hash, used by YCSB to scatter sequential key numbers
/// (ScrambledZipfian, key hashing in CoreWorkload).
inline uint64_t FNVHash64(uint64_t val) {
  const uint64_t kPrime = 1099511628211ull;
  uint64_t hash = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    hash ^= val & 0xFF;
    hash *= kPrime;
    val >>= 8;
  }
  return hash;
}

}  // namespace ycsbt

#endif  // YCSBT_COMMON_RANDOM_H_
