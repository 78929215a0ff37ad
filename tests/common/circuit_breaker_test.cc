// Lifecycle tests of the rolling-window circuit breaker: trip on the
// failure ratio, fail fast while Open, cool down (count-based and
// wall-clock), Half-Open probing, and re-close/re-open — plus the
// per-backend set's key partitioning, which must match the simulated
// cloud store's.

#include "common/circuit_breaker.h"

#include <gtest/gtest.h>

#include <string>

namespace ycsbt {
namespace {

/// Small deterministic configuration: the wall clock is pushed out of the
/// picture (huge cooldown_us) so only the count-based cooldown can admit a
/// probe — the same trick the chaos tests rely on.
CircuitBreakerOptions SmallOptions() {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.window = 8;
  o.min_samples = 4;
  o.failure_ratio = 0.5;
  o.cooldown_us = 10'000'000;
  o.cooldown_rejects = 3;
  o.probes = 2;
  return o;
}

void FeedAdmitted(CircuitBreaker& b, const Status& s, int n) {
  for (int i = 0; i < n; ++i) {
    CircuitBreaker::Ticket t = b.Admit();
    ASSERT_TRUE(t.admitted);
    b.OnResult(s, t.probe);
  }
}

/// Drives an Open breaker through its count-based cooldown and returns the
/// probe ticket of the first admitted arrival.
CircuitBreaker::Ticket BurnCooldown(CircuitBreaker& b) {
  CircuitBreaker::Ticket t = b.Admit();
  while (!t.admitted) t = b.Admit();
  return t;
}

TEST(CircuitBreakerTest, StartsClosedAndAdmits) {
  CircuitBreaker b(SmallOptions());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  CircuitBreaker::Ticket t = b.Admit();
  EXPECT_TRUE(t.admitted);
  EXPECT_FALSE(t.probe);
}

TEST(CircuitBreakerTest, SuccessesNeverTrip) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::OK(), 100);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.stats().opens, 0u);
}

TEST(CircuitBreakerTest, ApplicationOutcomesCountAsSuccesses) {
  // NotFound and a lost CAS are the store *working* — they must never trip
  // the breaker no matter how many arrive.
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::NotFound("missing"), 50);
  FeedAdmitted(b, Status::Conflict("etag mismatch"), 50);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(Status::NotFound("x")));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(Status::Conflict("x")));
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(Status::RateLimited("x")));
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(Status::Timeout("x")));
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(Status::IOError("x")));
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(Status::Unavailable("x")));
}

TEST(CircuitBreakerTest, TripsOnlyAfterMinSamples) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::RateLimited("503"), 3);  // min_samples is 4
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  FeedAdmitted(b, Status::RateLimited("503"), 1);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.stats().opens, 1u);
}

TEST(CircuitBreakerTest, MixedWindowTripsAtTheRatio) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::OK(), 4);
  FeedAdmitted(b, Status::RateLimited("503"), 3);
  // 3 failures of 7 samples: below the 0.5 ratio.
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  FeedAdmitted(b, Status::RateLimited("503"), 1);
  // 4 of 8: at the ratio — trips.
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, OpenFailsFastAndCountsRejects) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);
  for (int i = 0; i < 3; ++i) {  // cooldown_rejects = 3
    CircuitBreaker::Ticket t = b.Admit();
    EXPECT_FALSE(t.admitted);
  }
  EXPECT_EQ(b.stats().fast_fails, 3u);
}

TEST(CircuitBreakerTest, CountBasedCooldownAdmitsAProbe) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(b.Admit().admitted);
  // The cooldown count is burned: the next arrival probes.
  CircuitBreaker::Ticket t = b.Admit();
  EXPECT_TRUE(t.admitted);
  EXPECT_TRUE(t.probe);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(b.stats().probes_sent, 1u);
}

TEST(CircuitBreakerTest, ConsecutiveProbeSuccessesReclose) {
  CircuitBreaker b(SmallOptions());  // probes = 2
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  CircuitBreaker::Ticket t = BurnCooldown(b);
  ASSERT_TRUE(t.probe);
  b.OnResult(Status::OK(), t.probe);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);  // 1 of 2
  t = b.Admit();
  ASSERT_TRUE(t.admitted);
  ASSERT_TRUE(t.probe);
  b.OnResult(Status::OK(), t.probe);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.stats().recloses, 1u);
  // Back to normal admission.
  t = b.Admit();
  EXPECT_TRUE(t.admitted);
  EXPECT_FALSE(t.probe);
}

TEST(CircuitBreakerTest, ProbeFailureReopens) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  CircuitBreaker::Ticket t = BurnCooldown(b);
  ASSERT_TRUE(t.probe);
  b.OnResult(Status::RateLimited("still 503"), t.probe);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.stats().opens, 2u);
  EXPECT_FALSE(b.Admit().admitted);  // failing fast again
}

TEST(CircuitBreakerTest, WindowIsClearedOnReclose) {
  CircuitBreaker b(SmallOptions());
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  CircuitBreaker::Ticket t = BurnCooldown(b);
  b.OnResult(Status::OK(), t.probe);
  t = b.Admit();
  b.OnResult(Status::OK(), t.probe);
  ASSERT_EQ(b.state(), CircuitBreaker::State::kClosed);
  // The pre-trip failures must not linger: 3 fresh failures (below
  // min_samples of the *new* window) keep it closed, the 4th trips.
  FeedAdmitted(b, Status::RateLimited("503"), 3);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  FeedAdmitted(b, Status::RateLimited("503"), 1);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, WallClockCooldownAlsoAdmitsProbes) {
  CircuitBreakerOptions o = SmallOptions();
  o.cooldown_us = 0;       // cooled immediately
  o.cooldown_rejects = 0;  // clock only
  CircuitBreaker b(o);
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);
  CircuitBreaker::Ticket t = b.Admit();
  EXPECT_TRUE(t.admitted);
  EXPECT_TRUE(t.probe);
  EXPECT_EQ(b.stats().fast_fails, 0u);
}

TEST(CircuitBreakerTest, HalfOpenCapsProbesInFlight) {
  CircuitBreaker b(SmallOptions());  // probes = 2
  FeedAdmitted(b, Status::RateLimited("503"), 4);
  CircuitBreaker::Ticket p1 = BurnCooldown(b);
  ASSERT_TRUE(p1.probe);
  CircuitBreaker::Ticket p2 = b.Admit();
  ASSERT_TRUE(p2.admitted);
  ASSERT_TRUE(p2.probe);
  // Both probe slots taken: further arrivals fail fast.
  EXPECT_FALSE(b.Admit().admitted);
  b.OnResult(Status::OK(), p1.probe);
  b.OnResult(Status::OK(), p2.probe);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, FromPropertiesParsesAndClampsMinSamples) {
  Properties props;
  props.Set("breaker.enabled", "true");
  props.Set("breaker.window", "32");
  props.Set("breaker.min_samples", "100");  // above window: clamped down
  props.Set("breaker.failure_ratio", "0.75");
  props.Set("breaker.cooldown_us", "1234");
  props.Set("breaker.cooldown_rejects", "4");
  props.Set("breaker.probes", "2");
  ASSERT_TRUE(CheckDeclaredProperties(props, kBreakerProperties).ok());
  CircuitBreakerOptions o = CircuitBreakerOptions::FromProperties(props);
  EXPECT_TRUE(o.enabled);
  EXPECT_EQ(o.window, 32);
  EXPECT_EQ(o.min_samples, 32);
  EXPECT_DOUBLE_EQ(o.failure_ratio, 0.75);
  EXPECT_EQ(o.cooldown_us, 1234u);
  EXPECT_EQ(o.cooldown_rejects, 4);
  EXPECT_EQ(o.probes, 2);
  EXPECT_FALSE(CircuitBreakerOptions::FromProperties(Properties()).enabled);
}

TEST(CircuitBreakerTest, OutOfRangeValuesAreRejected) {
  // Single-key ranges are declared: nonsense is an error, not a clamp.
  for (const auto& [key, value] :
       {std::pair{"breaker.window", "0"}, std::pair{"breaker.min_samples", "0"},
        std::pair{"breaker.failure_ratio", "2.5"},
        std::pair{"breaker.cooldown_rejects", "-4"},
        std::pair{"breaker.probes", "0"}}) {
    Properties bad;
    bad.Set(key, value);
    Status s = CheckDeclaredProperties(bad, kBreakerProperties);
    EXPECT_TRUE(s.IsInvalidArgument()) << key;
    EXPECT_NE(s.message().find(key), std::string::npos) << s.ToString();
  }
}

TEST(CircuitBreakerSetTest, BackendIndexIsStableAndInRange) {
  for (size_t backends : {1u, 3u, 8u}) {
    for (int i = 0; i < 64; ++i) {
      std::string key = "user" + std::to_string(i * 7919);
      size_t idx = CircuitBreakerSet::BackendIndexFor(key, backends);
      EXPECT_LT(idx, backends);
      EXPECT_EQ(idx, CircuitBreakerSet::BackendIndexFor(key, backends));
    }
  }
}

TEST(CircuitBreakerSetTest, ForKeyRoutesToTheHashedBackend) {
  CircuitBreakerSet set(SmallOptions(), 4);
  ASSERT_EQ(set.backends(), 4u);
  std::string key = "user12345";
  size_t idx = CircuitBreakerSet::BackendIndexFor(key, 4);
  EXPECT_EQ(&set.ForKey(key), &set.backend(idx));
}

TEST(CircuitBreakerSetTest, AnyOpenAndAggregateSeeOneTrippedBackend) {
  CircuitBreakerSet set(SmallOptions(), 4);
  EXPECT_FALSE(set.AnyOpen());
  FeedAdmitted(set.backend(2), Status::RateLimited("503"), 4);
  EXPECT_TRUE(set.AnyOpen());
  EXPECT_EQ(set.Aggregate().opens, 1u);
  // The other backends still admit — the fence is per-container.
  EXPECT_TRUE(set.backend(0).Admit().admitted);
  EXPECT_FALSE(set.backend(2).Admit().admitted);
  EXPECT_EQ(set.Aggregate().fast_fails, 1u);
}

}  // namespace
}  // namespace ycsbt
