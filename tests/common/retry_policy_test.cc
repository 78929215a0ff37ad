#include "common/retry_policy.h"

#include <gtest/gtest.h>

namespace ycsbt {
namespace {

TEST(RetryPolicyTest, DefaultsAreRetriesOff) {
  RetryPolicy p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.max_attempts, 1);
}

TEST(RetryPolicyTest, FromProperties) {
  Properties props;
  props.Set("retry.max_attempts", "5");
  props.Set("retry.backoff_initial_us", "250");
  props.Set("retry.backoff_max_us", "8000");
  props.Set("retry.backoff_multiplier", "3.0");
  props.Set("retry.jitter", "false");
  props.Set("retry.deadline_us", "900000");
  RetryPolicy p = RetryPolicy::FromProperties(props);
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.max_attempts, 5);
  EXPECT_EQ(p.initial_backoff_us, 250u);
  EXPECT_EQ(p.max_backoff_us, 8000u);
  EXPECT_DOUBLE_EQ(p.multiplier, 3.0);
  EXPECT_FALSE(p.decorrelated_jitter);
  EXPECT_EQ(p.deadline_us, 900000u);
}

TEST(RetryPolicyTest, OutOfRangeValuesAreRejectedAndTheCapIsRaised) {
  // Single-key ranges are declared: nonsense is an error, not a clamp.
  for (const auto& [key, value] : {std::pair{"retry.max_attempts", "-3"},
                                   std::pair{"retry.backoff_multiplier", "0.5"}}) {
    Properties bad;
    bad.Set(key, value);
    Status s = CheckDeclaredProperties(bad, kRetryProperties);
    EXPECT_TRUE(s.IsInvalidArgument()) << key;
    EXPECT_NE(s.message().find(key), std::string::npos) << s.ToString();
  }
  // The cross-key relation stays a clamp: the cap never sits below the
  // first backoff.
  Properties props;
  props.Set("retry.backoff_initial_us", "1000");
  props.Set("retry.backoff_max_us", "10");
  ASSERT_TRUE(CheckDeclaredProperties(props, kRetryProperties).ok());
  EXPECT_EQ(RetryPolicy::FromProperties(props).max_backoff_us, 1000u);
}

TEST(DecorrelatedJitterTest, ZeroBaseMeansNoSleep) {
  Random64 rng(1);
  uint64_t prev = 0;
  EXPECT_EQ(DecorrelatedJitterUs(rng, 0, 1000, &prev), 0u);
  EXPECT_EQ(prev, 0u);
}

TEST(DecorrelatedJitterTest, DrawsStayWithinBaseAndCap) {
  Random64 rng(42);
  uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t draw = DecorrelatedJitterUs(rng, 100, 1600, &prev);
    EXPECT_GE(draw, 100u);
    EXPECT_LE(draw, 1600u);
    EXPECT_GE(prev, 100u);  // prev is floored at base
    EXPECT_LE(prev, 1600u);
  }
}

TEST(DecorrelatedJitterTest, SameSeedReplaysSameSequence) {
  Random64 rng_a(7), rng_b(7);
  uint64_t prev_a = 0, prev_b = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(DecorrelatedJitterUs(rng_a, 50, 4000, &prev_a),
              DecorrelatedJitterUs(rng_b, 50, 4000, &prev_b));
  }
}

TEST(DecorrelatedJitterTest, SequenceActuallyVaries) {
  Random64 rng(1234);
  uint64_t prev = 0;
  uint64_t first = DecorrelatedJitterUs(rng, 100, 100000, &prev);
  bool varied = false;
  for (int i = 0; i < 50 && !varied; ++i) {
    varied = DecorrelatedJitterUs(rng, 100, 100000, &prev) != first;
  }
  EXPECT_TRUE(varied) << "50 consecutive identical jitter draws";
}

TEST(RetryStateTest, DeterministicLadderWithoutJitter) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 1000;
  p.multiplier = 2.0;
  p.decorrelated_jitter = false;
  RetryState state(p);
  Random64 rng(1);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 100u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 200u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 400u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 800u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 1000u);  // capped
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 1000u);  // stays capped
}

TEST(RetryStateTest, JitterStaysWithinEnvelope) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 5000;
  RetryState state(p);
  Random64 rng(42);
  for (int i = 0; i < 200; ++i) {
    uint64_t sleep_us = state.NextBackoffUs(rng, Status::Aborted());
    EXPECT_GE(sleep_us, p.initial_backoff_us);
    EXPECT_LE(sleep_us, p.max_backoff_us);
  }
}

TEST(RetryStateTest, JitterActuallyVaries) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 100000;
  RetryState state(p);
  Random64 rng(7);
  uint64_t first = state.NextBackoffUs(rng, Status::Aborted());
  bool varied = false;
  for (int i = 0; i < 50 && !varied; ++i) {
    varied = state.NextBackoffUs(rng, Status::Aborted()) != first;
  }
  EXPECT_TRUE(varied);
}

TEST(RetryStateTest, ZeroInitialBackoffMeansNoSleep) {
  RetryPolicy p;
  p.max_attempts = 4;
  p.initial_backoff_us = 0;
  RetryState state(p);
  Random64 rng(3);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 0u);
}

TEST(RetryStateTest, ExhaustedByAttempts) {
  RetryPolicy p;
  p.max_attempts = 3;
  RetryState state(p);
  EXPECT_FALSE(state.Exhausted(1, 0));
  EXPECT_FALSE(state.Exhausted(2, 0));
  EXPECT_TRUE(state.Exhausted(3, 0));
}

TEST(RetryStateTest, ExhaustedByDeadline) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.deadline_us = 5000;
  RetryState state(p);
  EXPECT_FALSE(state.Exhausted(1, 4999));
  EXPECT_TRUE(state.Exhausted(1, 5000));
}

TEST(RetryStateTest, DisabledPolicyExhaustsImmediately) {
  RetryPolicy p;  // max_attempts = 1
  RetryState state(p);
  EXPECT_TRUE(state.Exhausted(1, 0));
}

TEST(RetryAfterHintTest, ParsesTheEmbeddedWait) {
  EXPECT_EQ(RetryAfterUsHint(Status::RateLimited("container busy; retry_after_us=1234")),
            1234u);
  EXPECT_EQ(RetryAfterUsHint(Status::Unavailable("breaker open; retry_after_us=50000")),
            50000u);
  EXPECT_EQ(RetryAfterUsHint(Status::RateLimited("no hint here")), 0u);
  EXPECT_EQ(RetryAfterUsHint(Status::OK()), 0u);
}

TEST(RetryStateTest, ThrottleClassWaitsTheCooldownNotTheLadder) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 100'000;
  p.multiplier = 2.0;
  p.decorrelated_jitter = false;
  p.throttle_cooldown_us = 5000;
  RetryState state(p);
  Random64 rng(1);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::RateLimited("503")), 5000u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Unavailable("breaker open")), 5000u);
}

TEST(RetryStateTest, ServerSuggestedWaitOverridesASmallerCooldown) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.decorrelated_jitter = false;
  p.throttle_cooldown_us = 1000;
  RetryState state(p);
  Random64 rng(1);
  EXPECT_EQ(state.NextBackoffUs(
                rng, Status::RateLimited("busy; retry_after_us=8000")),
            8000u);
  // A hint below the cooldown never shortens the wait.
  EXPECT_EQ(state.NextBackoffUs(
                rng, Status::RateLimited("busy; retry_after_us=10")),
            1000u);
}

TEST(RetryStateTest, ThrottleWaitsDoNotAdvanceTheExponentialLadder) {
  // Regression for the throttle-class backoff: a cooldown in the middle of
  // the schedule must not consume a ladder step — backing off from a
  // saturated container is not congestion probing.
  RetryPolicy p;
  p.max_attempts = 10;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 100'000;
  p.multiplier = 2.0;
  p.decorrelated_jitter = false;
  p.throttle_cooldown_us = 7777;
  RetryState state(p);
  Random64 rng(1);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 100u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::RateLimited("503")), 7777u);
  EXPECT_EQ(state.NextBackoffUs(rng, Status::RateLimited("503")), 7777u);
  // The ladder resumed where it was.
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 200u);
}

TEST(RetryStateTest, ThrottleJitterStaysWithinAQuarter) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.decorrelated_jitter = true;
  p.throttle_cooldown_us = 1000;
  RetryState state(p);
  Random64 rng(42);
  for (int i = 0; i < 100; ++i) {
    uint64_t wait = state.NextBackoffUs(rng, Status::RateLimited("503"));
    EXPECT_GE(wait, 1000u);
    EXPECT_LE(wait, 1250u);
  }
}

TEST(RetryStateTest, LeadershipChangeRidesTheThrottlePathNotTheLadder) {
  // Regression for failover handling: NotLeader is a server-state signal
  // like a throttle — the client should wait out the election window, not
  // climb the congestion ladder as if the store were overloaded.
  RetryPolicy p;
  p.max_attempts = 10;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 100'000;
  p.multiplier = 2.0;
  p.decorrelated_jitter = false;
  p.throttle_cooldown_us = 3000;
  RetryState state(p);
  Random64 rng(1);
  ASSERT_TRUE(Status::NotLeader("election").IsLeadershipChange());
  ASSERT_TRUE(Status::NotLeader("election").IsRetryable());
  EXPECT_FALSE(Status::Unavailable("down").IsLeadershipChange());
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 100u);
  EXPECT_EQ(state.NextBackoffUs(
                rng, Status::NotLeader("election in progress")),
            3000u);
  EXPECT_EQ(state.NextBackoffUs(
                rng, Status::NotLeader("election in progress")),
            3000u);
  // The ladder resumed where it was.
  EXPECT_EQ(state.NextBackoffUs(rng, Status::Aborted()), 200u);
}

TEST(RetryStateTest, NotLeaderRetryAfterHintOverridesTheCooldown) {
  // A wall-clock-scripted election embeds the remaining window in the
  // rejection; the client should wait that out rather than hammering.
  RetryPolicy p;
  p.max_attempts = 10;
  p.decorrelated_jitter = false;
  p.throttle_cooldown_us = 1000;
  RetryState state(p);
  Random64 rng(1);
  EXPECT_EQ(state.NextBackoffUs(
                rng, Status::NotLeader(
                         "not leader: election in progress; "
                         "redirect=region-1; retry_after_us=9000")),
            9000u);
}

TEST(RetryPolicyTest, ThrottleCooldownDefaultsToTheBreakerCooldown) {
  Properties props;
  props.Set("breaker.cooldown_us", "40000");
  EXPECT_EQ(RetryPolicy::FromProperties(props).throttle_cooldown_us, 40000u);
  // An explicit retry-side setting wins.
  props.Set("retry.throttle_cooldown_us", "600");
  EXPECT_EQ(RetryPolicy::FromProperties(props).throttle_cooldown_us, 600u);
  // And with neither set, the baked-in default applies.
  EXPECT_EQ(RetryPolicy::FromProperties(Properties()).throttle_cooldown_us,
            25000u);
}

}  // namespace
}  // namespace ycsbt
