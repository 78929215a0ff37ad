// The brownout admission controller: breaker-triggered and latency-
// triggered shedding, read-only-first drop policy, the in-flight cap, and
// recovery once the store cools down.

#include "core/brownout.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "kv/store.h"

namespace ycsbt {
namespace core {
namespace {

/// A resilient store whose single breaker the test can trip at will.
std::shared_ptr<kv::ResilientStore> MakeResilient() {
  kv::ResilienceOptions o;
  o.breaker.enabled = true;
  o.breaker.window = 4;
  o.breaker.min_samples = 2;
  o.breaker.failure_ratio = 0.5;
  o.breaker.cooldown_us = 10'000'000;
  o.breaker.cooldown_rejects = 1000;  // stays open for the whole test
  return std::make_shared<kv::ResilientStore>(
      std::make_shared<kv::ShardedStore>(), o, 1);
}

void TripBreaker(kv::ResilientStore& store) {
  for (int i = 0; i < 2; ++i) {
    CircuitBreaker& b = store.breakers()->backend(0);
    CircuitBreaker::Ticket t = b.Admit();
    ASSERT_TRUE(t.admitted);
    b.OnResult(Status::RateLimited("503"), t.probe);
  }
  ASSERT_TRUE(store.AnyBreakerOpen());
}

BrownoutOptions DefaultOn() {
  BrownoutOptions o;
  o.enabled = true;
  o.max_inflight = 2;
  o.drop_read_only = true;
  return o;
}

TEST(BrownoutTest, HealthySystemAdmitsEverything) {
  auto resilient = MakeResilient();
  BrownoutController c(DefaultOn(), resilient.get());
  EXPECT_FALSE(c.BrownedOut());
  EXPECT_FALSE(c.WantsReadOnlyHint());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(c.AdmitTxn(i % 2 == 0));
  EXPECT_EQ(c.sheds(), 0u);
}

TEST(BrownoutTest, OpenBreakerTriggersBrownout) {
  auto resilient = MakeResilient();
  BrownoutController c(DefaultOn(), resilient.get());
  TripBreaker(*resilient);
  EXPECT_TRUE(c.BrownedOut());
  EXPECT_TRUE(c.WantsReadOnlyHint());
}

TEST(BrownoutTest, ReadOnlyTransactionsAreShedFirst) {
  auto resilient = MakeResilient();
  BrownoutController c(DefaultOn(), resilient.get());
  TripBreaker(*resilient);
  // Read-only work is dropped outright...
  EXPECT_FALSE(c.AdmitTxn(/*read_only=*/true));
  EXPECT_FALSE(c.AdmitTxn(/*read_only=*/true));
  // ...while writes are admitted up to the in-flight cap.
  EXPECT_TRUE(c.AdmitTxn(/*read_only=*/false));
  EXPECT_TRUE(c.AdmitTxn(/*read_only=*/false));
  EXPECT_FALSE(c.AdmitTxn(/*read_only=*/false));  // cap of 2 reached
  EXPECT_EQ(c.sheds(), 3u);
  EXPECT_EQ(c.shed_reads(), 2u);
}

TEST(BrownoutTest, FinishedTransactionsFreeInflightSlots) {
  auto resilient = MakeResilient();
  BrownoutOptions o = DefaultOn();
  o.max_inflight = 1;
  BrownoutController c(o, resilient.get());
  TripBreaker(*resilient);
  ASSERT_TRUE(c.AdmitTxn(false));
  EXPECT_FALSE(c.AdmitTxn(false));  // slot taken
  c.OnTxnDone();
  EXPECT_TRUE(c.AdmitTxn(false));  // slot released
}

TEST(BrownoutTest, ATrickleAlwaysFlowsSoTheBreakerCanRecover) {
  // max_inflight must stay > 0 in practice: shedding *everything* while the
  // breaker is open would starve it of the arrivals that burn the cooldown
  // and become probes.  Verify the policy admits writes one at a time.
  auto resilient = MakeResilient();
  BrownoutOptions o = DefaultOn();
  o.max_inflight = 1;
  BrownoutController c(o, resilient.get());
  TripBreaker(*resilient);
  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    if (c.AdmitTxn(false)) {
      ++admitted;
      c.OnTxnDone();
    }
  }
  EXPECT_EQ(admitted, 50);
}

TEST(BrownoutTest, ZeroCapAdmitsWritesUncapped) {
  auto resilient = MakeResilient();
  BrownoutOptions o = DefaultOn();
  o.max_inflight = 0;  // explicit "no cap"
  BrownoutController c(o, resilient.get());
  TripBreaker(*resilient);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(c.AdmitTxn(false));
  EXPECT_FALSE(c.AdmitTxn(true));  // reads still dropped first
}

TEST(BrownoutTest, LatencyTriggerNeedsConsecutiveHotWindows) {
  BrownoutOptions o = DefaultOn();
  o.queue_delay_us = 1000.0;
  o.windows = 2;
  BrownoutController c(o, nullptr);  // no breaker wired: latency only
  c.ReportWindow(5000.0);
  EXPECT_FALSE(c.BrownedOut());  // one hot window is noise
  c.ReportWindow(5000.0);
  EXPECT_TRUE(c.BrownedOut());  // two consecutive: sustained queue delay
  // A cool window resets both the trigger and the streak.
  c.ReportWindow(100.0);
  EXPECT_FALSE(c.BrownedOut());
  c.ReportWindow(5000.0);
  EXPECT_FALSE(c.BrownedOut());
}

TEST(BrownoutTest, LatencyTriggerOffByDefault) {
  BrownoutController c(DefaultOn(), nullptr);  // queue_delay_us = 0
  for (int i = 0; i < 10; ++i) c.ReportWindow(1e9);
  EXPECT_FALSE(c.BrownedOut());
}

TEST(BrownoutTest, FromPropertiesParses) {
  Properties props;
  props.Set("shed.enabled", "true");
  props.Set("shed.max_inflight", "0");
  props.Set("shed.drop_reads", "false");
  props.Set("shed.queue_delay_us", "2500");
  props.Set("shed.windows", "1");
  BrownoutOptions o = BrownoutOptions::FromProperties(props);
  EXPECT_TRUE(o.enabled);
  EXPECT_EQ(o.max_inflight, 0);
  EXPECT_FALSE(o.drop_read_only);
  EXPECT_DOUBLE_EQ(o.queue_delay_us, 2500.0);
  EXPECT_EQ(o.windows, 1);
  EXPECT_FALSE(BrownoutOptions::FromProperties(Properties()).enabled);
}

TEST(BrownoutTest, OutOfRangeValuesAreRejected) {
  // Single-key ranges are declared: nonsense is an error, not a clamp.
  for (const auto& [key, value] : {std::pair{"shed.max_inflight", "-5"},
                                   std::pair{"shed.windows", "0"}}) {
    Properties bad;
    bad.Set(key, value);
    Status s = CheckDeclaredProperties(bad, kBrownoutProperties);
    EXPECT_TRUE(s.IsInvalidArgument()) << key;
    EXPECT_NE(s.message().find(key), std::string::npos) << s.ToString();
  }
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
