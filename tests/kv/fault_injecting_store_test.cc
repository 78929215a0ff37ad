#include "kv/fault_injecting_store.h"
#include "batch_schedule.h"
#include "str_cat.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/op_context.h"
#include "common/rpc_executor.h"

namespace ycsbt {
namespace kv {
namespace {

FaultOptions ErrorOnlyOptions(double rate, uint64_t seed = 0xFA117C0DEull) {
  FaultOptions o;
  o.seed = seed;
  o.error_rate = rate;
  return o;
}

std::unique_ptr<FaultInjectingStore> MakeStore(const FaultOptions& options) {
  auto store =
      std::make_unique<FaultInjectingStore>(std::make_shared<ShardedStore>(), options);
  store->set_enabled(true);
  return store;
}

TEST(FaultOptionsTest, FromProperties) {
  Properties props;
  props.Set("fault.seed", "99");
  props.Set("fault.error_rate", "0.25");
  props.Set("fault.throttle_rate", "0.1");
  props.Set("fault.throttle_burst", "7");
  props.Set("fault.latency_spike_rate", "0.05");
  props.Set("fault.latency_spike_us", "500");
  props.Set("fault.lost_reply_rate", "0.02");
  props.Set("fault.crash_rate", "0.5");
  props.Set("fault.crash_points", "after_lock_puts, before_tsr_delete");
  FaultOptions o = FaultOptions::FromProperties(props);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_DOUBLE_EQ(o.error_rate, 0.25);
  EXPECT_DOUBLE_EQ(o.throttle_rate, 0.1);
  EXPECT_EQ(o.throttle_burst, 7);
  EXPECT_DOUBLE_EQ(o.latency_spike_rate, 0.05);
  EXPECT_EQ(o.latency_spike_us, 500u);
  EXPECT_DOUBLE_EQ(o.lost_reply_rate, 0.02);
  EXPECT_DOUBLE_EQ(o.crash_rate, 0.5);
  EXPECT_EQ(o.crash_points, CrashPointBit(CrashPoint::kAfterLockPuts) |
                                CrashPointBit(CrashPoint::kBeforeTsrDelete));
  EXPECT_TRUE(o.Any());
}

TEST(FaultOptionsTest, AllCrashPointsToken) {
  Properties props;
  props.Set("fault.crash_points", "all");
  FaultOptions o = FaultOptions::FromProperties(props);
  for (CrashPoint p :
       {CrashPoint::kAfterLockPuts, CrashPoint::kAfterTsrPut,
        CrashPoint::kMidRollForward, CrashPoint::kBeforeTsrDelete}) {
    EXPECT_NE(o.crash_points & CrashPointBit(p), 0u) << CrashPointName(p);
  }
}

TEST(FaultOptionsTest, CrashPointTokensAreTheDeclaredList) {
  for (uint32_t i = 0; i < kCrashPointCount; ++i) {
    CrashPoint p = static_cast<CrashPoint>(i);
    EXPECT_EQ(ParseCrashPointToken(CrashPointName(p)), CrashPointBit(p));
  }
  EXPECT_EQ(ParseCrashPointToken("before_roll_forward"),
            CrashPointBit(CrashPoint::kAfterTsrPut));
  EXPECT_EQ(ParseCrashPointToken("after_lock_put"), 0u);
  EXPECT_TRUE(
      kFaultCrashPoints.Check(kFaultCrashPoints.name, "after_lock_puts, all").ok());
  EXPECT_TRUE(kFaultCrashPoints.Check(kFaultCrashPoints.name, "after_lock_put")
                  .IsInvalidArgument());
}

TEST(FaultOptionsTest, DefaultIsInert) {
  EXPECT_FALSE(FaultOptions::FromProperties(Properties()).Any());
}

TEST(FaultInjectingStoreTest, DisarmedStoreInjectsNothing) {
  FaultOptions o = ErrorOnlyOptions(1.0);  // every request would fail
  FaultInjectingStore store(std::make_shared<ShardedStore>(), o);
  ASSERT_FALSE(store.enabled());  // constructed disarmed
  ASSERT_TRUE(store.Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(store.stats().TotalInjected(), 0u);
  EXPECT_EQ(store.stats().requests, 0u);
}

TEST(FaultInjectingStoreTest, InjectedErrorsAreTransientRejections) {
  auto store = MakeStore(ErrorOnlyOptions(1.0));
  Status s = store->Put("k", "v");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTimeout() || s.IsIOError()) << s.ToString();
  // The base op must NOT have applied.
  store->set_enabled(false);
  std::string value;
  EXPECT_TRUE(store->Get("k", &value).IsNotFound());
}

TEST(FaultInjectingStoreTest, SameSeedSameSequenceIsIdentical) {
  auto run = [](uint64_t seed) {
    FaultOptions o;
    o.seed = seed;
    o.error_rate = 0.3;
    o.throttle_rate = 0.05;
    o.lost_reply_rate = 0.1;
    auto store = MakeStore(o);
    std::vector<Status::Code> outcomes;
    for (int i = 0; i < 400; ++i) {
      std::string key = StrCat("k", i % 32);
      Status s = (i % 3 == 0) ? store->Get(key, nullptr)
                              : store->Put(key, StrCat("v", i));
      outcomes.push_back(s.code());
    }
    return std::make_pair(outcomes, store->stats());
  };

  auto [outcomes_a, stats_a] = run(1234);
  auto [outcomes_b, stats_b] = run(1234);
  EXPECT_EQ(outcomes_a, outcomes_b);  // full schedule replay
  EXPECT_EQ(stats_a.errors, stats_b.errors);
  EXPECT_EQ(stats_a.timeouts, stats_b.timeouts);
  EXPECT_EQ(stats_a.throttles, stats_b.throttles);
  EXPECT_EQ(stats_a.lost_replies, stats_b.lost_replies);
  EXPECT_GT(stats_a.TotalInjected(), 0u);

  auto [outcomes_c, stats_c] = run(9999);
  EXPECT_NE(outcomes_a, outcomes_c);  // a different seed is a different world
}

TEST(FaultInjectingStoreTest, HedgesDrawFromTheirOwnStream) {
  // Whether a hedge fires is a wall-clock decision; if hedges drew from the
  // primaries' tickets, one extra hedge would shift every later fault of a
  // same-seed run.  They are faulted all the same, and counted apart.
  auto outcomes = [](int hedges) {
    auto store = MakeStore(ErrorOnlyOptions(0.5));
    int hedge_faults = 0;
    {
      OpHedgeScope hedge;
      for (int i = 0; i < hedges; ++i) {
        if (!store->Get("k", nullptr).IsNotFound()) ++hedge_faults;
      }
    }
    if (hedges > 0) {
      EXPECT_GT(hedge_faults, 0) << "hedges must be faulted";
      EXPECT_LT(hedge_faults, hedges);
    }
    FaultStats before = store->stats();
    EXPECT_EQ(before.requests, 0u);
    EXPECT_EQ(before.errors + before.timeouts, 0u);
    EXPECT_EQ(before.hedges, static_cast<uint64_t>(hedges));
    EXPECT_EQ(before.hedge_faults, static_cast<uint64_t>(hedge_faults));
    std::vector<Status::Code> codes;
    for (int i = 0; i < 64; ++i) codes.push_back(store->Get("k", nullptr).code());
    EXPECT_EQ(store->stats().requests, 64u);
    return codes;
  };
  EXPECT_EQ(outcomes(32), outcomes(0));
}

TEST(FaultInjectingStoreTest, HedgeFailsUnderCertainErrors) {
  auto store = MakeStore(ErrorOnlyOptions(1.0));
  OpHedgeScope hedge;
  Status s = store->Get("k", nullptr);
  EXPECT_TRUE(s.IsIOError() || s.IsTimeout()) << s.ToString();
  EXPECT_EQ(store->stats().hedge_faults, 1u);
}

TEST(FaultInjectingStoreTest, ThrottleBurstRejectsHedgesWithoutDrainingIt) {
  FaultOptions o;
  o.throttle_rate = 1.0;  // every draw throttles
  o.throttle_burst = 3;
  auto store = MakeStore(o);
  auto message = [&] { return store->Get("k", nullptr).ToString(); };
  EXPECT_NE(message().find("injected: throttled"), std::string::npos);
  {
    OpHedgeScope hedge;  // 2 burst slots left: hedges meet the burst
    for (int i = 0; i < 4; ++i) {
      EXPECT_NE(message().find("throttle burst"), std::string::npos) << i;
    }
  }
  // The hedges drained nothing: the next two primaries still meet the
  // burst, and only the third draws (and throttles) on its own.
  EXPECT_NE(message().find("throttle burst"), std::string::npos);
  EXPECT_NE(message().find("throttle burst"), std::string::npos);
  EXPECT_NE(message().find("injected: throttled"), std::string::npos);
  EXPECT_EQ(store->stats().throttles, 4u);
  EXPECT_EQ(store->stats().hedge_faults, 4u);
}

TEST(FaultInjectingStoreTest, LostReplyAppliesTheMutation) {
  FaultOptions o;
  o.lost_reply_rate = 1.0;  // every mutation applies but reports Timeout
  auto store = MakeStore(o);
  Status s = store->Put("k", "v");
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  EXPECT_EQ(store->stats().lost_replies, 1u);
  // The write IS there — the ambiguity the txn layer must arbitrate.
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(FaultInjectingStoreTest, ThrottleBurstRejectsFollowingRequests) {
  FaultOptions o;
  o.throttle_rate = 1.0;  // first draw starts a burst immediately
  o.throttle_burst = 4;
  auto store = MakeStore(o);
  for (int i = 0; i < 4; ++i) {
    Status s = store->Get("k", nullptr);
    EXPECT_TRUE(s.IsRateLimited()) << i << ": " << s.ToString();
  }
  EXPECT_EQ(store->stats().throttles, 4u);
}

TEST(FaultInjectingStoreTest, CrashPointsRespectTheMask) {
  FaultOptions o;
  o.crash_rate = 1.0;
  o.crash_points = CrashPointBit(CrashPoint::kAfterTsrPut);
  auto store = MakeStore(o);
  EXPECT_FALSE(store->ShouldCrash(CrashPoint::kAfterLockPuts));
  EXPECT_TRUE(store->ShouldCrash(CrashPoint::kAfterTsrPut));
  EXPECT_FALSE(store->ShouldCrash(CrashPoint::kBeforeTsrDelete));
  EXPECT_EQ(store->stats().crashes, 1u);
}

TEST(FaultInjectingStoreTest, ParseCrashPointTokens) {
  EXPECT_EQ(ParseCrashPointToken("after_lock_puts"),
            CrashPointBit(CrashPoint::kAfterLockPuts));
  EXPECT_EQ(ParseCrashPointToken("after_tsr_put"),
            CrashPointBit(CrashPoint::kAfterTsrPut));
  // The paper-facing alias: the commit point IS the TSR put.
  EXPECT_EQ(ParseCrashPointToken("before_roll_forward"),
            CrashPointBit(CrashPoint::kAfterTsrPut));
  EXPECT_EQ(ParseCrashPointToken("mid_roll_forward"),
            CrashPointBit(CrashPoint::kMidRollForward));
  EXPECT_EQ(ParseCrashPointToken("before_tsr_delete"),
            CrashPointBit(CrashPoint::kBeforeTsrDelete));
  EXPECT_EQ(ParseCrashPointToken("nonsense"), 0u);
}

// Characterization pin: a fixed batch schedule with errors, throttle bursts
// and lost replies armed.  Admission and lost-reply draws run in item order,
// so the rows and counters are fixed by the seed.  The expected strings were
// recorded before the batch bodies moved onto the shared admission helper.
std::pair<std::string, std::string> RunFaultBatchPin(
    std::shared_ptr<RpcExecutor> executor) {
  auto engine = std::make_shared<ShardedStore>();
  engine->set_executor(std::move(executor));
  FaultOptions o;
  o.seed = 77;
  o.error_rate = 0.2;
  o.throttle_rate = 0.08;
  o.throttle_burst = 3;
  o.lost_reply_rate = 0.25;
  FaultInjectingStore store(engine, o);
  store.set_enabled(true);
  std::string rows = RunBatchSchedule(store);
  return {rows, CollectedCounters(store)};
}

constexpr const char* kFaultPinRows =
    "NotFound | Timeout NotFound | "
    "RateLimited RateLimited RateLimited NotFound NotFound | "
    "Conflict | NotFound Timeout | OK NotFound Conflict OK OK | "
    "NotFound | Timeout Timeout | "
    "NotFound Timeout NotFound Timeout NotFound | Conflict | "
    "IOError NotFound | "
    "Conflict Timeout Timeout NotFound Conflict | OK | "
    "OK NotFound | OK NotFound Timeout Timeout OK | Conflict | "
    "OK IOError | OK IOError Timeout OK Timeout | IOError | "
    "Conflict OK | OK OK NotFound OK NotFound | Conflict | "
    "NotFound OK | Conflict Timeout Timeout OK IOError | OK | "
    "Conflict IOError | "
    "RateLimited RateLimited RateLimited NotFound IOError | "
    "Conflict | IOError OK | OK OK Timeout OK OK";
constexpr const char* kFaultPinCounters =
    "FAULT REQUESTS=80, FAULT ERRORS=8, FAULT TIMEOUTS=10, "
    "FAULT THROTTLES=6, FAULT LATENCY SPIKES=0, "
    "FAULT LOST REPLIES=5, FAULT CRASHES=0, FAULT HEDGES=0, "
    "FAULT HEDGE FAULTS=0";

TEST(FaultInjectingStoreTest, BatchSchedulePin) {
  auto [rows, counters] = RunFaultBatchPin(nullptr);
  EXPECT_EQ(rows, kFaultPinRows);
  EXPECT_EQ(counters, kFaultPinCounters);
}

TEST(FaultInjectingStoreTest, BatchSchedulePinHoldsUnderFanOut) {
  auto [rows, counters] = RunFaultBatchPin(std::make_shared<RpcExecutor>(4));
  EXPECT_EQ(rows, kFaultPinRows);
  EXPECT_EQ(counters, kFaultPinCounters);
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
