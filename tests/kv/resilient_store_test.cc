// The overload-tolerance decorator: deadline fail-fast, per-backend breaker
// fencing, hedged reads (win/waste/never-for-mutations), the exempt escape
// hatch, and the adaptive hedge delay — all against a scripted fake store
// that counts exactly which requests reach the backend.

#include "kv/resilient_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/latency_model.h"
#include "common/op_context.h"
#include "common/retry_policy.h"
#include "common/rpc_executor.h"
#include "kv/fault_injecting_store.h"
#include "txn/client_txn_store.h"
#include "batch_schedule.h"

namespace ycsbt {
namespace {

/// Scripted backend: counts arrivals per op class, optionally stalls the
/// first primary Get/Scan (the hedging tests' "latency spike"), optionally
/// fails calls with a fixed status.  Reads are told apart by
/// `OpContext::hedge`, never by arrival order (a loaded host may deliver the
/// hedge first): primaries answer "primary", hedges answer "hedge", so tests
/// can tell whose result won.
class ScriptedStore : public kv::Store {
 public:
  std::atomic<int> gets{0}, puts{0}, cputs{0}, dels{0}, cdels{0}, scans{0};
  Status fail_with = Status::OK();   // every op fails with this when set
  Status hedge_get_status = Status::OK();  // hedged gets fail with this
  uint64_t first_read_sleep_us = 0;  // the first primary get/scan stalls
  std::mutex mu;                     // guards get_was_hedge
  std::vector<bool> get_was_hedge;   // OpContext::hedge per get

  Status Get(const std::string&, std::string* value, uint64_t* etag) override {
    bool hedge = CurrentOpContext().hedge;
    {
      std::lock_guard<std::mutex> lock(mu);
      get_was_hedge.push_back(hedge);
    }
    int n = gets.fetch_add(1);
    if (!hedge) StallFirstPrimary(primary_gets_);
    if (!fail_with.ok()) return fail_with;
    if (hedge && !hedge_get_status.ok()) return hedge_get_status;
    if (value != nullptr) *value = hedge ? "hedge" : "primary";
    if (etag != nullptr) *etag = static_cast<uint64_t>(n) + 1;
    return Status::OK();
  }
  Status Put(const std::string&, std::string_view, uint64_t* etag_out) override {
    puts.fetch_add(1);
    if (!fail_with.ok()) return fail_with;
    if (etag_out != nullptr) *etag_out = 1;
    return Status::OK();
  }
  Status ConditionalPut(const std::string&, std::string_view, uint64_t,
                        uint64_t* etag_out) override {
    cputs.fetch_add(1);
    if (!fail_with.ok()) return fail_with;
    if (etag_out != nullptr) *etag_out = 1;
    return Status::OK();
  }
  Status Delete(const std::string&) override {
    dels.fetch_add(1);
    return fail_with;
  }
  Status ConditionalDelete(const std::string&, uint64_t) override {
    cdels.fetch_add(1);
    return fail_with;
  }
  Status Scan(const std::string&, size_t,
              std::vector<kv::ScanEntry>* out) override {
    bool hedge = CurrentOpContext().hedge;
    scans.fetch_add(1);
    if (!hedge) StallFirstPrimary(primary_scans_);
    if (!fail_with.ok()) return fail_with;
    if (out != nullptr) {
      out->clear();
      out->push_back({"k", hedge ? "hedge" : "primary", 1});
    }
    return Status::OK();
  }
  size_t Count() const override { return 0; }

 private:
  void StallFirstPrimary(std::atomic<int>& primaries) {
    if (primaries.fetch_add(1) == 0 && first_read_sleep_us > 0) {
      SleepMicros(first_read_sleep_us);
    }
  }

  std::atomic<int> primary_gets_{0}, primary_scans_{0};
};

kv::ResilienceOptions BreakerOnlyOptions() {
  kv::ResilienceOptions o;
  o.breaker.enabled = true;
  o.breaker.window = 4;
  o.breaker.min_samples = 2;
  o.breaker.failure_ratio = 0.5;
  o.breaker.cooldown_us = 10'000'000;  // wall clock out of the picture
  o.breaker.cooldown_rejects = 2;
  o.breaker.probes = 1;
  return o;
}

kv::ResilienceOptions HedgeOptions(int64_t delay_us) {
  kv::ResilienceOptions o;
  o.hedge_enabled = true;
  o.hedge_delay_us = delay_us;
  o.hedge_workers = 2;
  return o;
}

TEST(ResilientStoreTest, ExpiredDeadlineFailsFastWithoutAnRpc) {
  auto base = std::make_shared<ScriptedStore>();
  kv::ResilientStore store(base, kv::ResilienceOptions{}, 1);
  OpDeadlineScope deadline(1);
  SleepMicros(2000);
  std::string value;
  EXPECT_TRUE(store.Get("k", &value).IsTimeout());
  EXPECT_TRUE(store.Put("k", "v").IsTimeout());
  EXPECT_TRUE(store.ConditionalPut("k", "v", kv::kEtagAbsent).IsTimeout());
  EXPECT_TRUE(store.Delete("k").IsTimeout());
  std::vector<kv::ScanEntry> rows;
  EXPECT_TRUE(store.Scan("", 10, &rows).IsTimeout());
  // Not one request reached the backend.
  EXPECT_EQ(base->gets.load(), 0);
  EXPECT_EQ(base->puts.load(), 0);
  EXPECT_EQ(base->cputs.load(), 0);
  EXPECT_EQ(base->dels.load(), 0);
  EXPECT_EQ(base->scans.load(), 0);
  EXPECT_EQ(store.stats().deadline_rejects, 5u);
}

TEST(ResilientStoreTest, LiveDeadlinePassesThrough) {
  auto base = std::make_shared<ScriptedStore>();
  kv::ResilientStore store(base, kv::ResilienceOptions{}, 1);
  OpDeadlineScope deadline(10'000'000);  // 10s: nowhere near expiry
  std::string value;
  EXPECT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(base->gets.load(), 1);
  EXPECT_EQ(store.stats().deadline_rejects, 0u);
}

TEST(ResilientStoreTest, ExemptScopeBypassesTheDeadline) {
  // Post-commit-point cleanup must keep flowing even past the deadline.
  auto base = std::make_shared<ScriptedStore>();
  kv::ResilientStore store(base, kv::ResilienceOptions{}, 1);
  OpDeadlineScope deadline(1);
  SleepMicros(2000);
  OpExemptScope exempt;
  std::string value;
  EXPECT_TRUE(store.Get("k", &value).ok());
  EXPECT_TRUE(store.Delete("k").ok());
  EXPECT_EQ(base->gets.load(), 1);
  EXPECT_EQ(base->dels.load(), 1);
  EXPECT_EQ(store.stats().deadline_rejects, 0u);
}

TEST(ResilientStoreTest, BreakerFencesAFailingBackendThenRecovers) {
  auto base = std::make_shared<ScriptedStore>();
  base->fail_with = Status::RateLimited("container busy");
  kv::ResilientStore store(base, BreakerOnlyOptions(), 1);
  std::string value;

  // Two failures reach min_samples at 100% failure: the breaker trips.
  EXPECT_TRUE(store.Get("a", &value).IsRateLimited());
  EXPECT_TRUE(store.Get("b", &value).IsRateLimited());
  EXPECT_EQ(store.stats().breaker.opens, 1u);
  EXPECT_TRUE(store.AnyBreakerOpen());

  // Open: arrivals fail fast with Unavailable, and the backend is left
  // alone.  (No retry_after hint here: this breaker cools down by arrival
  // count, so the retry loop should come back quickly, not sleep.)
  int before = base->gets.load();
  Status fast = store.Get("c", &value);
  EXPECT_TRUE(fast.IsUnavailable());
  EXPECT_EQ(RetryAfterUsHint(fast), 0u);
  EXPECT_TRUE(store.Put("c", "v").IsUnavailable());
  EXPECT_EQ(base->gets.load(), before);
  EXPECT_EQ(base->puts.load(), 0);
  EXPECT_EQ(store.stats().breaker.fast_fails, 2u);

  // The count-based cooldown is burned (2 rejects): the backend heals, the
  // next arrival probes, and one probe success re-closes.
  base->fail_with = Status::OK();
  EXPECT_TRUE(store.Get("d", &value).ok());
  EXPECT_EQ(store.stats().breaker.probes_sent, 1u);
  EXPECT_EQ(store.stats().breaker.recloses, 1u);
  EXPECT_FALSE(store.AnyBreakerOpen());
  EXPECT_TRUE(store.Get("e", &value).ok());
}

TEST(ResilientStoreTest, WallClockCooldownAdvertisesItsRetryAfterHint) {
  // With a purely wall-clock cooldown the fail-fast tells the retry loop
  // exactly how long the breaker will stay shut.
  auto base = std::make_shared<ScriptedStore>();
  base->fail_with = Status::RateLimited("busy");
  kv::ResilienceOptions o = BreakerOnlyOptions();
  o.breaker.cooldown_us = 30'000;
  o.breaker.cooldown_rejects = 0;  // clock only
  kv::ResilientStore store(base, o, 1);
  std::string value;
  store.Get("a", &value);
  store.Get("b", &value);
  ASSERT_TRUE(store.AnyBreakerOpen());
  Status fast = store.Get("c", &value);
  ASSERT_TRUE(fast.IsUnavailable());
  EXPECT_EQ(RetryAfterUsHint(fast), 30'000u);
}

TEST(ResilientStoreTest, ApplicationOutcomesNeverTripTheBreaker) {
  auto base = std::make_shared<ScriptedStore>();
  base->fail_with = Status::Conflict("etag mismatch");
  kv::ResilientStore store(base, BreakerOnlyOptions(), 1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.ConditionalPut("k", "v", 1).IsConflict());
  }
  EXPECT_FALSE(store.AnyBreakerOpen());
  EXPECT_EQ(store.stats().breaker.opens, 0u);
  EXPECT_EQ(base->cputs.load(), 20);
}

TEST(ResilientStoreTest, ExemptScopeBypassesAnOpenBreaker) {
  auto base = std::make_shared<ScriptedStore>();
  base->fail_with = Status::RateLimited("busy");
  kv::ResilientStore store(base, BreakerOnlyOptions(), 1);
  std::string value;
  store.Get("a", &value);
  store.Get("b", &value);
  ASSERT_TRUE(store.AnyBreakerOpen());
  base->fail_with = Status::OK();
  OpExemptScope exempt;
  int before = base->gets.load();
  EXPECT_TRUE(store.Get("c", &value).ok());
  EXPECT_EQ(base->gets.load(), before + 1);
  // Exempt traffic is invisible to the breaker: it stays open.
  EXPECT_TRUE(store.AnyBreakerOpen());
}

TEST(ResilientStoreTest, HedgeWinsWhenThePrimaryStalls) {
  auto base = std::make_shared<ScriptedStore>();
  base->first_read_sleep_us = 100'000;  // primary stuck behind a spike
  kv::ResilientStore store(base, HedgeOptions(2000), 1);
  Stopwatch watch;
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  // The caller took the hedge's answer and did not wait out the spike.
  EXPECT_EQ(value, "hedge");
  EXPECT_LT(watch.ElapsedMicros(), 100'000u);
  kv::ResilienceStats stats = store.stats();
  EXPECT_EQ(stats.hedges_sent, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.hedges_wasted, 0u);
}

TEST(ResilientStoreTest, HedgedScanWinsToo) {
  auto base = std::make_shared<ScriptedStore>();
  base->first_read_sleep_us = 100'000;
  kv::ResilientStore store(base, HedgeOptions(2000), 1);
  std::vector<kv::ScanEntry> rows;
  ASSERT_TRUE(store.Scan("", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, "hedge");
  EXPECT_EQ(store.stats().hedges_won, 1u);
}

TEST(ResilientStoreTest, FailedHedgeIsWastedAndThePrimaryAnswers) {
  auto base = std::make_shared<ScriptedStore>();
  base->first_read_sleep_us = 20'000;
  base->hedge_get_status = Status::RateLimited("hedge throttled");
  kv::ResilientStore store(base, HedgeOptions(1000), 1);
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(value, "primary");  // the hedge's throttle was not adopted
  kv::ResilienceStats stats = store.stats();
  EXPECT_EQ(stats.hedges_sent, 1u);
  EXPECT_EQ(stats.hedges_won, 0u);
  EXPECT_EQ(stats.hedges_wasted, 1u);
}

TEST(ResilientStoreTest, FastPrimaryNeverTriggersAHedge) {
  auto base = std::make_shared<ScriptedStore>();
  kv::ResilientStore store(base, HedgeOptions(50'000), 1);
  std::string value;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(store.stats().hedges_sent, 0u);
  EXPECT_EQ(base->gets.load(), 10);
}

TEST(ResilientStoreTest, MutationsAreNeverHedgedEvenWhenSlow) {
  // Hedge delay 0 makes every op hedge-eligible by latency; the mutation
  // paths must still issue exactly one backend request each.
  auto base = std::make_shared<ScriptedStore>();
  kv::ResilientStore store(base, HedgeOptions(0), 1);
  ASSERT_TRUE(store.Put("k", "v").ok());
  ASSERT_TRUE(store.ConditionalPut("k", "v", kv::kEtagAbsent).ok());
  ASSERT_TRUE(store.Delete("k").ok());
  ASSERT_TRUE(store.ConditionalDelete("k", 1).ok());
  EXPECT_EQ(base->puts.load(), 1);
  EXPECT_EQ(base->cputs.load(), 1);
  EXPECT_EQ(base->dels.load(), 1);
  EXPECT_EQ(base->cdels.load(), 1);
  EXPECT_EQ(store.stats().hedges_sent, 0u);
  // Sanity: the same configuration does hedge a read whose primary stalls.
  base->first_read_sleep_us = 20'000;
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(store.stats().hedges_sent, 1u);
}

TEST(ResilientStoreTest, ExemptReadsSkipTheHedgingPath) {
  auto base = std::make_shared<ScriptedStore>();
  base->first_read_sleep_us = 5000;
  kv::ResilientStore store(base, HedgeOptions(0), 1);
  OpExemptScope exempt;
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(value, "primary");
  EXPECT_EQ(store.stats().hedges_sent, 0u);
  EXPECT_EQ(base->gets.load(), 1);
}

TEST(ResilientStoreTest, OnlyTheHedgeIsMarkedAsOne) {
  // Layers below (the fault decorator) tell a hedge from its primary by
  // `OpContext::hedge`.
  auto base = std::make_shared<ScriptedStore>();
  base->first_read_sleep_us = 100'000;
  kv::ResilientStore store(base, HedgeOptions(1000), 1);
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(store.stats().hedges_sent, 1u);
  while (base->gets.load() < 2) SleepMicros(100);
  std::lock_guard<std::mutex> lock(base->mu);
  EXPECT_EQ(std::count(base->get_was_hedge.begin(), base->get_was_hedge.end(),
                       true),
            1);
  EXPECT_FALSE(CurrentOpContext().hedge) << "the mark outlived the hedge";
}

TEST(ResilientStoreTest, AdaptiveDelayStartsHighThenTracksFastReads) {
  auto base = std::make_shared<ScriptedStore>();
  kv::ResilienceOptions o = HedgeOptions(-1);  // adaptive
  kv::ResilientStore store(base, o, 1);
  // Under 16 samples: hedge late (the max) rather than flood a cold store.
  EXPECT_EQ(store.CurrentHedgeDelayUs(), o.hedge_delay_max_us);
  std::string value;
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(store.Get("k", &value).ok());
  // Microsecond-fast reads: the p95 clamps up to the configured floor.
  EXPECT_EQ(store.CurrentHedgeDelayUs(), o.hedge_delay_min_us);
}

/// Delegating decorator that makes every mutation slow — far beyond the
/// hedge delay — while reads stay fast, and counts the mutations that reach
/// it.  If mutations could enter the hedging path at all, every lock put /
/// TSR put / cleanup delete of a commit would be hedged — and so arrive
/// twice — under this store.
class SlowMutationStore : public kv::Store {
 public:
  std::atomic<int> puts{0}, cputs{0}, dels{0}, cdels{0};

  explicit SlowMutationStore(std::shared_ptr<kv::Store> base)
      : base_(std::move(base)) {}

  Status Get(const std::string& key, std::string* value,
             uint64_t* etag) override {
    return base_->Get(key, value, etag);
  }
  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out) override {
    puts.fetch_add(1);
    SleepMicros(kMutationUs);
    return base_->Put(key, value, etag_out);
  }
  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag, uint64_t* etag_out) override {
    cputs.fetch_add(1);
    SleepMicros(kMutationUs);
    return base_->ConditionalPut(key, value, expected_etag, etag_out);
  }
  Status Delete(const std::string& key) override {
    dels.fetch_add(1);
    SleepMicros(kMutationUs);
    return base_->Delete(key);
  }
  Status ConditionalDelete(const std::string& key,
                           uint64_t expected_etag) override {
    cdels.fetch_add(1);
    SleepMicros(kMutationUs);
    return base_->ConditionalDelete(key, expected_etag);
  }
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<kv::ScanEntry>* out) override {
    return base_->Scan(start_key, limit, out);
  }
  size_t Count() const override { return base_->Count(); }

  static constexpr uint64_t kMutationUs = 5000;

 private:
  std::shared_ptr<kv::Store> base_;
};

TEST(ResilientStoreTest, TransactionCommitPipelineIsNeverHedged) {
  // The satellite guarantee: the protocol's lock puts, TSR put and cleanup
  // deletes run through a hedging-enabled resilient store while taking 5ms
  // each — five times the 1ms hedge delay, maximally hedge-eligible by
  // latency — yet each reaches the backend exactly once, because only
  // Get/Scan can ever reach the hedging path.  The check counts mutations
  // rather than hedges: a read that a loaded host stalls past the delay
  // may be hedged, and that is hedging working, not a duplicated write.
  auto slow = std::make_shared<SlowMutationStore>(
      std::make_shared<kv::ShardedStore>());
  auto resilient =
      std::make_shared<kv::ResilientStore>(slow, HedgeOptions(1000), 1);
  auto ts = std::make_shared<txn::HlcTimestampSource>();
  txn::ClientTxnStore store(resilient, ts);
  store.LoadPut("a", "1");

  auto txn = store.Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("a", &value).ok());
  ASSERT_TRUE(txn->Write("a", "2").ok());
  ASSERT_TRUE(txn->Write("b", "3").ok());
  ASSERT_TRUE(txn->Commit().ok());
  ASSERT_TRUE(store.ReadCommitted("a", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(store.ReadCommitted("b", &value).ok());
  EXPECT_EQ(value, "3");

  // LoadPut; lock a and b, the TSR put, roll a and b forward; TSR delete.
  EXPECT_EQ(slow->puts.load(), 1);
  EXPECT_EQ(slow->cputs.load(), 5);
  EXPECT_EQ(slow->dels.load(), 1);
  EXPECT_EQ(slow->cdels.load(), 0);
  EXPECT_EQ(store.stats().commits, 1u);
}

// Characterization pin: a fixed batch schedule through a count-based breaker
// over a fault store injecting errors and throttle bursts.  Admission and the
// breaker's settlement run in item order, so the rows and the breaker's
// lifecycle are fixed by the seed.  The expected strings were recorded before
// the batch bodies moved onto the shared admission helper.
std::pair<std::string, std::string> RunResilienceBatchPin(
    std::shared_ptr<RpcExecutor> executor) {
  auto engine = std::make_shared<kv::ShardedStore>();
  engine->set_executor(std::move(executor));
  kv::FaultOptions fo;
  fo.seed = 91;
  fo.error_rate = 0.3;
  fo.throttle_rate = 0.1;
  fo.throttle_burst = 3;
  auto faults = std::make_shared<kv::FaultInjectingStore>(engine, fo);
  faults->set_enabled(true);
  kv::ResilientStore store(faults, BreakerOnlyOptions(), 2);
  std::string rows = RunBatchSchedule(store);
  return {rows, CollectedCounters(store) + "; " + CollectedCounters(*faults)};
}

constexpr const char* kResiliencePinRows =
    "Timeout | OK RateLimited | "
    "RateLimited RateLimited Unavailable NotFound Unavailable | "
    "Unavailable | NotFound Unavailable | "
    "OK RateLimited RateLimited Unavailable Unavailable | "
    "RateLimited | Conflict Unavailable | "
    "Unavailable Unavailable Unavailable OK NotFound | OK | "
    "Timeout RateLimited | "
    "Unavailable RateLimited Unavailable RateLimited Conflict | "
    "Unavailable | Unavailable Unavailable | "
    "Timeout Unavailable Unavailable Unavailable Timeout | "
    "Unavailable | Unavailable Unavailable | "
    "Unavailable NotFound Timeout Unavailable Unavailable | "
    "Unavailable | RateLimited Unavailable | "
    "RateLimited Unavailable RateLimited Unavailable Unavailable | "
    "Unavailable | Unavailable Unavailable | "
    "Conflict Unavailable Unavailable OK Unavailable | NotFound | "
    "IOError Timeout | "
    "NotFound Unavailable Unavailable NotFound NotFound | "
    "Conflict | NotFound Unavailable | "
    "OK Unavailable Conflict OK OK";
constexpr const char* kResiliencePinCounters =
    "BREAKER OPENS=14, BREAKER FAST-FAILS=39, BREAKER PROBES=14, "
    "BREAKER RECLOSES=9, HEDGES SENT=0, HEDGES WON=0, "
    "HEDGES WASTED=0, DEADLINE ABANDONS=0; FAULT REQUESTS=41, "
    "FAULT ERRORS=1, FAULT TIMEOUTS=6, FAULT THROTTLES=12, "
    "FAULT LATENCY SPIKES=0, FAULT LOST REPLIES=0, "
    "FAULT CRASHES=0, FAULT HEDGES=0, FAULT HEDGE FAULTS=0";

TEST(ResilientStoreTest, BatchSchedulePin) {
  auto [rows, counters] = RunResilienceBatchPin(nullptr);
  EXPECT_EQ(rows, kResiliencePinRows);
  EXPECT_EQ(counters, kResiliencePinCounters);
}

TEST(ResilientStoreTest, BatchSchedulePinHoldsUnderFanOut) {
  auto [rows, counters] =
      RunResilienceBatchPin(std::make_shared<RpcExecutor>(4));
  EXPECT_EQ(rows, kResiliencePinRows);
  EXPECT_EQ(counters, kResiliencePinCounters);
}

}  // namespace
}  // namespace ycsbt
