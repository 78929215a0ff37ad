// Unit tests for the multi-region replicated veneer: read-mode routing, the
// pre-image overlay (lagging follower views, torn scans), the scripted
// leader failover with its lost tail, partitions, and the breaker interplay
// with the resilience layer (a partitioned region opens only its own
// breaker).

#include "cloud/replicated_cloud_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "batch_schedule.h"
#include "common/retry_policy.h"
#include "common/rpc_executor.h"
#include "kv/resilient_store.h"
#include "kv/store.h"

namespace ycsbt {
namespace cloud {
namespace {

std::shared_ptr<kv::ShardedStore> MakeEngine() {
  kv::StoreOptions options;
  options.num_shards = 4;
  auto store = std::make_shared<kv::ShardedStore>(options);
  store->Open();
  return store;
}

std::shared_ptr<ReplicatedCloudStore> MakeStore(ReplicationOptions opts,
                                                std::shared_ptr<kv::Store>* base_out = nullptr) {
  auto engine = MakeEngine();
  if (base_out != nullptr) *base_out = engine;
  return std::make_shared<ReplicatedCloudStore>(engine, engine, std::move(opts));
}

TEST(ReadModeTest, ParsesEveryModeAndRejectsUnknown) {
  const ReadMode modes[] = {ReadMode::kLeader, ReadMode::kQuorum,
                            ReadMode::kStale, ReadMode::kNearest};
  ASSERT_EQ(std::size(kReadModes), std::size(modes));
  for (size_t i = 0; i < std::size(modes); ++i) {
    Properties p;
    p.Set("cloud.read_mode", std::string(kReadModes[i]));
    EXPECT_EQ(kCloudReadMode.GetEnum<ReadMode>(p), modes[i]) << kReadModes[i];
  }
  EXPECT_EQ(kCloudReadMode.GetEnum<ReadMode>(Properties()), ReadMode::kLeader);
  EXPECT_TRUE(kCloudReadMode.Check("cloud.read_mode", "primary").IsInvalidArgument());
}

TEST(ReplicationOptionsTest, FromPropertiesParsesAndValidates) {
  Properties p;
  p.Set("cloud.regions", "5");
  p.Set("cloud.read_mode", "quorum");
  p.Set("cloud.replica_lag_ops", "8");
  p.Set("cloud.local_region", "3");
  p.Set("cloud.fault.leader_crash_at", "100");
  p.Set("cloud.fault.lost_tail", "4");
  ReplicationOptions o;
  ASSERT_TRUE(ReplicationOptions::FromProperties(p, &o).ok());
  EXPECT_EQ(o.regions, 5);
  EXPECT_EQ(o.read_mode, ReadMode::kQuorum);
  EXPECT_EQ(o.replica_lag_ops, 8u);
  EXPECT_EQ(o.local_region, 3);
  EXPECT_EQ(o.script.leader_crash_at, 100u);
  EXPECT_EQ(o.script.lost_tail, 4u);
  EXPECT_GT(o.script.election_ops, 0u)
      << "a scripted crash without an election length must default one";

  p.Set("cloud.read_mode", "primary");
  EXPECT_TRUE(ReplicationOptions::FromProperties(p, &o).IsInvalidArgument());
}

TEST(ReplicatedCloudStoreTest, DisarmedReplicationIsSynchronous) {
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kStale;
  o.local_region = 1;
  o.replica_lag_ops = 1000;  // would lag essentially forever if armed
  auto store = MakeStore(o);
  ASSERT_TRUE(store->Put("k", "v1").ok());
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "v1") << "the load phase must not accumulate lag";
  EXPECT_EQ(store->stats().stale_reads, 0u);
  EXPECT_EQ(store->stats().writes_replicated, 0u);
}

TEST(ReplicatedCloudStoreTest, StaleViewServesThePreImageUntilTheLagDrains) {
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kStale;
  o.local_region = 1;
  o.replica_lag_ops = 2;  // draw in [2, 4] trailing requests
  o.seed = 99;
  auto store = MakeStore(o);
  ASSERT_TRUE(store->Put("acct", "old").ok());  // preload, disarmed

  store->set_fault_enabled(true);
  ASSERT_TRUE(store->Put("acct", "new").ok());
  std::string value;
  ASSERT_TRUE(store->Get("acct", &value).ok());
  EXPECT_EQ(value, "old") << "the follower has not applied the write yet";
  EXPECT_GE(store->stats().stale_reads, 1u);

  // Two more requests push the global sequence past the largest draw.
  ASSERT_TRUE(store->Put("other", "x").ok());
  ASSERT_TRUE(store->Put("other", "y").ok());
  ASSERT_TRUE(store->Get("acct", &value).ok());
  EXPECT_EQ(value, "new") << "a drained queue must collapse to the leader";
  EXPECT_GT(store->stats().replica_applies, 0u);
}

TEST(ReplicatedCloudStoreTest, UnreplicatedInsertIsInvisibleOnTheFollower) {
  ReplicationOptions o;
  o.regions = 2;
  o.read_mode = ReadMode::kStale;
  o.local_region = 1;
  o.replica_lag_ops = 2;
  auto store = MakeStore(o);
  store->set_fault_enabled(true);
  ASSERT_TRUE(store->Put("fresh", "v").ok());
  std::string value;
  Status s = store->Get("fresh", &value);
  EXPECT_TRUE(s.IsNotFound()) << "an absent pre-image hides the new key: " << s.ToString();
  ASSERT_TRUE(store->Put("pad1", "x").ok());
  ASSERT_TRUE(store->Put("pad2", "x").ok());
  EXPECT_TRUE(store->Get("fresh", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(ReplicatedCloudStoreTest, StaleScanMasksRowsAndRefillsThePage) {
  ReplicationOptions o;
  o.regions = 2;
  o.read_mode = ReadMode::kStale;
  o.local_region = 1;
  o.replica_lag_ops = 1000;  // nothing drains during the test
  auto store = MakeStore(o);
  ASSERT_TRUE(store->Put("a", "a0").ok());
  ASSERT_TRUE(store->Put("b", "b0").ok());
  ASSERT_TRUE(store->Put("c", "c0").ok());

  store->set_fault_enabled(true);
  ASSERT_TRUE(store->Put("b", "b1").ok());   // update: pre-image masks it
  ASSERT_TRUE(store->Delete("c").ok());      // delete: old row still visible
  ASSERT_TRUE(store->Put("d", "d1").ok());   // insert: hidden on the follower

  // The view must show the OLD world — including the deleted row — and the
  // refill loop must not let the hidden insert shorten the page (the CEW
  // validation sweep treats a short page as end-of-table).
  std::vector<kv::ScanEntry> rows;
  ASSERT_TRUE(store->Scan("", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "a");
  EXPECT_EQ(rows[0].value, "a0");
  EXPECT_EQ(rows[1].key, "b");
  EXPECT_EQ(rows[1].value, "b0");
  EXPECT_EQ(rows[2].key, "c");
  EXPECT_EQ(rows[2].value, "c0");

  // A tight limit still fills completely from the stale view.
  rows.clear();
  ASSERT_TRUE(store->Scan("", 2, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "a");
  EXPECT_EQ(rows[1].key, "b");
}

TEST(ReplicatedCloudStoreTest, ScriptedFailoverLosesTheTailThenMovesLeadership) {
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kLeader;
  o.replica_lag_ops = 1;
  o.script.leader_crash_at = 3;  // the 3rd armed write crashes the leader
  o.script.election_ops = 2;     // two NotLeader rejections complete it
  o.script.lost_tail = 1;        // one applied-but-unacked write
  std::shared_ptr<kv::Store> base;
  auto store = MakeStore(o, &base);
  store->set_fault_enabled(true);

  ASSERT_TRUE(store->Put("k1", "v1").ok());
  ASSERT_TRUE(store->Put("k2", "v2").ok());

  // Write #3 fires the crash and becomes the lost tail: applied on the
  // crashing leader, but the client only sees an ambiguous Timeout.
  Status lost = store->Put("k3", "v3");
  EXPECT_TRUE(lost.IsTimeout()) << lost.ToString();
  std::string value;
  ASSERT_TRUE(base->Get("k3", &value).ok());
  EXPECT_EQ(value, "v3") << "the lost-tail write must actually be applied";

  // Mid-election, writes and leader reads are refused with the redirect.
  Status s = store->Put("k4", "v4");
  EXPECT_TRUE(s.IsNotLeader()) << s.ToString();
  EXPECT_NE(s.message().find("redirect=region-1"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(store->Get("k1", &value).IsNotLeader());

  // The rejection budget is burned; the next request sees the new leader.
  ASSERT_TRUE(store->Put("k5", "v5").ok());
  EXPECT_EQ(store->leader(), 1);

  ReplicationStats stats = store->stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.lost_tail_writes, 1u);
  EXPECT_EQ(stats.not_leader_rejects, 2u);
}

TEST(ReplicatedCloudStoreTest, QuorumReadsSurviveTheElection) {
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kQuorum;
  o.replica_lag_ops = 1;
  o.script.leader_crash_at = 1;
  o.script.election_ops = 50;  // long election
  auto store = MakeStore(o);
  ASSERT_TRUE(store->Put("k", "v").ok());  // preload
  store->set_fault_enabled(true);
  Status crash = store->Put("k", "v2");  // fires the crash
  EXPECT_TRUE(crash.IsNotLeader()) << crash.ToString();

  // 2 of 3 regions still reachable: quorum reads keep answering, fresh.
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(ReplicatedCloudStoreTest, QuorumIsLostWhenPartitionAndElectionOverlap) {
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kQuorum;
  o.replica_lag_ops = 1;
  o.script.leader_crash_at = 1;
  o.script.election_ops = 50;
  o.script.partition_region = 1;  // a *different* region than the leader
  o.script.partition_at = 1;
  o.script.partition_ops = 50;
  auto store = MakeStore(o);
  store->set_fault_enabled(true);
  Status crash = store->Put("k", "v");
  EXPECT_TRUE(crash.IsNotLeader()) << crash.ToString();

  // Crashed leader + partitioned follower = 1 of 3 reachable: no majority.
  std::string value;
  Status s = store->Get("k", &value);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_NE(s.message().find("quorum lost"), std::string::npos);
}

TEST(ReplicatedCloudStoreTest, QuorumLostRejectionsBurnThePartitionHealBudget) {
  // Regression: a read-first workload must not livelock in the
  // partition+election overlap.  Quorum-lost rejections are the partition's
  // doing, so they charge its heal budget; once it heals, 2 of 3 regions
  // are reachable again and quorum reads resume mid-election.
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kQuorum;
  o.replica_lag_ops = 1;
  o.script.leader_crash_at = 1;
  o.script.election_ops = 50;
  o.script.partition_region = 1;
  o.script.partition_at = 1;
  o.script.partition_ops = 2;
  auto store = MakeStore(o);
  ASSERT_TRUE(store->Put("k", "v").ok());  // preload
  store->set_fault_enabled(true);
  EXPECT_TRUE(store->Put("k", "v2").IsNotLeader());  // crash + partition fire

  std::string value;
  EXPECT_TRUE(store->Get("k", &value).IsUnavailable());  // burns 1
  EXPECT_TRUE(store->Get("k", &value).IsUnavailable());  // burns 2: healed
  Status s = store->Get("k", &value);
  EXPECT_TRUE(s.ok()) << s.ToString();  // quorum restored, election still on
  EXPECT_EQ(value, "v");
  EXPECT_EQ(store->stats().partition_rejects, 2u);
}

TEST(ReplicatedCloudStoreTest, NearestIsFreshUntilAFailoverMovesLeadershipAway) {
  ReplicationOptions o;
  o.regions = 2;
  o.read_mode = ReadMode::kNearest;
  o.local_region = 0;  // the initial leader
  o.replica_lag_ops = 1000;
  o.script.leader_crash_at = 2;
  o.script.election_ops = 2;
  auto store = MakeStore(o);
  ASSERT_TRUE(store->Put("k", "old").ok());
  store->set_fault_enabled(true);

  // While local == leader, nearest reads are fresh.
  ASSERT_TRUE(store->Put("k", "mid").ok());
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "mid");

  // Crash + election; leadership moves to region 1.
  EXPECT_FALSE(store->Put("k", "x").ok());
  EXPECT_FALSE(store->Put("k", "x").ok());
  ASSERT_TRUE(store->Put("k", "new").ok());
  ASSERT_EQ(store->leader(), 1);

  // Now local region 0 is a follower: nearest reads went silently stale.
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "mid") << "the new leader's write has not replicated back";
  EXPECT_GT(store->stats().stale_reads, 0u);
}

// The satellite-3 interplay proof: a partitioned region's Unavailable
// rejections open only THAT backend's breaker, Half-Open probes re-close it
// once the partition heals, and — everything being count-based — the same
// script replays the identical BREAKER-* lifecycle.
TEST(ReplicatedCloudStoreTest, PartitionOpensOnlyTheServingRegionsBreaker) {
  auto run = [](BreakerStats* region1, BreakerStats* region0,
                ReplicationStats* rep_stats) {
    ReplicationOptions o;
    o.regions = 2;
    o.read_mode = ReadMode::kStale;
    o.local_region = 1;  // reads served by region 1
    o.replica_lag_ops = 1;
    o.script.partition_region = 1;
    o.script.partition_at = 1;   // first armed request cuts it off
    o.script.partition_ops = 3;  // heals after 3 charged rejections
    auto rep = MakeStore(o);
    ASSERT_TRUE(rep->Put("k", "v").ok());  // preload

    kv::ResilienceOptions ro;
    ro.breaker.enabled = true;
    ro.breaker.window = 4;
    ro.breaker.min_samples = 2;
    ro.breaker.failure_ratio = 0.5;
    ro.breaker.cooldown_us = 10'000'000;  // clock out of the picture:
    ro.breaker.cooldown_rejects = 2;      // the reject count cools down
    ro.breaker.probes = 2;
    auto resilient = std::make_shared<kv::ResilientStore>(rep, ro, o.regions);
    resilient->set_backend_resolver(
        [rep](const std::string& key) { return rep->BreakerBackendFor(key); });

    rep->set_fault_enabled(true);
    std::string value;
    bool reclosed = false;
    for (int i = 0; i < 60 && !reclosed; ++i) {
      resilient->Get("k", &value);  // failures expected while partitioned
      reclosed = resilient->breakers()->backend(1).stats().recloses > 0;
    }
    EXPECT_TRUE(reclosed) << "probes must re-close the breaker post-heal";

    // Served fresh again once healed (region 1's queue drained long ago).
    ASSERT_TRUE(resilient->Get("k", &value).ok());
    EXPECT_EQ(value, "v");

    *region1 = resilient->breakers()->backend(1).stats();
    *region0 = resilient->breakers()->backend(0).stats();
    *rep_stats = rep->stats();
  };

  BreakerStats r1a, r0a, r1b, r0b;
  ReplicationStats repa, repb;
  run(&r1a, &r0a, &repa);

  EXPECT_GT(r1a.opens, 0u) << "the partitioned region's breaker must trip";
  EXPECT_GT(r1a.fast_fails, 0u);
  EXPECT_GT(r1a.probes_sent, 0u);
  EXPECT_GT(r1a.recloses, 0u);
  EXPECT_EQ(r0a.opens, 0u)
      << "the healthy region's breaker must never notice the partition";
  EXPECT_EQ(r0a.fast_fails, 0u);
  EXPECT_EQ(repa.partition_rejects, 3u)
      << "exactly the scripted heal budget reaches the store";

  // Same script, same counts: the lifecycle replays identically.
  run(&r1b, &r0b, &repb);
  EXPECT_EQ(r1a.opens, r1b.opens);
  EXPECT_EQ(r1a.fast_fails, r1b.fast_fails);
  EXPECT_EQ(r1a.probes_sent, r1b.probes_sent);
  EXPECT_EQ(r1a.recloses, r1b.recloses);
  EXPECT_EQ(repa.partition_rejects, repb.partition_rejects);
  EXPECT_EQ(repa.stale_reads, repb.stale_reads);
}

TEST(ReplicatedCloudStoreTest, WallClockElectionEmbedsARetryAfterHint) {
  ReplicationOptions o;
  o.regions = 2;
  o.read_mode = ReadMode::kLeader;
  o.replica_lag_ops = 1;
  o.script.leader_crash_at = 1;
  o.script.election_us = 50'000;
  auto store = MakeStore(o);
  store->set_fault_enabled(true);
  Status s = store->Put("k", "v");
  ASSERT_TRUE(s.IsNotLeader()) << s.ToString();
  EXPECT_NE(s.message().find("retry_after_us="), std::string::npos)
      << s.ToString();
  uint64_t hint = RetryAfterUsHint(s);
  EXPECT_GT(hint, 0u);
  EXPECT_LE(hint, 50'000u);
}

// Characterization pin: a fixed batch schedule across count-based lag, a
// scripted election with a lost tail, and a partition of the stale-read
// region.  Ticks, gates and pre-images run in item order on the way in, and
// replication, overlays and the lost-tail rewrite in item order on the way
// out, so the rows and counters are fixed by the script.  The expected
// strings were recorded before the batch bodies moved onto the shared
// admission helper.
std::pair<std::string, std::string> RunReplicationBatchPin(
    std::shared_ptr<RpcExecutor> executor) {
  auto engine = MakeEngine();
  engine->set_executor(std::move(executor));
  ReplicationOptions o;
  o.regions = 3;
  o.read_mode = ReadMode::kStale;
  o.local_region = 1;
  o.replica_lag_ops = 6;
  o.script.leader_crash_at = 6;
  o.script.election_ops = 3;
  o.script.lost_tail = 2;
  o.script.partition_region = 2;
  o.script.partition_at = 40;
  o.script.partition_ops = 4;
  ReplicatedCloudStore store(engine, engine, o);
  store.set_fault_enabled(true);
  std::string rows = RunBatchSchedule(store);
  return {rows, CollectedCounters(store)};
}

constexpr const char* kReplicationPinRows =
    "NotFound | OK NotFound | "
    "NotFound NotFound NotFound NotFound NotFound | Conflict | "
    "NotFound NotFound | OK NotFound Timeout Timeout NotLeader | "
    "NotFound | NotLeader NotLeader | "
    "NotFound NotFound NotFound OK NotFound | Conflict | "
    "NotFound NotFound | Conflict OK OK NotFound Conflict | OK | "
    "OK NotFound | "
    "NotFound NotFound NotFound NotFound Unavailable | Conflict | "
    "Unavailable Unavailable | OK NotFound Conflict OK OK | "
    "Unavailable | Conflict OK | "
    "OK NotFound NotFound OK NotFound | Conflict | NotFound OK | "
    "Conflict OK OK OK Conflict | OK | OK NotFound | "
    "OK OK NotFound NotFound OK | Conflict | OK OK | "
    "OK OK Conflict OK OK";
constexpr const char* kReplicationPinCounters =
    "FAILOVERS=1, NOT-LEADER REJECTS=3, LOST-TAIL WRITES=2, "
    "STALE READS=4, REPLICA APPLIES=13, PARTITION REJECTS=4";

TEST(ReplicatedCloudStoreTest, BatchSchedulePin) {
  auto [rows, counters] = RunReplicationBatchPin(nullptr);
  EXPECT_EQ(rows, kReplicationPinRows);
  EXPECT_EQ(counters, kReplicationPinCounters);
}

TEST(ReplicatedCloudStoreTest, BatchSchedulePinHoldsUnderFanOut) {
  auto [rows, counters] =
      RunReplicationBatchPin(std::make_shared<RpcExecutor>(4));
  EXPECT_EQ(rows, kReplicationPinRows);
  EXPECT_EQ(counters, kReplicationPinCounters);
}

}  // namespace
}  // namespace cloud
}  // namespace ycsbt
