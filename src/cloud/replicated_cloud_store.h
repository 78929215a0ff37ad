#ifndef YCSBT_CLOUD_REPLICATED_CLOUD_STORE_H_
#define YCSBT_CLOUD_REPLICATED_CLOUD_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/histogram.h"
#include "common/properties.h"
#include "common/random.h"
#include "common/stats_layer.h"
#include "kv/store.h"

namespace ycsbt {
namespace cloud {

/// How reads are routed across the replicated regions.
enum class ReadMode : uint8_t {
  kLeader,   ///< Read the leader: always fresh, rejected mid-election.
  kQuorum,   ///< Majority read: fresh, survives an election, fails when a
             ///< majority of regions is unreachable.
  kStale,    ///< Read the local follower's *replicated view*: never blocks
             ///< on leadership, but lags the leader by the apply queue.
  kNearest,  ///< Read the local region whatever its role: fresh while it is
             ///< the leader, silently stale after a failover moves the
             ///< leadership elsewhere.
};

inline constexpr PropertyDecl kCloudRegions = IntProperty(
    "cloud.regions", 1, 1, kIntMax,
    "regions; >= 2 activates replication (leader = region 0 at start)");
// In ReadMode order, for GetEnum.
inline constexpr std::string_view kReadModes[] = {"leader", "quorum", "stale", "nearest"};
inline constexpr PropertyDecl kCloudReadMode = EnumProperty(
    "cloud.read_mode", "leader", kReadModes, "how reads are routed (ReadMode)");
inline constexpr PropertyDecl kCloudReplicaLagUs = UintProperty(
    "cloud.replica_lag_us", 20'000, "median wall-clock replication lag per record");
/// A replica applies its backlog while serving traffic, so count-based lag
/// is fully deterministic for same-seed single-threaded replays.
inline constexpr PropertyDecl kCloudReplicaLagOps = UintProperty(
    "cloud.replica_lag_ops", 0,
    "count-based lag instead: a write shows on a follower N to 2N requests later");
inline constexpr PropertyDecl kCloudLocalRegion = IntProperty(
    "cloud.local_region", 0, 0, kIntMax,
    "the region this client reads in stale/nearest modes");
inline constexpr const PropertyDecl* kReplicationProperties[] = {
    &kCloudRegions, &kCloudReadMode, &kCloudReplicaLagUs, &kCloudReplicaLagOps,
    &kCloudLocalRegion};

/// Configuration of a `ReplicatedCloudStore`, from the properties declared
/// above and the scripted failover/partition (`cloud.fault.*`,
/// `FailoverScript`).
struct ReplicationOptions {
  int regions = 3;
  ReadMode read_mode = ReadMode::kLeader;
  uint64_t replica_lag_us = kCloudReplicaLagUs.Default<uint64_t>();
  uint64_t replica_lag_ops = kCloudReplicaLagOps.Default<uint64_t>();
  int local_region = kCloudLocalRegion.Default<int>();
  uint64_t seed = 0x5EEDFA11ull;
  FailoverScript script;

  /// InvalidArgument on a malformed key or `cloud.regions` below 2.
  static Status FromProperties(const Properties& props,
                               ReplicationOptions* out);
};

/// Counters and the lag histogram since the last drain (`Collect` reports
/// them as the `FAILOVERS` / `NOT-LEADER REJECTS` / ... lines and the
/// `REPLICA-LAG` series).
struct ReplicationStats {
  uint64_t writes_replicated = 0;  ///< replication records enqueued
  uint64_t replica_applies = 0;    ///< records drained into follower views
  uint64_t stale_reads = 0;        ///< reads answered from a lagging view
  uint64_t not_leader_rejects = 0; ///< requests refused mid-election
  uint64_t failovers = 0;          ///< completed elections (leader moved)
  uint64_t lost_tail_writes = 0;   ///< applied-but-unacked election writes
  uint64_t partition_rejects = 0;  ///< requests refused by a partition
  /// Drawn replication lag per record: microseconds in wall-clock mode,
  /// trailing requests in count-based mode.
  Histogram replica_lag;
};

/// N-region replicated veneer over the simulated cloud store.
///
/// The model keeps ONE authoritative store (`base`, the leader's state —
/// every request through it pays the full SimCloudStore latency/rate-cap
/// path) and represents each follower as a *pre-image apply queue*: when a
/// write commits on the leader, every follower enqueues the key's prior
/// value together with a seeded lag draw. A follower's view of a key is the
/// oldest still-undelivered pre-image — exactly what a replica that has not
/// yet applied the tail of the log would serve — and collapses to the
/// authoritative value once the queue drains. This inverts the usual
/// "apply queue of new values" formulation so that N regions never store N
/// copies of the dataset, yet reads observe the same staleness a real
/// lagging replica exhibits, including torn multi-key transactions.
///
/// The scripted fault timeline (`FailoverScript`) is armed together with
/// the rest of the fault substrate only around the measured run
/// (`set_fault_enabled`); while disarmed, writes replicate synchronously
/// (the load phase does not accumulate lag) and no triggers advance.
/// Failover semantics:
///   - at write arrival `leader_crash_at` the leader crashes and an
///     election opens; writes (and leader-mode reads) are refused with
///     `Status::NotLeader` carrying a `redirect=region-N` hint (plus
///     `retry_after_us=` when the election is wall-clock scripted);
///   - the first `lost_tail` writes of the election window are APPLIED but
///     answered `Timeout` — the crashed leader's unreplicated tail, which
///     clients must settle as ambiguous commits via TSR re-read;
///   - the election completes after `election_ops` NotLeader rejections
///     (count-based, deterministic) or `election_us` wall-clock; the next
///     region takes leadership and first drains its own apply backlog, so
///     no committed write is lost;
///   - independently, region `partition_region` can be cut off at request
///     arrival `partition_at`, answering `Unavailable` until
///     `partition_ops` rejections have been charged to it (the circuit
///     breaker satellite: only that backend's breaker opens).
class ReplicatedCloudStore : public kv::Store, public StatsLayer {
 public:
  /// `base` is the authoritative store (normally a SimCloudStore so every
  /// routed request pays cloud latency); `raw` is the latency-free engine
  /// underneath it used for pre-image capture (null = peek through `base`,
  /// paying latency twice per write).
  ReplicatedCloudStore(std::shared_ptr<kv::Store> base,
                       std::shared_ptr<kv::Store> raw,
                       ReplicationOptions options);

  Status Get(const std::string& key, std::string* value,
             uint64_t* etag = nullptr) override;
  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out = nullptr) override;
  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag,
                        uint64_t* etag_out = nullptr) override;
  Status Delete(const std::string& key) override;
  Status ConditionalDelete(const std::string& key,
                           uint64_t expected_etag) override;
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<kv::ScanEntry>* out) override;
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<kv::MultiGetResult>* results) override;
  void MultiWrite(const std::vector<kv::WriteOp>& ops,
                  std::vector<kv::WriteResult>* results) override;
  size_t Count() const override;

  /// Arms/disarms the scripted fault timeline and the replication lag,
  /// mirroring `FaultInjectingStore::set_enabled` (armed only around the
  /// measured run; the load phase replicates synchronously).
  void set_fault_enabled(bool enabled);

  /// Region currently serving this key for the configured read mode — the
  /// backend index `ResilientStore`'s per-backend circuit breakers should
  /// charge (a partitioned follower must open only its own breaker).
  size_t BreakerBackendFor(const std::string& key) const;

  int leader() const;
  const ReplicationOptions& options() const { return opts_; }

  ReplicationStats stats() const;
  /// Snapshot-and-reset of the counters; `Collect` drains through it.
  ReplicationStats DrainStats();

  const char* name() const override { return "replication"; }
  void Collect(LayerStats* out) override;
  void Arm(bool armed) override { set_fault_enabled(armed); }

 private:
  /// One undelivered replication record: the key's state BEFORE the write
  /// it belongs to, plus the visibility horizon drawn from the lag model.
  struct PendingApply {
    bool present = false;     ///< pre-image existed (false = key was absent)
    std::string value;        ///< pre-image bytes
    uint64_t etag = 0;        ///< pre-image etag
    uint64_t visible_seq = 0; ///< count-based horizon (global write seq)
    uint64_t visible_at_us = 0;  ///< wall-clock horizon
  };

  struct Region {
    /// Per-key FIFO of undelivered pre-images, oldest first.
    std::map<std::string, std::deque<PendingApply>> pending;
  };

  /// Outcome of routing one read.
  struct Route {
    Status reject;         ///< not-OK = refuse the request with this
    int view_region = -1;  ///< >= 0 = overlay this region's lagging view
  };

  /// What an admitted write carries to its settlement.
  struct WriteTicket {
    PendingApply pre;         ///< the key's state before the write
    bool lost_reply = false;  ///< applies, but the ack is lost (lost tail)
  };

  bool VisibleLocked(const PendingApply& p) const;
  void DrainLocked(std::deque<PendingApply>* q);
  /// Drains `key`'s queue in `region`; true (and `*front` filled) when an
  /// undelivered pre-image still masks the authoritative value.
  bool FrontLocked(int region, const std::string& key, PendingApply* front);

  /// Advances arrival tickets and fires script triggers.  Every armed
  /// request passes through here exactly once.
  void TickLocked(bool is_write);
  bool ElectionOverLocked() const;
  void CompleteElectionLocked();
  bool PartitionedLocked(int region) const {
    return partition_active_ && script_.partition_region == region;
  }
  Status NotLeaderRejectLocked();
  Status PartitionRejectLocked(int region);

  /// Write-path gate: OK to proceed (with `*lost_reply` possibly set — the
  /// write applies but the ack is lost), or the rejection to return.
  Status WriteGateLocked(bool* lost_reply);
  Route ReadRouteLocked();
  int StaleRegionLocked() const;

  /// Every read's way in: tick (when armed) and route.
  Route AdmitRead();
  /// Every write's way in: tick and gate (when armed), then the pre-image.
  /// OK = proceed with the write; anything else is its rejection.
  Status AdmitWrite(const std::string& key, WriteTicket* ticket);
  /// Every admitted write's way out: replicate a success (when armed), then
  /// turn a lost-tail write's reply into the ambiguous Timeout.
  void SettleWrite(const std::string& key, const WriteTicket& ticket,
                   Status* s, uint64_t* etag);
  /// A single-key write: `AdmitWrite`, `op(&etag)`, `SettleWrite`.
  template <typename Op>
  Status Write(const std::string& key, uint64_t* etag_out, const Op& op);

  /// Captures `key`'s current authoritative state (latency-free when a raw
  /// engine is attached).
  PendingApply CapturePreImage(const std::string& key);
  /// Enqueues one replication record per follower with fresh lag draws.
  void ReplicateLocked(const std::string& key, const PendingApply& pre);

  /// Applies the front pre-image (if any) of `region`'s view over a
  /// single-key read result.
  void OverlayGet(int region, const std::string& key, Status* s,
                  std::string* value, uint64_t* etag);
  Status ScanView(int region, const std::string& start_key, size_t limit,
                  std::vector<kv::ScanEntry>* out);

  std::shared_ptr<kv::Store> base_;
  std::shared_ptr<kv::Store> raw_;
  ReplicationOptions opts_;
  FailoverScript script_;

  mutable std::mutex mu_;
  std::vector<Region> regions_;
  Random64 rng_;               ///< lag draws (seeded; guarded by mu_)
  uint64_t seq_ = 0;           ///< global armed-request sequence (count lag)
  bool armed_ = false;
  uint64_t request_ticket_ = 0;
  uint64_t write_ticket_ = 0;
  int leader_ = 0;
  bool crash_fired_ = false;
  bool in_election_ = false;
  uint64_t election_rejects_left_ = 0;  ///< count-based completion budget
  uint64_t election_deadline_us_ = 0;   ///< wall-clock completion horizon
  uint64_t lost_tail_left_ = 0;
  bool partition_fired_ = false;
  bool partition_active_ = false;
  uint64_t partition_heal_left_ = 0;
  ReplicationStats stats_;
};

}  // namespace cloud
}  // namespace ycsbt

#endif  // YCSBT_CLOUD_REPLICATED_CLOUD_STORE_H_
