#ifndef YCSBT_COMMON_FAULT_H_
#define YCSBT_COMMON_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/properties.h"
#include "common/property_schema.h"

namespace ycsbt {

/// Named points in the client-coordinated commit pipeline where a simulated
/// client crash can be injected (paper §II-B: the protocol is explicitly
/// designed so any later reader repairs a client that dies mid-commit via
/// its transaction status record).
///
/// The points bracket the pipeline's state transitions:
///   kAfterLockPuts   — locks planted, no TSR: recovery must roll BACK.
///   kAfterTsrPut     — commit point passed, nothing applied: recovery must
///                      roll FORWARD every locked record.
///   kMidRollForward  — commit point passed, some records applied: recovery
///                      must roll forward the remainder (partial-apply tear).
///   kBeforeTsrDelete — all records applied, TSR left behind: harmless
///                      garbage any TSR reader tolerates.
enum class CrashPoint : uint32_t {
  kAfterLockPuts = 0,
  kAfterTsrPut = 1,
  kMidRollForward = 2,
  kBeforeTsrDelete = 3,
};

inline constexpr uint32_t CrashPointBit(CrashPoint p) {
  return 1u << static_cast<uint32_t>(p);
}

/// Every `fault.crash_points` token: the points' names in `CrashPoint`
/// order, then the alias `before_roll_forward` and `all`.
inline constexpr std::string_view kCrashPointTokens[] = {
    "after_lock_puts",  "after_tsr_put",       "mid_roll_forward",
    "before_tsr_delete", "before_roll_forward", "all"};
inline constexpr uint32_t kCrashPointCount = 4;

/// Short name of a crash point (the `fault.crash_points` property tokens).
const char* CrashPointName(CrashPoint p);

/// Parses one crash-point token; returns 0 for an unknown name.  Accepts
/// "all" as every point and "before_roll_forward" as an alias of
/// "after_tsr_put" (the pipeline has no work between the two).
uint32_t ParseCrashPointToken(const std::string& token);

/// Consulted by the transaction library at each `CrashPoint`.  Implemented
/// by the fault-injection layer; a null injector means crashes are off.
/// `ShouldCrash` must be thread-safe (commit runs on every client thread).
class CrashInjector {
 public:
  virtual ~CrashInjector() = default;

  /// True when the pipeline should abandon the transaction *right here*,
  /// leaving all store-side state (locks, TSR) exactly as a dead client
  /// would.
  virtual bool ShouldCrash(CrashPoint point) = 0;
};

inline constexpr PropertyDecl kLeaderCrashAt = UintProperty(
    "cloud.fault.leader_crash_at", 0,
    "write arrival that crashes the leader and opens an election (0 = never)");
inline constexpr PropertyDecl kElectionOps = Derived(
    UintProperty("cloud.fault.election_ops", 0,
                 "NotLeader rejections after which the election completes"),
    "16 when a crash is scripted");
inline constexpr PropertyDecl kElectionUs = UintProperty(
    "cloud.fault.election_us", 0,
    "wall-clock election length instead; rejections carry a retry_after_us= hint");
/// The crashed leader's unreplicated tail, surfacing as ambiguous commits.
inline constexpr PropertyDecl kLostTail = UintProperty(
    "cloud.fault.lost_tail", 0, "election-window writes applied but answered Timeout");
inline constexpr PropertyDecl kPartitionRegion = IntProperty(
    "cloud.fault.partition_region", -1, -1, kIntMax,
    "region cut off from the cluster (-1 = none)");
inline constexpr PropertyDecl kPartitionAt = UintProperty(
    "cloud.fault.partition_at", 0,
    "request arrival that starts the partition (0 = never)");
inline constexpr PropertyDecl kPartitionOps = UintProperty(
    "cloud.fault.partition_ops", 64, 1, kNoLimit,
    "Unavailable rejections served before the partition heals");
inline constexpr const PropertyDecl* kFailoverProperties[] = {
    &kLeaderCrashAt, &kElectionOps, &kElectionUs, &kLostTail, &kPartitionRegion,
    &kPartitionAt, &kPartitionOps};

/// Deterministic failover/partition script for the replicated cloud store
/// (`cloud::ReplicatedCloudStore`).  All triggers and durations are
/// *count-based* by default — expressed in armed request/write arrivals, the
/// same discipline as the circuit breaker's `cooldown_rejects` — so a
/// single-threaded same-seed run replays the identical fault timeline and
/// the identical `FAILOVERS` / `NOT-LEADER REJECTS` counters.  `election_us` is the
/// one wall-clock escape hatch, for tests that need an election to span
/// real status windows.
///
/// Configured from the `cloud.fault.*` properties declared above.
struct FailoverScript {
  uint64_t leader_crash_at = kLeaderCrashAt.Default<uint64_t>();
  uint64_t election_ops = kElectionOps.Default<uint64_t>();
  uint64_t election_us = kElectionUs.Default<uint64_t>();
  uint64_t lost_tail = kLostTail.Default<uint64_t>();
  int partition_region = kPartitionRegion.Default<int>();
  uint64_t partition_at = kPartitionAt.Default<uint64_t>();
  uint64_t partition_ops = kPartitionOps.Default<uint64_t>();

  bool Any() const {
    return leader_crash_at > 0 || (partition_region >= 0 && partition_at > 0);
  }

  static FailoverScript FromProperties(const Properties& props);
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_FAULT_H_
