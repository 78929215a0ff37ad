#include "common/fault.h"

namespace ycsbt {

const char* CrashPointName(CrashPoint p) {
  switch (p) {
    case CrashPoint::kAfterLockPuts:
      return "after_lock_puts";
    case CrashPoint::kAfterTsrPut:
      return "after_tsr_put";
    case CrashPoint::kMidRollForward:
      return "mid_roll_forward";
    case CrashPoint::kBeforeTsrDelete:
      return "before_tsr_delete";
  }
  return "unknown";
}

uint32_t ParseCrashPointToken(const std::string& token) {
  if (token == "all") {
    return CrashPointBit(CrashPoint::kAfterLockPuts) |
           CrashPointBit(CrashPoint::kAfterTsrPut) |
           CrashPointBit(CrashPoint::kMidRollForward) |
           CrashPointBit(CrashPoint::kBeforeTsrDelete);
  }
  if (token == "after_lock_puts") return CrashPointBit(CrashPoint::kAfterLockPuts);
  if (token == "after_tsr_put" || token == "before_roll_forward") {
    return CrashPointBit(CrashPoint::kAfterTsrPut);
  }
  if (token == "mid_roll_forward") return CrashPointBit(CrashPoint::kMidRollForward);
  if (token == "before_tsr_delete") {
    return CrashPointBit(CrashPoint::kBeforeTsrDelete);
  }
  return 0;
}

FailoverScript FailoverScript::FromProperties(const Properties& props) {
  FailoverScript s;
  s.leader_crash_at = kLeaderCrashAt.Get<uint64_t>(props);
  s.election_ops = kElectionOps.Get<uint64_t>(props);
  s.election_us = kElectionUs.Get<uint64_t>(props);
  if (s.leader_crash_at > 0 && s.election_ops == 0 && s.election_us == 0) {
    s.election_ops = 16;
  }
  s.lost_tail = kLostTail.Get<uint64_t>(props);
  s.partition_region = kPartitionRegion.Get<int>(props);
  s.partition_at = kPartitionAt.Get<uint64_t>(props);
  s.partition_ops = kPartitionOps.Get<uint64_t>(props);
  return s;
}

}  // namespace ycsbt
