#include "common/fault.h"

#include <algorithm>
#include <iterator>

namespace ycsbt {

const char* CrashPointName(CrashPoint p) {
  return kCrashPointTokens[static_cast<uint32_t>(p)].data();
}

uint32_t ParseCrashPointToken(const std::string& token) {
  auto it = std::find(std::begin(kCrashPointTokens), std::end(kCrashPointTokens), token);
  uint32_t i = static_cast<uint32_t>(it - std::begin(kCrashPointTokens));
  if (i < kCrashPointCount) return 1u << i;
  if (token == "before_roll_forward") return CrashPointBit(CrashPoint::kAfterTsrPut);
  if (token == "all") return (1u << kCrashPointCount) - 1;
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
