#ifndef YCSBT_TXN_TIMESTAMP_H_
#define YCSBT_TXN_TIMESTAMP_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/clock.h"
#include "common/latency_model.h"
#include "common/random.h"

namespace ycsbt {
namespace txn {

/// Source of transaction start/commit timestamps.
///
/// The paper (§II-B) contrasts two designs: Percolator/ReTSO-style *central
/// timestamp oracles*, which become a bottleneck over high-latency networks,
/// and the authors' library, which uses only the client's local clock.
/// Abstracting the source lets the same commit protocol run either way — the
/// `workloads/suites/ablation_timestamp_oracle.suite` runs measure exactly
/// this difference.
class TimestampSource {
 public:
  virtual ~TimestampSource() = default;

  /// Next timestamp; strictly monotonic per source.
  virtual uint64_t Next() = 0;

  /// Folds in a timestamp observed from shared state (no-op for oracles).
  virtual void Observe(uint64_t ts) = 0;
};

/// Local hybrid-logical-clock source: no coordination, no network round trip.
/// This is what the authors' client-coordinated library uses ("it relies on
/// the local clock ... compatible with approaches like TrueTime").
class HlcTimestampSource : public TimestampSource {
 public:
  uint64_t Next() override { return clock_.Now(); }
  void Observe(uint64_t ts) override { clock_.Observe(ts); }

 private:
  HybridLogicalClock clock_;
};

/// Central timestamp oracle (Percolator's TO / ReTSO's TSO): one shared
/// counter that every timestamp request must visit, paying a simulated RPC
/// round trip.  Share one instance among all clients of a cluster.
class OracleTimestampSource : public TimestampSource {
 public:
  /// The shared server-side state of the oracle.
  struct Oracle {
    std::atomic<uint64_t> counter{1};
  };

  /// @param oracle shared oracle; must outlive the source.
  /// @param rpc_latency round-trip cost per timestamp request.
  OracleTimestampSource(std::shared_ptr<Oracle> oracle, LatencyModel rpc_latency)
      : oracle_(std::move(oracle)), rpc_latency_(rpc_latency) {}

  uint64_t Next() override {
    rpc_latency_.Inject(ThreadLocalRandom());
    return oracle_->counter.fetch_add(1, std::memory_order_relaxed);
  }

  void Observe(uint64_t /*ts*/) override {}

 private:
  std::shared_ptr<Oracle> oracle_;
  LatencyModel rpc_latency_;
};

}  // namespace txn
}  // namespace ycsbt

#endif  // YCSBT_TXN_TIMESTAMP_H_
