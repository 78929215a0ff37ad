#ifndef YCSBT_DB_DB_FACTORY_H_
#define YCSBT_DB_DB_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/replicated_cloud_store.h"
#include "cloud/sim_cloud_store.h"
#include "common/properties.h"
#include "common/property_schema.h"
#include "common/retry_policy.h"
#include "common/rpc_executor.h"
#include "common/stats_layer.h"
#include "db/db.h"
#include "kv/fault_env.h"
#include "kv/fault_injecting_store.h"
#include "kv/resilient_store.h"
#include "txn/client_txn_store.h"
#include "txn/local_2pl.h"
#include "txn/occ_engine.h"

namespace ycsbt {

inline constexpr std::string_view kDbNames[] = {
    "basic",     "memkv",       "rawhttp",   "was",       "gcs",
    "txn+memkv", "txn+rawhttp", "txn+was",   "txn+gcs",   "2pl+memkv",
    "occ+memkv"};
inline constexpr PropertyDecl kDb =
    EnumProperty("db", "basic", kDbNames, "the DB binding (table below)");
inline constexpr std::string_view kTimestampSources[] = {"hlc", "oracle"};
inline constexpr PropertyDecl kTxnTimestamps = EnumProperty(
    "txn.timestamps", "hlc", kTimestampSources,
    "hlc = local hybrid logical clock; oracle = central timestamp oracle");
inline constexpr PropertyDecl kTxnOracleRttUs = DoubleProperty(
    "txn.oracle_rtt_us", 500.0, 0.0, kNoLimit,
    "median round trip to the timestamp oracle");
inline constexpr PropertyDecl kTxnFanoutThreads = IntProperty(
    "txn.fanout_threads", 0, 0, kIntMax,
    "pool threads fanning out batched store ops (0 = sequential)");
inline constexpr const PropertyDecl* kDBFactoryProperties[] = {
    &kDb, &kTxnTimestamps, &kTxnOracleRttUs, &kTxnFanoutThreads};

/// Builds the run's shared substrate from properties and hands each client
/// thread its own DB binding — the "DB client" box of the YCSB+T
/// architecture (paper Fig 1).
///
/// Recognised `db` property values:
///
/// | name          | binding | substrate |
/// |---------------|---------|-----------|
/// | `basic`       | BasicDB stub | none |
/// | `memkv`       | KvStoreDB | local engine (`kv::ShardedStore`) |
/// | `was`, `gcs`, `rawhttp` | KvStoreDB | simulated cloud store over the local engine (`rawhttp`: the loopback-HTTP profile, `CloudProfile::Loopback`) |
/// | `txn+memkv`, `txn+rawhttp`, `txn+was`, `txn+gcs` | TxnDB | client-coordinated txn library over that base |
/// | `2pl+memkv`   | TxnDB | embedded strict-2PL engine |
/// | `occ+memkv`   | TxnDB | embedded Silo-style OCC engine (`txn::OccEngine`) |
///
/// Every other property it reads is declared next to the options struct
/// that takes it (`kv::StoreOptions`, `cloud::CloudProfile`,
/// `txn::TxnOptions`, ...; DESIGN.md §19), or above for the factory's own.
/// `occ+memkv` is self-contained: it sits on no `kv::Store`, so the
/// fault-injection, resilience and latency decorators do not apply.
///
/// When `txn.fanout_threads > 0` a shared `RpcExecutor` is built (worker
/// RNGs seeded from the run's `seed` property) and attached to the cloud
/// store, the local engine, the resilience layer and the transaction
/// library, so multi-key phases issue their independent RPCs in parallel
/// (DESIGN.md §10).
///
/// When any `fault.*` rate is non-zero (see `kv::FaultOptions`) the base
/// store is wrapped in a `kv::FaultInjectingStore` — constructed *disarmed*;
/// the benchmark driver arms it only around the measured run phase — and,
/// for `txn+*` bindings, the same object is wired in as the transaction
/// library's commit-pipeline `CrashInjector`.
///
/// When any `storage.fault.*` trigger is configured (see
/// `kv::StorageFaultOptions`, DESIGN.md §14) the local engine's WAL and
/// checkpoint files go through a `kv::FaultInjectingEnv` — also constructed
/// disarmed, armed by the driver around the measured run — injecting torn
/// writes, fsyncgate failures, ENOSPC, read-side bit flips and named crash
/// points below the store.
///
/// When `breaker.enabled`, `hedge.enabled` or a per-transaction deadline
/// (`retry.deadline_us`) is configured, the store —
/// including any fault decorator, so the breaker sees injected throttles —
/// is additionally wrapped in a `kv::ResilientStore` (circuit breakers,
/// hedged reads, deadline fail-fast; `breaker.*`/`hedge.*` properties).
///
/// When `cloud.regions > 1` on a cloud binding, the simulated cloud store
/// is first wrapped in a `cloud::ReplicatedCloudStore` (leader/follower
/// regions, per-replica apply lag, read-mode routing, scripted
/// failover/partition faults; `cloud.read_mode`, `cloud.replica_lag_*`,
/// `cloud.fault.*`).  The resilience layer then runs one breaker per
/// *region* and charges each key's breaker to the region serving it.
///
/// Every layer that reports stats is registered as it is built, bottom-up
/// (`stats_layers()`, DESIGN.md §17): the runner collects them around the
/// measured run and the benchmark driver arms their faults through them.
class DBFactory {
 public:
  explicit DBFactory(Properties props) : props_(std::move(props)) {}

  /// Validates the properties (`ValidateProperties`) and builds the shared
  /// substrate.
  Status Init();

  /// A fresh binding for one client thread (call after Init).
  std::unique_ptr<DB> CreateClient();

  const std::string& db_name() const { return name_; }

  /// True when the binding can ingest pre-sorted runs straight into the
  /// local engine (`local_engine()->BulkLoad`).  Every binding whose data
  /// ultimately lives in the local `ShardedStore` qualifies — the decorators
  /// (latency, cloud simulation, faults, resilience) are value-passthrough,
  /// so a record bulk-loaded underneath them reads back identically.
  bool SupportsBulkLoad() const { return initialized_ && local_engine_ != nullptr; }

  /// Translates an encoded record value into the engine-level representation
  /// this binding stores: the MVCC committed-record wrapper for `txn+*`
  /// bindings (see `ClientTxnStore::EncodeLoadValue`), identity elsewhere.
  /// Only meaningful when `SupportsBulkLoad()`.
  std::string EncodeBulkValue(std::string_view value) const {
    return client_txn_store_ != nullptr ? client_txn_store_->EncodeLoadValue(value)
                                        : std::string(value);
  }

  /// The stats-reporting layers of the stack, in build order (bottom-up).
  /// The pointees are owned by this factory.
  const std::vector<StatsLayer*>& stats_layers() const { return stats_layers_; }

  /// Substrate handles (may be null depending on the binding) — used by
  /// benches and tests to reach behind the DB abstraction.
  const std::shared_ptr<kv::Store>& front_store() const { return front_store_; }
  const std::shared_ptr<cloud::SimCloudStore>& cloud_store() const { return cloud_; }
  /// Non-null iff `cloud.regions > 1` on a cloud binding.
  const std::shared_ptr<cloud::ReplicatedCloudStore>& replicated_store() const {
    return replicated_;
  }
  const std::shared_ptr<txn::TransactionalKV>& txn_kv() const { return txn_kv_; }
  txn::ClientTxnStore* client_txn_store() const { return client_txn_store_; }
  /// Non-null iff the binding is `occ+memkv`.
  txn::OccEngine* occ_engine() const { return occ_engine_; }
  /// Non-null iff fault injection is configured; arm with `set_enabled`.
  kv::FaultInjectingStore* fault_store() const { return fault_store_.get(); }
  /// Non-null iff `storage.fault.*` is configured; arm with `set_enabled`.
  kv::FaultInjectingEnv* storage_fault_env() const {
    return storage_fault_env_.get();
  }
  /// Non-null iff the overload-tolerance layer is configured.
  kv::ResilientStore* resilient_store() const { return resilient_store_.get(); }
  /// Non-null iff the binding runs on the local engine (directly or below
  /// decorators) — the bulk-load target.
  kv::ShardedStore* local_engine() const { return local_engine_.get(); }
  /// Non-null iff `txn.fanout_threads > 0`.
  const std::shared_ptr<RpcExecutor>& rpc_executor() const {
    return rpc_executor_;
  }

 private:
  Status BuildBase(const std::string& base_name);

  void Register(StatsLayer* layer) { stats_layers_.push_back(layer); }

  /// Builds the local `kv::ShardedStore` engine from `memkv.*` properties
  /// and remembers it in `local_engine_`.
  std::shared_ptr<kv::Store> MakeLocalEngine();

  /// Wraps `front_store_` in the fault-injection decorator when any
  /// `fault.*` rate is configured.
  void MaybeInjectFaults();

  /// Wraps `front_store_` in the overload-tolerance decorator when a
  /// breaker, hedging or an enforced deadline is configured.  Call after
  /// `MaybeInjectFaults` so the breaker observes injected faults.
  void MaybeAddResilience();

  /// Builds the shared fan-out executor when `txn.fanout_threads > 0` and
  /// attaches it to every layer with a batched path.  Call after the store
  /// stack is assembled.
  void MaybeAttachExecutor();

  Properties props_;
  std::string name_;
  /// Storage fault layer under the local engine; must outlive it, so it is
  /// declared before every member that shares ownership of the engine.
  std::unique_ptr<kv::FaultInjectingEnv> storage_fault_env_;
  std::shared_ptr<kv::Store> front_store_;
  std::shared_ptr<kv::ShardedStore> local_engine_;
  /// Outcome of the local engine's `Open()` (checkpoint load + WAL replay);
  /// surfaced by `Init` instead of being swallowed.
  Status local_engine_status_;
  std::shared_ptr<kv::FaultInjectingStore> fault_store_;
  std::shared_ptr<kv::ResilientStore> resilient_store_;
  std::shared_ptr<cloud::SimCloudStore> cloud_;
  std::shared_ptr<cloud::ReplicatedCloudStore> replicated_;
  std::shared_ptr<RpcExecutor> rpc_executor_;
  std::shared_ptr<txn::TransactionalKV> txn_kv_;
  txn::ClientTxnStore* client_txn_store_ = nullptr;  // owned via txn_kv_
  txn::OccEngine* occ_engine_ = nullptr;             // owned via txn_kv_
  std::vector<StatsLayer*> stats_layers_;
  bool initialized_ = false;
};

}  // namespace ycsbt

#endif  // YCSBT_DB_DB_FACTORY_H_
