#include "db/db_factory.h"

#include "db/basic_db.h"
#include "db/kvstore_db.h"
#include "db/property_catalog.h"
#include "db/txn_db.h"
#include "txn/timestamp.h"

namespace ycsbt {

std::shared_ptr<kv::Store> DBFactory::MakeLocalEngine() {
  kv::StoreOptions options = kv::StoreOptions::FromProperties(props_);
  kv::StorageFaultOptions storage_faults =
      kv::StorageFaultOptions::FromProperties(props_);
  if (storage_faults.Any()) {
    // Disarmed until the driver arms the measured run phase; the load and
    // recovery phases always see a faithful filesystem.
    storage_fault_env_ = std::make_unique<kv::FaultInjectingEnv>(
        kv::Env::Default(), storage_faults);
    options.env = storage_fault_env_.get();
    Register(storage_fault_env_.get());
  }
  auto store = std::make_shared<kv::ShardedStore>(options);
  local_engine_status_ = store->Open();  // no-op for volatile stores
  local_engine_ = store;
  // Without a WAL the engine has nothing to report.
  if (store->wal_enabled()) Register(store.get());
  return store;
}

void DBFactory::MaybeInjectFaults() {
  kv::FaultOptions options = kv::FaultOptions::FromProperties(props_);
  if (!options.Any()) return;
  fault_store_ = std::make_shared<kv::FaultInjectingStore>(front_store_, options);
  front_store_ = fault_store_;
  Register(fault_store_.get());
}

void DBFactory::MaybeAddResilience() {
  kv::ResilienceOptions options = kv::ResilienceOptions::FromProperties(props_);
  bool deadline_wanted = kRetryDeadlineUs.Get<uint64_t>(props_) > 0;
  if (!options.breaker.enabled && !options.hedge_enabled && !deadline_wanted) {
    return;
  }
  // One breaker per backend partition: the replicated store's regions, the
  // cloud store's containers, or the single local engine.
  int backends = cloud_ != nullptr ? cloud_->profile().containers : 1;
  if (replicated_ != nullptr) backends = replicated_->options().regions;
  resilient_store_ =
      std::make_shared<kv::ResilientStore>(front_store_, options, backends);
  if (replicated_ != nullptr) {
    std::shared_ptr<cloud::ReplicatedCloudStore> rep = replicated_;
    resilient_store_->set_backend_resolver(
        [rep](const std::string& key) { return rep->BreakerBackendFor(key); });
  }
  front_store_ = resilient_store_;
  Register(resilient_store_.get());
}

void DBFactory::MaybeAttachExecutor() {
  int threads = kTxnFanoutThreads.Get<int>(props_);
  if (threads == 0) return;
  // Same seed the workload generators use, so one `seed` property pins the
  // entire run (worker RNG draws included).
  rpc_executor_ = std::make_shared<RpcExecutor>(
      threads, /*max_inflight=*/0, kSeed.Get<uint64_t>(props_));
  Register(rpc_executor_.get());
  if (cloud_ != nullptr) cloud_->set_executor(rpc_executor_);
  if (local_engine_ != nullptr) local_engine_->set_executor(rpc_executor_);
  if (resilient_store_ != nullptr) resilient_store_->set_executor(rpc_executor_);
}

Status DBFactory::BuildBase(const std::string& base_name) {
  if (base_name == "memkv") {
    front_store_ = MakeLocalEngine();
    return local_engine_status_;
  }
  if (base_name == "was" || base_name == "gcs" || base_name == "rawhttp") {
    cloud::CloudProfile profile = cloud::CloudProfile::FromProperties(
        props_, base_name == "was"   ? cloud::CloudProfile::Was()
                : base_name == "gcs" ? cloud::CloudProfile::Gcs()
                                     : cloud::CloudProfile::Loopback());
    cloud_ = std::make_shared<cloud::SimCloudStore>(profile, MakeLocalEngine());
    if (!local_engine_status_.ok()) return local_engine_status_;
    Register(cloud_.get());
    front_store_ = cloud_;
    if (cloud::kCloudRegions.Get<int>(props_) > 1) {
      cloud::ReplicationOptions ropts;
      Status rs = cloud::ReplicationOptions::FromProperties(props_, &ropts);
      if (!rs.ok()) return rs;
      // Replication lag draws from its own stream off the run seed, so
      // turning regions on never shifts the workload/fault draws.
      ropts.seed = kSeed.Get<uint64_t>(props_) ^ 0x5EEDFA11ull;
      replicated_ = std::make_shared<cloud::ReplicatedCloudStore>(
          cloud_, local_engine_, ropts);
      front_store_ = replicated_;
      Register(replicated_.get());
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown base store: " + base_name);
}

Status DBFactory::Init() {
  if (initialized_) return Status::InvalidArgument("factory already initialized");
  Status valid = ValidateProperties(props_);
  if (!valid.ok()) return valid;
  name_ = kDb.Get<std::string>(props_);

  if (name_ == "basic") {
    initialized_ = true;
    return Status::OK();
  }

  if (name_.rfind("txn+", 0) == 0) {
    // The no-wait lock round is a fan-out of parallel CASes; without an
    // executor the library would quietly run ordered locking instead.
    if (txn::kTxnLockAcquireMode.GetEnum<txn::TxnOptions::LockAcquireMode>(props_) ==
            txn::TxnOptions::LockAcquireMode::kNoWait &&
        kTxnFanoutThreads.Get<int>(props_) == 0) {
      return Status::InvalidArgument(
          std::string(txn::kTxnLockAcquireMode.name) + "=nowait needs " +
          std::string(kTxnFanoutThreads.name) + " > 0");
    }
    Status s = BuildBase(name_.substr(4));
    if (!s.ok()) return s;
    MaybeInjectFaults();
    MaybeAddResilience();
    MaybeAttachExecutor();

    txn::TxnOptions options = txn::TxnOptions::FromProperties(props_);
    options.crash_injector = fault_store_.get();  // null when faults are off
    options.executor = rpc_executor_;  // null when txn.fanout_threads == 0

    std::shared_ptr<txn::TimestampSource> ts;
    if (kTxnTimestamps.Get<std::string>(props_) == "oracle") {
      auto oracle = std::make_shared<txn::OracleTimestampSource::Oracle>();
      double rtt = kTxnOracleRttUs.Get<double>(props_);
      ts = std::make_shared<txn::OracleTimestampSource>(
          oracle, LatencyModel(rtt, 0.25, rtt * 0.5));
    } else {
      ts = std::make_shared<txn::HlcTimestampSource>();
    }

    auto store = std::make_shared<txn::ClientTxnStore>(front_store_, ts, options);
    client_txn_store_ = store.get();
    txn_kv_ = store;
    Register(store.get());
    initialized_ = true;
    return Status::OK();
  }

  if (name_ == "occ+memkv") {
    // Self-contained in-memory engine (DESIGN.md §15): no kv::Store below
    // it, so the fault/resilience decorators do not apply to this binding.
    auto engine = std::make_shared<txn::OccEngine>(
        txn::OccOptions::FromProperties(props_));
    occ_engine_ = engine.get();
    txn_kv_ = engine;
    Register(engine.get());
    initialized_ = true;
    return Status::OK();
  }

  if (name_ == "2pl+memkv") {
    front_store_ = MakeLocalEngine();
    if (!local_engine_status_.ok()) return local_engine_status_;
    MaybeInjectFaults();
    MaybeAddResilience();
    auto store = std::make_shared<txn::Local2PLStore>(
        front_store_, txn::Local2PLOptions::FromProperties(props_));
    txn_kv_ = store;
    Register(store.get());
    initialized_ = true;
    return Status::OK();
  }

  Status s = BuildBase(name_);
  if (!s.ok()) return s;
  MaybeInjectFaults();
  MaybeAddResilience();
  MaybeAttachExecutor();
  initialized_ = true;
  return Status::OK();
}

std::unique_ptr<DB> DBFactory::CreateClient() {
  if (!initialized_) return nullptr;
  if (name_ == "basic") return std::make_unique<BasicDB>();
  if (txn_kv_ != nullptr) return std::make_unique<TxnDB>(txn_kv_);
  return std::make_unique<KvStoreDB>(front_store_);
}

}  // namespace ycsbt
