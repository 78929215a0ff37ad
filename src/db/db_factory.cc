#include "db/db_factory.h"

#include "db/basic_db.h"
#include "db/kvstore_db.h"
#include "db/txn_db.h"
#include "txn/timestamp.h"

namespace ycsbt {

std::shared_ptr<kv::Store> DBFactory::MakeLocalEngine() {
  kv::StoreOptions options;
  options.num_shards = static_cast<int>(props_.GetInt("memkv.shards", 16));
  options.wal_path = props_.Get("memkv.wal_path", "");
  options.sync_wal = props_.GetBool("memkv.sync_wal", false);
  options.wal_group_commit = props_.GetBool("memkv.wal_group_commit", false);
  options.wal_group_max_batch =
      static_cast<int>(props_.GetInt("memkv.wal_group_max_batch", 64));
  options.wal_group_window_us =
      static_cast<uint32_t>(props_.GetInt("memkv.wal_group_window_us", 0));
  options.checkpoint_path = props_.Get("memkv.checkpoint_path", "");
  options.checkpoint_dir_sync = props_.GetBool("memkv.checkpoint_dir_sync", true);
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

std::shared_ptr<kv::Store> DBFactory::MakeRawHttp() {
  // The paper's WiredTiger-behind-Boost-ASIO server, modelled as the local
  // engine plus the loopback HTTP round trip observed in Listing 3
  // (min ~1.2 ms, mean ~1.5 ms, heavy tail).
  auto inner = MakeLocalEngine();
  auto instrumented = std::make_shared<kv::InstrumentedStore>(inner);
  double median = props_.GetDouble("rawhttp.latency_median_us", 1450.0);
  double sigma = props_.GetDouble("rawhttp.latency_sigma", 0.35);
  double floor = props_.GetDouble("rawhttp.latency_floor_us", 1150.0);
  instrumented->set_latency_model(LatencyModel(median, sigma, floor));
  return instrumented;
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
  bool deadline_wanted = options.deadline_fail_fast &&
                         props_.GetUint("retry.deadline_us", 0) > 0;
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
  int threads = static_cast<int>(props_.GetInt("txn.fanout_threads", 0));
  if (threads <= 0) return;
  int max_inflight = static_cast<int>(props_.GetInt("txn.max_inflight", 0));
  // Same seed the workload generators use, so one `seed` property pins the
  // entire run (worker RNG draws included).
  uint64_t seed = props_.GetUint("seed", 0x5EEDBA5Eull);
  rpc_executor_ = std::make_shared<RpcExecutor>(threads, max_inflight, seed);
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
  if (base_name == "rawhttp") {
    front_store_ = MakeRawHttp();
    return local_engine_status_;
  }
  if (base_name == "was" || base_name == "gcs") {
    cloud::CloudProfile profile = base_name == "was" ? cloud::CloudProfile::Was()
                                                     : cloud::CloudProfile::Gcs();
    // cloud.rate_limit: absent -> profile default; 0 -> uncapped; >0 -> cap.
    double rate = props_.GetDouble("cloud.rate_limit", -1.0);
    if (rate >= 0.0) profile.container_rate_limit = rate;
    profile.containers =
        static_cast<int>(props_.GetInt("cloud.containers", profile.containers));
    double serial = props_.GetDouble("cloud.client_serial_us", -1.0);
    if (serial >= 0.0) profile.client_serial_us_per_inflight = serial;
    profile.max_queue_delay_us =
        props_.GetDouble("cloud.max_queue_delay_us", profile.max_queue_delay_us);
    cloud_ = std::make_shared<cloud::SimCloudStore>(profile, MakeLocalEngine());
    if (!local_engine_status_.ok()) return local_engine_status_;
    Register(cloud_.get());
    double scale = props_.GetDouble("cloud.latency_scale", 1.0);
    if (scale != 1.0) cloud_->ScaleLatency(scale);
    front_store_ = cloud_;
    if (props_.GetInt("cloud.regions", 1) > 1) {
      cloud::ReplicationOptions ropts;
      Status rs = cloud::ReplicationOptions::FromProperties(props_, &ropts);
      if (!rs.ok()) return rs;
      // Replication lag draws from its own stream off the run seed, so
      // turning regions on never shifts the workload/fault draws.
      ropts.seed = props_.GetUint("seed", 0x5EEDBA5Eull) ^ 0x5EEDFA11ull;
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
  name_ = props_.Get("db", "basic");

  if (name_ == "basic") {
    basic_delay_us_ = props_.GetUint("basicdb.delay_us", 0);
    initialized_ = true;
    return Status::OK();
  }

  if (name_.rfind("txn+", 0) == 0) {
    Status s = BuildBase(name_.substr(4));
    if (!s.ok()) return s;
    MaybeInjectFaults();
    MaybeAddResilience();
    MaybeAttachExecutor();

    txn::TxnOptions options;
    std::string isolation = props_.Get("txn.isolation", "snapshot");
    if (isolation == "serializable") {
      options.isolation = txn::Isolation::kSerializable;
    } else if (isolation != "snapshot") {
      return Status::InvalidArgument("unknown txn.isolation: " + isolation);
    }
    options.lock_lease_us = props_.GetUint("txn.lease_us", options.lock_lease_us);
    options.cleanup_tsr = props_.GetBool("txn.cleanup_tsr", true);
    options.crash_injector = fault_store_.get();  // null when faults are off

    options.lock_wait_jitter = props_.GetBool("txn.lock_wait_jitter", true);
    options.lock_wait_delay_us =
        props_.GetUint("txn.lock_wait_delay_us", options.lock_wait_delay_us);
    options.lock_wait_max_delay_us = props_.GetUint(
        "txn.lock_wait_max_delay_us", options.lock_wait_delay_us * 8);
    options.seed = props_.GetUint("seed", 0x5EEDBA5Eull);

    std::string lock_mode = props_.Get("txn.lock_acquire_mode", "ordered");
    if (lock_mode == "nowait") {
      options.lock_acquire_mode = txn::TxnOptions::LockAcquireMode::kNoWait;
    } else if (lock_mode != "ordered") {
      return Status::InvalidArgument("unknown txn.lock_acquire_mode: " +
                                     lock_mode);
    }
    options.executor = rpc_executor_;  // null when txn.fanout_threads == 0

    std::shared_ptr<txn::TimestampSource> ts;
    std::string ts_kind = props_.Get("txn.timestamps", "hlc");
    if (ts_kind == "hlc") {
      ts = std::make_shared<txn::HlcTimestampSource>();
    } else if (ts_kind == "oracle") {
      auto oracle = std::make_shared<txn::OracleTimestampSource::Oracle>();
      double rtt = props_.GetDouble("txn.oracle_rtt_us", 500.0);
      ts = std::make_shared<txn::OracleTimestampSource>(
          oracle, LatencyModel(rtt, 0.25, rtt * 0.5));
    } else {
      return Status::InvalidArgument("unknown txn.timestamps: " + ts_kind);
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
    txn::OccOptions options;
    options.epoch_ms = props_.GetUint("occ.epoch_ms", options.epoch_ms);
    options.read_validation =
        props_.GetBool("occ.read_validation", options.read_validation);
    options.retire_batch = static_cast<size_t>(
        props_.GetUint("occ.retire_batch", options.retire_batch));
    auto engine = std::make_shared<txn::OccEngine>(options);
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
    txn::Local2PLOptions options;
    options.lock_timeout_us =
        props_.GetUint("2pl.lock_timeout_us", options.lock_timeout_us);
    auto store = std::make_shared<txn::Local2PLStore>(front_store_, options);
    txn_kv_ = store;
    Register(store.get());
    initialized_ = true;
    return Status::OK();
  }

  Status s = BuildBase(name_);
  if (!s.ok()) {
    return s.IsInvalidArgument() ? Status::InvalidArgument("unknown db: " + name_)
                                 : s;
  }
  MaybeInjectFaults();
  MaybeAddResilience();
  MaybeAttachExecutor();
  initialized_ = true;
  return Status::OK();
}

std::unique_ptr<DB> DBFactory::CreateClient() {
  if (!initialized_) return nullptr;
  if (name_ == "basic") return std::make_unique<BasicDB>(basic_delay_us_);
  if (txn_kv_ != nullptr) return std::make_unique<TxnDB>(txn_kv_);
  return std::make_unique<KvStoreDB>(front_store_);
}

}  // namespace ycsbt
