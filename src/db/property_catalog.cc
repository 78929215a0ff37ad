#include "db/property_catalog.h"

#include "cloud/replicated_cloud_store.h"
#include "cloud/sim_cloud_store.h"
#include "common/circuit_breaker.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/retry_policy.h"
#include "core/arrival.h"
#include "core/brownout.h"
#include "core/closed_economy_workload.h"
#include "core/core_workload.h"
#include "core/runner.h"
#include "core/suite.h"
#include "core/workload_factory.h"
#include "core/write_skew_workload.h"
#include "db/db_factory.h"
#include "kv/fault_env.h"
#include "kv/fault_injecting_store.h"
#include "kv/resilient_store.h"
#include "kv/store.h"
#include "txn/local_2pl.h"
#include "txn/occ_engine.h"
#include "txn/transaction.h"

namespace ycsbt {

namespace {

constexpr PropertyList kAllLists[] = {
    kSeedProperties,
    kRetryProperties,
    kBreakerProperties,
    kFailoverProperties,
    kv::kStoreProperties,
    kv::kFaultProperties,
    kv::kStorageFaultProperties,
    kv::kResilienceProperties,
    cloud::kCloudProfileProperties,
    cloud::kReplicationProperties,
    txn::kTxnProperties,
    txn::kOccProperties,
    txn::kLocal2PLProperties,
    kDBFactoryProperties,
    core::kWorkloadFactoryProperties,
    core::kCoreWorkloadProperties,
    core::kClosedEconomyProperties,
    core::kWriteSkewProperties,
    core::kRunProperties,
    core::kArrivalProperties,
    core::kBrownoutProperties,
    core::kSuiteProperties,
};

}  // namespace

std::span<const PropertyList> AllPropertyLists() { return kAllLists; }

Status ValidateProperties(const Properties& props,
                          std::vector<std::string>* unknown) {
  return ValidatePropertiesAgainst(props, kAllLists, unknown);
}

}  // namespace ycsbt
