#include "core/workload_factory.h"

#include "core/closed_economy_workload.h"
#include "core/core_workload.h"
#include "core/write_skew_workload.h"
#include "db/property_catalog.h"

namespace ycsbt {
namespace core {

Status CreateWorkload(const Properties& props, std::unique_ptr<Workload>* out) {
  Status s = ValidateProperties(props);
  if (!s.ok()) return s;
  std::string name = kWorkload.Get<std::string>(props);
  std::unique_ptr<Workload> workload;
  if (name == "closed_economy" ||
      name == "com.yahoo.ycsb.workloads.ClosedEconomyWorkload") {
    workload = std::make_unique<ClosedEconomyWorkload>();
  } else if (name == "write_skew") {
    workload = std::make_unique<WriteSkewWorkload>();
  } else {
    workload = std::make_unique<CoreWorkload>();
  }
  s = workload->Init(props);
  if (!s.ok()) return s;
  *out = std::move(workload);
  return Status::OK();
}

}  // namespace core
}  // namespace ycsbt
