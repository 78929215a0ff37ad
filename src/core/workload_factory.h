#ifndef YCSBT_CORE_WORKLOAD_FACTORY_H_
#define YCSBT_CORE_WORKLOAD_FACTORY_H_

#include <memory>

#include "core/workload.h"

namespace ycsbt {
namespace core {

/// `core` is CoreWorkload, `closed_economy` ClosedEconomyWorkload and
/// `write_skew` WriteSkewWorkload (isolation-level anomaly targeting, the
/// paper's §VII future work).  The Java class names of the original
/// framework are accepted verbatim so the paper's Listing 2 properties files
/// run unmodified.
inline constexpr std::string_view kWorkloadNames[] = {
    "core", "com.yahoo.ycsb.workloads.CoreWorkload", "closed_economy",
    "com.yahoo.ycsb.workloads.ClosedEconomyWorkload", "write_skew"};
inline constexpr PropertyDecl kWorkload =
    EnumProperty("workload", "core", kWorkloadNames, "the workload class");
inline constexpr const PropertyDecl* kWorkloadFactoryProperties[] = {&kWorkload};

/// Validates the properties (`ValidateProperties`), then instantiates and
/// initialises the workload named by the `workload` property.
Status CreateWorkload(const Properties& props, std::unique_ptr<Workload>* out);

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_WORKLOAD_FACTORY_H_
