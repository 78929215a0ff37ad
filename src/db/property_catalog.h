#ifndef YCSBT_DB_PROPERTY_CATALOG_H_
#define YCSBT_DB_PROPERTY_CATALOG_H_

#include <span>
#include <string>
#include <vector>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/status.h"

namespace ycsbt {

/// Every module's property declarations, one `PropertyList` each
/// (DESIGN.md §19).  The lists are `inline constexpr` data in the modules'
/// headers, so this library reaches the workload and runner lists of
/// `ycsbt_core` without linking it.
std::span<const PropertyList> AllPropertyLists();

/// Checks every key of `props` against every declaration: each value must
/// parse as its key's type and lie in its range or choice set, suite forms
/// (`base.`, `config.<n>.`, `mix.<n>.`, `sweep.`) and each listed sweep
/// value included.  Returns InvalidArgument naming the first bad key, its
/// value and what is allowed.  Unknown keys are not rejected: they are
/// warned about, or returned in `unknown` when that is given.
/// `DBFactory::Init`, `core::CreateWorkload` and `core::SuiteSpec` call it.
Status ValidateProperties(const Properties& props,
                          std::vector<std::string>* unknown = nullptr);

}  // namespace ycsbt

#endif  // YCSBT_DB_PROPERTY_CATALOG_H_
