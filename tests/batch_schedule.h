#ifndef YCSBT_TESTS_BATCH_SCHEDULE_H_
#define YCSBT_TESTS_BATCH_SCHEDULE_H_

// A fixed, single-threaded sequence of MultiGet/MultiWrite batches for the
// decorators' characterization pins: the rows' status codes and a layer's
// Collect counters, each rendered as one string so a pin is one EXPECT_EQ.

#include <string>
#include <vector>

#include "common/stats_layer.h"
#include "common/status.h"
#include "kv/store.h"
#include "str_cat.h"

namespace ycsbt {

/// Runs `batches` batches through `store`: sizes cycle 1, 2, 5; even batches
/// are MultiGets, odd ones MultiWrites whose ops cycle Put, insert-if-absent
/// CondPut, Delete and a CondDelete on an etag no write produced.  Keys
/// within one batch are distinct, so a base store that fans a batch out
/// gives the same rows in any schedule.  Returns every row's status code,
/// batches separated by " | ".
inline std::string RunBatchSchedule(kv::Store& store, int batches = 30) {
  static constexpr size_t kSizes[] = {1, 2, 5};
  std::string out;
  for (int b = 0; b < batches; ++b) {
    size_t size = kSizes[b % 3];
    std::vector<std::string> keys;
    for (size_t j = 0; j < size; ++j) {
      keys.push_back(StrCat("k", (b * 5 + static_cast<int>(j) * 3) % 11));
    }
    std::vector<Status> statuses;
    if (b % 2 == 0) {
      std::vector<kv::MultiGetResult> rows;
      store.MultiGet(keys, &rows);
      for (const auto& r : rows) statuses.push_back(r.status);
    } else {
      std::vector<kv::WriteOp> ops;
      for (size_t j = 0; j < size; ++j) {
        switch ((b + static_cast<int>(j)) % 4) {
          case 0: ops.push_back(kv::WriteOp::Put(keys[j], StrCat("v", b))); break;
          case 1:
            ops.push_back(kv::WriteOp::CondPut(keys[j], StrCat("c", b),
                                               kv::kEtagAbsent));
            break;
          case 2: ops.push_back(kv::WriteOp::Delete(keys[j])); break;
          default: ops.push_back(kv::WriteOp::CondDelete(keys[j], 1u << 30)); break;
        }
      }
      std::vector<kv::WriteResult> rows;
      store.MultiWrite(ops, &rows);
      for (const auto& r : rows) statuses.push_back(r.status);
    }
    if (b > 0) out += " | ";
    for (size_t j = 0; j < statuses.size(); ++j) {
      if (j > 0) out += ' ';
      out += Status::CodeName(statuses[j].code());
    }
  }
  return out;
}

/// `layer`'s Collect counters as "NAME=value" joined by ", ".
inline std::string CollectedCounters(StatsLayer& layer) {
  LayerStats stats;
  layer.Collect(&stats);
  std::string out;
  for (const auto& [name, value] : stats.counters) {
    if (!out.empty()) out += ", ";
    out += StrCat(name, "=", value);
  }
  return out;
}

}  // namespace ycsbt

#endif  // YCSBT_TESTS_BATCH_SCHEDULE_H_
