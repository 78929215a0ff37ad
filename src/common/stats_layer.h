#ifndef YCSBT_COMMON_STATS_LAYER_H_
#define YCSBT_COMMON_STATS_LAYER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace ycsbt {

/// What one layer reports from one `StatsLayer::Collect` call.  Names are the
/// exporters' line names (`WAL APPENDS` renders as `[WAL APPENDS], 12`);
/// histogram names are measurement series (`WAL-SYNC`).  Entries keep the
/// order the layer appended them in, which is the order they are printed.
struct LayerStats {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, Histogram>> histograms;
  /// Free-text facts, e.g. why a checkpoint was scrubbed.
  std::vector<std::pair<std::string, std::string>> notes;

  void Count(std::string name, uint64_t value) {
    counters.emplace_back(std::move(name), value);
  }
  void Distribution(std::string name, Histogram histogram) {
    histograms.emplace_back(std::move(name), std::move(histogram));
  }
  void Note(std::string name, std::string text) {
    notes.emplace_back(std::move(name), std::move(text));
  }
};

/// One layer's counters and notes as a run reports them (its histograms
/// have been folded into the measurement series).
struct LayerCounters {
  std::string layer;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// The value of the counter line `name` in any layer, or nullopt when no
/// layer reported that line (as opposed to reporting zero).
inline std::optional<uint64_t> FindCounter(const std::vector<LayerCounters>& layers,
                                           std::string_view name) {
  for (const auto& layer : layers) {
    for (const auto& [key, value] : layer.counters) {
      if (key == name) return value;
    }
  }
  return std::nullopt;
}

/// A layer of the store stack that reports what it did (DESIGN.md §17).
/// `DBFactory` registers every layer it builds, in build order; the runner
/// collects them all before and after the measured run and the exporters
/// print every registered layer's lines — so a layer's lines appear exactly
/// when the layer is in the stack.
class StatsLayer {
 public:
  virtual ~StatsLayer() = default;

  /// Short stable name, the layer's group key in the JSON export.
  virtual const char* name() const = 0;

  /// Appends to `out` what the layer did since the previous `Collect` (since
  /// construction for the first call): event counts and the distributions
  /// of events in that window.  The one exception is a fact fixed before
  /// the first call — what the engine's recovery replayed at open — which
  /// every call restates.  Calls must not overlap; the layer's own traffic
  /// may run concurrently.
  virtual void Collect(LayerStats* out) = 0;

  /// Arms (true) or disarms (false) injected faults.  The benchmark driver
  /// arms every layer around the measured run only, so the load and
  /// validation phases see a faithful stack.  Default: nothing to arm.
  virtual void Arm(bool /*armed*/) {}
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_STATS_LAYER_H_
