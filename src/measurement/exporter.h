#ifndef YCSBT_MEASUREMENT_EXPORTER_H_
#define YCSBT_MEASUREMENT_EXPORTER_H_

#include <string>
#include <vector>

#include "common/stats_layer.h"
#include "measurement/measurements.h"

namespace ycsbt {

/// Run-level figures printed ahead of the per-operation series.
///
/// `extra` carries workload-specific validation lines; the Closed Economy
/// Workload fills it with `TOTAL CASH`, `COUNTED CASH`, `ACTUAL OPERATIONS`
/// and `ANOMALY SCORE`, matching the paper's Listing 3.
struct RunSummary {
  double runtime_ms = 0.0;
  double throughput_ops_sec = 0.0;
  uint64_t operations = 0;
  bool has_validation = false;
  bool validation_passed = true;
  /// Ordered key/value lines emitted before [OVERALL].
  std::vector<std::pair<std::string, std::string>> extra;
  /// Per-layer counter lines, emitted after `extra` (text: `[NAME], value`;
  /// JSON: a `counters` object of numbers grouped by layer).  A layer's notes
  /// follow its counters in the text export and join `extra` in the JSON.
  std::vector<LayerCounters> counters;
  /// Per-window progress trajectory from the status thread (empty when the
  /// run had no status interval); rendered as `[INTERVAL]` lines / an
  /// `intervals` array after the overall figures.
  std::vector<IntervalSample> intervals;
  /// True for open-loop (arrival-scheduled) runs: the exporters then extend
  /// every `[INTERVAL]` line with the scheduler-lag / backlog / drop columns.
  /// Closed-loop output is byte-identical to what it always was.
  bool open_loop = false;
};

/// `s` as the body of a JSON string literal: quotes, backslashes and every
/// control character escaped.
std::string JsonEscape(const std::string& s);

/// Renders measurements in the YCSB text format of the paper's Listing 3:
///
///   [TOTAL CASH], 1000000
///   [ANOMALY SCORE], 2.9E-5
///   [OVERALL], RunTime(ms), 124619.0
///   [OVERALL], Throughput(ops/sec), 8024.45
///   [INTERVAL], EndTime(s), Operations, Throughput(ops/sec), AverageLatency(us)
///   [INTERVAL], 1.0, 8123, 8123.0, 117.2
///   [UPDATE], Operations, 200206
///   [UPDATE], AverageLatency(us), 1536.46
///   ...
class TextExporter {
 public:
  static std::string Export(const RunSummary& summary,
                            const std::vector<OpStats>& ops);
};

/// Renders the same data as a single JSON object (machine-readable runs for
/// the bench harness and plotting scripts).
class JsonExporter {
 public:
  static std::string Export(const RunSummary& summary,
                            const std::vector<OpStats>& ops);
};

}  // namespace ycsbt

#endif  // YCSBT_MEASUREMENT_EXPORTER_H_
