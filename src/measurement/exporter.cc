#include "measurement/exporter.h"

#include <cstdio>
#include <sstream>

namespace ycsbt {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string TextExporter::Export(const RunSummary& summary,
                                 const std::vector<OpStats>& ops) {
  std::ostringstream out;
  if (summary.has_validation) {
    out << (summary.validation_passed ? "Database validation passed"
                                      : "Validation failed")
        << "\n";
  }
  for (const auto& [key, value] : summary.extra) {
    out << "[" << key << "], " << value << "\n";
  }
  for (const auto& layer : summary.counters) {
    for (const auto& [key, value] : layer.counters) {
      out << "[" << key << "], " << value << "\n";
    }
    for (const auto& [key, text] : layer.notes) {
      out << "[" << key << "], " << text << "\n";
    }
  }
  if (summary.has_validation && !summary.validation_passed) {
    out << "Database validation failed\n";
  }
  out << "[OVERALL], RunTime(ms), " << FormatDouble(summary.runtime_ms) << "\n";
  out << "[OVERALL], Throughput(ops/sec), "
      << FormatDouble(summary.throughput_ops_sec) << "\n";
  if (!summary.intervals.empty()) {
    out << "[INTERVAL], EndTime(s), Operations, Throughput(ops/sec), "
           "AverageLatency(us)";
    if (summary.open_loop) out << ", SchedLag(us), Backlog, ArrivalDrops";
    out << "\n";
    for (const auto& w : summary.intervals) {
      out << "[INTERVAL], " << FormatDouble(w.end_seconds) << ", " << w.operations
          << ", " << FormatDouble(w.ops_per_sec) << ", "
          << FormatDouble(w.avg_latency_us);
      if (summary.open_loop) {
        out << ", " << FormatDouble(w.sched_lag_avg_us) << ", " << w.backlog
            << ", " << w.arrival_drops;
      }
      out << "\n";
    }
  }
  for (const auto& op : ops) {
    if (op.operations == 0) continue;
    out << "[" << op.name << "], Operations, " << op.operations << "\n";
    out << "[" << op.name << "], AverageLatency(us), "
        << FormatDouble(op.average_latency_us) << "\n";
    out << "[" << op.name << "], MinLatency(us), " << op.min_latency_us << "\n";
    out << "[" << op.name << "], MaxLatency(us), " << op.max_latency_us << "\n";
    out << "[" << op.name << "], 50thPercentileLatency(us), " << op.p50_latency_us
        << "\n";
    out << "[" << op.name << "], 95thPercentileLatency(us), " << op.p95_latency_us
        << "\n";
    out << "[" << op.name << "], 99thPercentileLatency(us), " << op.p99_latency_us
        << "\n";
    out << "[" << op.name << "], 99.9thPercentileLatency(us), "
        << op.p999_latency_us << "\n";
    for (const auto& [code, count] : op.return_counts) {
      out << "[" << op.name << "], Return=" << code << ", " << count << "\n";
    }
  }
  return out.str();
}

std::string JsonExporter::Export(const RunSummary& summary,
                                 const std::vector<OpStats>& ops) {
  std::ostringstream out;
  out << "{";
  out << "\"runtime_ms\":" << FormatDouble(summary.runtime_ms) << ",";
  out << "\"throughput_ops_sec\":" << FormatDouble(summary.throughput_ops_sec)
      << ",";
  out << "\"operations\":" << summary.operations << ",";
  if (summary.has_validation) {
    out << "\"validation_passed\":" << (summary.validation_passed ? "true" : "false")
        << ",";
  }
  std::vector<std::pair<std::string, std::string>> extra = summary.extra;
  for (const auto& layer : summary.counters) {
    extra.insert(extra.end(), layer.notes.begin(), layer.notes.end());
  }
  if (!extra.empty()) {
    out << "\"extra\":{";
    bool first = true;
    for (const auto& [key, value] : extra) {
      if (!first) out << ",";
      first = false;
      out << "\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
    }
    out << "},";
  }
  if (!summary.counters.empty()) {
    out << "\"counters\":{";
    bool first_layer = true;
    for (const auto& layer : summary.counters) {
      if (!first_layer) out << ",";
      first_layer = false;
      out << "\"" << JsonEscape(layer.layer) << "\":{";
      bool first = true;
      for (const auto& [key, value] : layer.counters) {
        if (!first) out << ",";
        first = false;
        out << "\"" << JsonEscape(key) << "\":" << value;
      }
      out << "}";
    }
    out << "},";
  }
  if (!summary.intervals.empty()) {
    out << "\"intervals\":[";
    bool first_window = true;
    for (const auto& w : summary.intervals) {
      if (!first_window) out << ",";
      first_window = false;
      out << "{\"end_s\":" << FormatDouble(w.end_seconds)
          << ",\"ops\":" << w.operations
          << ",\"ops_per_sec\":" << FormatDouble(w.ops_per_sec)
          << ",\"avg_us\":" << FormatDouble(w.avg_latency_us);
      if (summary.open_loop) {
        out << ",\"sched_lag_us\":" << FormatDouble(w.sched_lag_avg_us)
            << ",\"backlog\":" << w.backlog
            << ",\"arrival_drops\":" << w.arrival_drops;
      }
      out << "}";
    }
    out << "],";
  }
  out << "\"ops\":[";
  bool first_op = true;
  for (const auto& op : ops) {
    if (op.operations == 0) continue;
    if (!first_op) out << ",";
    first_op = false;
    out << "{\"name\":\"" << JsonEscape(op.name) << "\",";
    out << "\"operations\":" << op.operations << ",";
    out << "\"avg_us\":" << FormatDouble(op.average_latency_us) << ",";
    out << "\"min_us\":" << op.min_latency_us << ",";
    out << "\"max_us\":" << op.max_latency_us << ",";
    out << "\"p50_us\":" << op.p50_latency_us << ",";
    out << "\"p95_us\":" << op.p95_latency_us << ",";
    out << "\"p99_us\":" << op.p99_latency_us << ",";
    out << "\"p999_us\":" << op.p999_latency_us << ",";
    out << "\"returns\":{";
    bool first_code = true;
    for (const auto& [code, count] : op.return_counts) {
      if (!first_code) out << ",";
      first_code = false;
      out << "\"" << JsonEscape(code) << "\":" << count;
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

}  // namespace ycsbt
