#include "core/suite.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "common/logging.h"
#include "core/benchmark.h"
#include "core/workload_factory.h"
#include "db/property_catalog.h"
#include "measurement/exporter.h"

namespace ycsbt {
namespace core {

namespace {

/// Splits a `<prefix><name>.<rest>` key into its axis name and property.
Status SplitScoped(const std::string& key, size_t prefix_len, std::string* name,
                   std::string* rest) {
  size_t dot = key.find('.', prefix_len);
  if (dot == std::string::npos || dot == prefix_len || dot + 1 >= key.size()) {
    return Status::InvalidArgument("suite key '" + key +
                                   "' needs the form <axis>.<name>.<property>");
  }
  *name = key.substr(prefix_len, dot - prefix_len);
  *rest = key.substr(dot + 1);
  return Status::OK();
}

/// Keeps [A-Za-z0-9._-]; everything else becomes '-', so run names are safe
/// directory names on every filesystem.
std::string SanitizeToken(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
              c == '_' || c == '-';
    out.push_back(ok ? c : '-');
  }
  return out;
}

/// "cloud.latency_scale" -> "latency_scale": the axis label in run names.
std::string AxisLeaf(const std::string& key) {
  size_t dot = key.rfind('.');
  return dot == std::string::npos ? key : key.substr(dot + 1);
}

Status WriteFile(const std::filesystem::path& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IOError("cannot open " + path.string());
  f << content;
  f.flush();
  if (!f.good()) return Status::IOError("short write to " + path.string());
  return Status::OK();
}

}  // namespace

Status SuiteSpec::Parse(const Properties& file, SuiteSpec* out) {
  *out = SuiteSpec{};
  Status valid = ValidateProperties(file);
  if (!valid.ok()) return valid;
  out->name = kSuiteName.Get<std::string>(file);
  out->output_dir = kSuiteOutputDir.Get<std::string>(file);
  out->load_once = kSuiteLoad.Get<std::string>(file) == "once";
  out->repeats = kSuiteRepeats.Get<int>(file);
  out->operations_per_thread = kSuiteOperationsPerThread.Get<uint64_t>(file);
  // std::map keeps each axis's bundles in name order: expansion order (and
  // so run naming and substrate grouping) is deterministic.
  std::map<std::string, Properties> configs;
  std::map<std::string, Properties> mixes;

  for (const std::string& key : file.Keys()) {
    const std::string value = file.Get(key);
    if (std::any_of(std::begin(kSuiteProperties), std::end(kSuiteProperties),
                    [&key](const PropertyDecl* d) { return d->name == key; })) {
      continue;  // read above
    } else if (key.rfind("base.", 0) == 0) {
      if (key.size() == 5) return Status::InvalidArgument("empty base. key");
      out->base.Set(key.substr(5), value);
    } else if (key.rfind("config.", 0) == 0) {
      std::string name, rest;
      Status s = SplitScoped(key, 7, &name, &rest);
      if (!s.ok()) return s;
      configs[name].Set(rest, value);
    } else if (key.rfind("mix.", 0) == 0) {
      std::string name, rest;
      Status s = SplitScoped(key, 4, &name, &rest);
      if (!s.ok()) return s;
      mixes[name].Set(rest, value);
    } else if (key.rfind("sweep.", 0) == 0) {
      if (key.size() == 6) return Status::InvalidArgument("empty sweep. key");
      std::vector<std::string> values = SplitPropertyList(value);
      if (values.empty()) {
        return Status::InvalidArgument("sweep '" + key + "' lists no values");
      }
      out->sweeps.emplace_back(key.substr(6), std::move(values));
    } else {
      return Status::InvalidArgument(
          "unrecognised suite key '" + key +
          "' (run properties need a base. / config.<name>. / mix.<name>. / "
          "sweep. prefix)");
    }
  }

  for (auto& [name, props] : configs) out->configs.emplace_back(name, std::move(props));
  for (auto& [name, props] : mixes) out->mixes.emplace_back(name, std::move(props));
  // Unused axes collapse to one unnamed entry so Expand stays one loop nest.
  if (out->configs.empty()) out->configs.emplace_back("", Properties());
  if (out->mixes.empty()) out->mixes.emplace_back("", Properties());
  return Status::OK();
}

std::vector<SuiteRun> SuiteSpec::Expand() const {
  std::vector<SuiteRun> runs;
  for (const auto& [config_name, config_props] : configs) {
    for (int repeat = 1; repeat <= repeats; ++repeat) {
      for (const auto& [mix_name, mix_props] : mixes) {
        // Odometer over the sweep axes (first axis slowest, matching the
        // sorted-key file order).
        std::vector<size_t> at(sweeps.size(), 0);
        for (;;) {
          SuiteRun run;
          run.config = config_name;
          run.mix = mix_name;
          run.repeat = repeat;
          run.props = base;
          run.props.Merge(config_props);
          run.props.Merge(mix_props);

          std::string name;
          auto append_part = [&name](const std::string& part) {
            if (part.empty()) return;
            if (!name.empty()) name += '_';
            name += part;
          };
          append_part(SanitizeToken(config_name));
          append_part(SanitizeToken(mix_name));
          for (size_t i = 0; i < sweeps.size(); ++i) {
            const std::string& value = sweeps[i].second[at[i]];
            run.props.Set(sweeps[i].first, value);
            append_part(SanitizeToken(AxisLeaf(sweeps[i].first)) +
                        SanitizeToken(value));
          }
          if (operations_per_thread != 0) {
            uint64_t threads = kThreads.Get<uint64_t>(run.props);
            run.props.Set("operationcount",
                          std::to_string(operations_per_thread * threads));
          }
          if (name.empty()) name = "run";
          if (repeats > 1) name += "_rep" + std::to_string(repeat);
          run.name = name;
          runs.push_back(std::move(run));

          // Advance the odometer; rightmost axis fastest.  Wrapping past the
          // slowest axis (or having none) exhausts the cross product.
          bool exhausted = true;
          for (size_t axis = sweeps.size(); axis-- > 0;) {
            if (++at[axis] < sweeps[axis].second.size()) {
              exhausted = false;
              break;
            }
            at[axis] = 0;
          }
          if (exhausted) break;
        }
      }
    }
  }
  return runs;
}

Status SuiteOrchestrator::Execute(std::vector<SuiteRunOutcome>* outcomes) {
  outcomes->clear();
  std::vector<SuiteRun> runs = spec_.Expand();
  if (runs.empty()) return Status::InvalidArgument("suite expands to no runs");
  // Every run is checked before the first one starts, so a bad sweep point
  // fails the suite instead of leaving a half-written results tree.
  for (const SuiteRun& run : runs) {
    Status s = ValidateProperties(run.props);
    if (!s.ok()) {
      return Status::InvalidArgument("suite run " + run.name + ": " +
                                     s.message());
    }
  }

  if (spec_.output_dir.empty()) spec_.output_dir = "results/" + spec_.name;
  std::error_code ec;
  std::filesystem::create_directories(spec_.output_dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + spec_.output_dir + ": " +
                           ec.message());
  }
  YCSBT_INFO("[SUITE] " << spec_.name << ": " << runs.size() << " runs -> "
                        << spec_.output_dir);

  // The shared substrate of the current (config, repeat) group under
  // suite.load=once; rebuilt whenever the group changes.
  std::unique_ptr<DBFactory> factory;
  std::string group;
  size_t failures = 0;

  for (const SuiteRun& run : runs) {
    SuiteRunOutcome out;
    out.run = run;
    std::string report;

    if (spec_.load_once) {
      std::string g = run.config + "|" + std::to_string(run.repeat);
      bool fresh = factory == nullptr || g != group;
      if (fresh) {
        factory = std::make_unique<DBFactory>(run.props);
        group = g;
        Status s = factory->Init();
        if (!s.ok()) {
          out.status = s;
          factory.reset();  // retried on the group's next run
        }
      }
      if (out.status.ok() && factory != nullptr) {
        Properties p = run.props;
        if (!fresh) p.Set("skipload", "true");
        out.status = RunBenchmarkWithFactory(p, factory.get(), &out.result, &report);
      }
    } else {
      out.status = RunBenchmark(run.props, &out.result, &report);
    }

    // The run directory is written whatever happened, so the tree always
    // has one entry per declared run.
    std::filesystem::path dir = std::filesystem::path(spec_.output_dir) / run.name;
    std::filesystem::create_directories(dir, ec);
    Status ws = ec ? Status::IOError("cannot create " + dir.string() + ": " +
                                     ec.message())
                   : Status::OK();
    if (ws.ok()) ws = WriteFile(dir / "run.properties", run.props.ToString());
    if (ws.ok()) {
      ws = WriteFile(dir / "summary.txt",
                     out.status.ok() ? report
                                     : "ERROR: " + out.status.ToString() + "\n");
    }
    if (ws.ok()) {
      std::string json =
          out.status.ok()
              ? JsonExporter::Export(out.result.MakeSummary(), out.result.op_stats)
              : "{\"error\": \"" + JsonEscape(out.status.ToString()) + "\"}\n";
      ws = WriteFile(dir / "summary.json", json);
    }
    if (!ws.ok() && out.status.ok()) out.status = ws;

    if (out.status.ok()) {
      YCSBT_INFO("[SUITE] " << run.name << ": "
                            << out.result.throughput_ops_sec << " ops/s, "
                            << out.result.operations << " ops");
    } else {
      YCSBT_WARN("[SUITE] " << run.name << " FAILED: " << out.status.ToString());
      ++failures;
    }
    outcomes->push_back(std::move(out));
  }

  Status ws = WriteFile(std::filesystem::path(spec_.output_dir) / "rollup.txt",
                        RollupTable(*outcomes));
  if (ws.ok()) {
    ws = WriteFile(std::filesystem::path(spec_.output_dir) / "rollup.json",
                   RollupJson(*outcomes));
  }
  if (!ws.ok()) return ws;

  if (failures != 0) {
    return Status::Internal(std::to_string(failures) + " of " +
                            std::to_string(runs.size()) + " suite runs failed");
  }
  return Status::OK();
}

std::string SuiteOrchestrator::RollupTable(
    const std::vector<SuiteRunOutcome>& outcomes) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-40s %-12s %-16s %7s %10s %12s %8s %10s  %s\n",
                "run", "db", "workload", "threads", "ops", "ops/sec",
                "abort", "anomaly", "status");
  out += line;
  for (const auto& o : outcomes) {
    std::snprintf(line, sizeof(line),
                  "%-40s %-12s %-16s %7llu %10llu %12.1f %8.4f %10.3g  %s\n",
                  o.run.name.c_str(), kDb.Get<std::string>(o.run.props).c_str(),
                  kWorkload.Get<std::string>(o.run.props).c_str(),
                  static_cast<unsigned long long>(kThreads.Get<uint64_t>(o.run.props)),
                  static_cast<unsigned long long>(o.result.operations),
                  o.result.throughput_ops_sec, o.result.abort_rate(),
                  o.result.validation.anomaly_score,
                  o.status.ok() ? "ok" : o.status.ToString().c_str());
    out += line;
  }
  return out;
}

std::string SuiteOrchestrator::RollupJson(
    const std::vector<SuiteRunOutcome>& outcomes) {
  std::string out = "[\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"run\": \"%s\", \"config\": \"%s\", \"mix\": \"%s\", "
        "\"repeat\": %d, \"db\": \"%s\", \"workload\": \"%s\", "
        "\"threads\": %llu, \"operations\": %llu, \"throughput_ops_sec\": %.3f, "
        "\"abort_rate\": %.6f, \"anomaly_score\": %.9g, \"runtime_ms\": %.1f, "
        "\"ok\": %s, \"status\": \"%s\"}%s\n",
        JsonEscape(o.run.name).c_str(), JsonEscape(o.run.config).c_str(),
        JsonEscape(o.run.mix).c_str(), o.run.repeat,
        JsonEscape(kDb.Get<std::string>(o.run.props)).c_str(),
        JsonEscape(kWorkload.Get<std::string>(o.run.props)).c_str(),
        static_cast<unsigned long long>(kThreads.Get<uint64_t>(o.run.props)),
        static_cast<unsigned long long>(o.result.operations),
        o.result.throughput_ops_sec, o.result.abort_rate(),
        o.result.validation.anomaly_score, o.result.runtime_ms,
        o.status.ok() ? "true" : "false",
        JsonEscape(o.status.ok() ? "ok" : o.status.ToString()).c_str(),
        i + 1 < outcomes.size() ? "," : "");
    out += buf;
  }
  out += "]\n";
  return out;
}

}  // namespace core
}  // namespace ycsbt
