#include "core/suite.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>

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

constexpr std::string_view kExpectPrefix = "expect.";
constexpr std::string_view kExpectOps[] = {"==", "!=", "<=", ">=", "<", ">"};

/// Parses one side of an expectation: a number, or `[<number> *]
/// <run>:<metric>` where `runs` holds the names the suite expands to.
Status ParseTerm(const std::string& key, std::string_view text,
                 const std::set<std::string>& runs, SuiteExpectation::Term* out) {
  auto bad = [&key](const std::string& why) {
    return Status::InvalidArgument("suite key '" + key + "': " + why);
  };
  text = Trim(text);
  if (text.empty()) return bad("empty term");
  size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    std::optional<double> number = ParseDouble(text);
    if (!number) {
      return bad("'" + std::string(text) + "' is neither a number nor <run>:<metric>");
    }
    out->factor = *number;
    return Status::OK();
  }
  size_t star = text.find('*');
  if (star < colon) {
    std::string_view factor = Trim(text.substr(0, star));
    std::optional<double> number = ParseDouble(factor);
    if (!number) return bad("non-numeric factor '" + std::string(factor) + "'");
    out->factor = *number;
    text = Trim(text.substr(star + 1));
    colon = text.find(':');
  }
  out->run = std::string(Trim(text.substr(0, colon)));
  out->metric = std::string(Trim(text.substr(colon + 1)));
  if (runs.count(out->run) == 0) return bad("unknown run '" + out->run + "'");
  if (out->metric.empty()) return bad("empty metric after '" + out->run + ":'");
  return Status::OK();
}

/// Parses `expect.<label>=<term> <op> <term>`; the operator is the one
/// whitespace-delimited token in `kExpectOps`.
Status ParseExpectation(const std::string& key, const std::string& value,
                        const std::set<std::string>& runs, SuiteExpectation* out) {
  out->label = key.substr(kExpectPrefix.size());
  out->expression = value;
  if (out->label.empty()) return Status::InvalidArgument("empty expect. key");
  std::string_view text = value;
  size_t op_at = std::string_view::npos;
  for (size_t pos = 0; (pos = text.find_first_not_of(" \t", pos)) != text.npos;) {
    size_t end = std::min(text.find_first_of(" \t", pos), text.size());
    std::string_view token = text.substr(pos, end - pos);
    if (std::find(std::begin(kExpectOps), std::end(kExpectOps), token) !=
        std::end(kExpectOps)) {
      if (op_at != std::string_view::npos) {
        return Status::InvalidArgument("suite key '" + key +
                                       "': more than one comparison operator");
      }
      op_at = pos;
      out->op = std::string(token);
    }
    pos = end;
  }
  if (op_at == std::string_view::npos) {
    return Status::InvalidArgument(
        "suite key '" + key + "': '" + value +
        "' needs one of == != < <= > >=, spaced, between two terms");
  }
  Status s = ParseTerm(key, text.substr(0, op_at), runs, &out->lhs);
  if (!s.ok()) return s;
  return ParseTerm(key, text.substr(op_at + out->op.size()), runs, &out->rhs);
}

/// The number on `metric`'s line of a text export: the line whose fields
/// before the last, joined by spaces, read `metric`.
std::optional<double> ReportValue(std::string_view report, std::string_view metric) {
  while (!report.empty()) {
    size_t eol = std::min(report.find('\n'), report.size());
    std::string_view line = report.substr(0, eol);
    report.remove_prefix(std::min(eol + 1, report.size()));
    size_t last = line.rfind(", ");
    if (last == std::string_view::npos) continue;
    std::string lead(line.substr(0, last));
    for (size_t at = 0; (at = lead.find(", ", at)) != std::string::npos;) {
      lead.replace(at, 2, " ");
    }
    if (lead == metric) return ParseDouble(line.substr(last + 2));
  }
  return std::nullopt;
}

bool Holds(double lhs, const std::string& op, double rhs) {
  if (op == "==") return lhs == rhs;
  if (op == "!=") return lhs != rhs;
  if (op == "<") return lhs < rhs;
  if (op == "<=") return lhs <= rhs;
  if (op == ">") return lhs > rhs;
  return lhs >= rhs;
}

/// Checks every expectation inside every repeat against the runs' reports.
std::vector<SuiteVerdict> Evaluate(const SuiteSpec& spec,
                                   const std::vector<SuiteRunOutcome>& outcomes) {
  std::map<std::string, const SuiteRunOutcome*> by_name;
  for (const auto& o : outcomes) by_name[o.run.name] = &o;
  std::vector<SuiteVerdict> verdicts;
  for (int repeat = 1; repeat <= spec.repeats; ++repeat) {
    for (const SuiteExpectation& e : spec.expectations) {
      SuiteVerdict v;
      v.label = e.label;
      v.expression = e.expression;
      v.repeat = repeat;
      auto side = [&](const SuiteExpectation::Term& term, double* value) {
        *value = term.factor;
        if (term.run.empty()) return true;
        std::string name = term.run;
        if (spec.repeats > 1) name += "_rep" + std::to_string(repeat);
        auto it = by_name.find(name);
        if (it == by_name.end() || !it->second->status.ok()) {
          v.error = "run " + name + " did not complete";
          return false;
        }
        std::optional<double> metric = ReportValue(it->second->report, term.metric);
        if (!metric) {
          v.error = "run " + name + " printed no numeric '" + term.metric + "' line";
          return false;
        }
        *value *= *metric;
        return true;
      };
      v.pass = side(e.lhs, &v.lhs) && side(e.rhs, &v.rhs) &&
               Holds(v.lhs, e.op, v.rhs);
      verdicts.push_back(std::move(v));
    }
  }
  return verdicts;
}

/// `%.9g`, or null for a value a failed verdict never read.
std::string JsonNumber(double v, bool known) {
  if (!known || !std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
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
  std::vector<std::pair<std::string, std::string>> expects;

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
    } else if (key.rfind(kExpectPrefix, 0) == 0) {
      expects.emplace_back(key, value);  // parsed once the runs are known
    } else {
      return Status::InvalidArgument(
          "unrecognised suite key '" + key +
          "' (run properties need a base. / config.<name>. / mix.<name>. / "
          "sweep. prefix; checks an expect. prefix)");
    }
  }

  for (auto& [name, props] : configs) out->configs.emplace_back(name, std::move(props));
  for (auto& [name, props] : mixes) out->mixes.emplace_back(name, std::move(props));
  // Unused axes collapse to one unnamed entry so Expand stays one loop nest.
  if (out->configs.empty()) out->configs.emplace_back("", Properties());
  if (out->mixes.empty()) out->mixes.emplace_back("", Properties());

  // Expectations name runs without the repeat suffix.
  std::set<std::string> runs;
  SuiteSpec single = *out;
  single.repeats = 1;
  for (const SuiteRun& run : single.Expand()) runs.insert(run.name);
  for (const auto& [key, value] : expects) {
    SuiteExpectation e;
    Status s = ParseExpectation(key, value, runs, &e);
    if (!s.ok()) return s;
    out->expectations.push_back(std::move(e));
  }
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
  verdicts_.clear();
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
    out.report = std::move(report);
    outcomes->push_back(std::move(out));
  }

  verdicts_ = Evaluate(spec_, *outcomes);
  Status ws = WriteFile(std::filesystem::path(spec_.output_dir) / "rollup.txt",
                        RollupTable(*outcomes, verdicts_));
  if (ws.ok()) {
    ws = WriteFile(std::filesystem::path(spec_.output_dir) / "rollup.json",
                   RollupJson(*outcomes, verdicts_));
  }
  if (!ws.ok()) return ws;

  std::string failed;
  if (failures != 0) {
    failed = std::to_string(failures) + " of " + std::to_string(runs.size()) +
             " suite runs failed";
  }
  for (const SuiteVerdict& v : verdicts_) {
    if (v.pass) continue;
    if (!failed.empty()) failed += "; ";
    failed += "expectation " + v.label + " failed in repeat " +
              std::to_string(v.repeat) + ": " + v.expression;
    if (!v.error.empty()) failed += " (" + v.error + ")";
  }
  return failed.empty() ? Status::OK() : Status::Internal(failed);
}

std::string SuiteOrchestrator::RollupTable(
    const std::vector<SuiteRunOutcome>& outcomes,
    const std::vector<SuiteVerdict>& verdicts) {
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
  if (verdicts.empty()) return out;
  std::snprintf(line, sizeof(line), "\n%-28s %6s %-7s %12s %12s  %s\n",
                "expectation", "repeat", "verdict", "lhs", "rhs", "expression");
  out += line;
  for (const SuiteVerdict& v : verdicts) {
    std::snprintf(line, sizeof(line), "%-28s %6d %-7s ", v.label.c_str(),
                  v.repeat, v.pass ? "pass" : "FAIL");
    out += line;
    if (v.error.empty()) {
      std::snprintf(line, sizeof(line), "%12.6g %12.6g  ", v.lhs, v.rhs);
    } else {
      std::snprintf(line, sizeof(line), "%12s %12s  ", "-", "-");
    }
    out += line + v.expression;
    if (!v.error.empty()) out += "  (" + v.error + ")";
    out += "\n";
  }
  return out;
}

std::string SuiteOrchestrator::RollupJson(
    const std::vector<SuiteRunOutcome>& outcomes,
    const std::vector<SuiteVerdict>& verdicts) {
  std::string out = "{\"runs\": [\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"run\": \"%s\", \"config\": \"%s\", \"mix\": \"%s\", "
        "\"repeat\": %d, \"db\": \"%s\", \"workload\": \"%s\", "
        "\"threads\": %llu, \"operations\": %llu, \"throughput_ops_sec\": %.3f, "
        "\"abort_rate\": %.6f, \"anomaly_score\": %.9g, \"runtime_ms\": %.1f, "
        "\"ok\": %s, \"status\": \"%s\", \"series\": {",
        JsonEscape(o.run.name).c_str(), JsonEscape(o.run.config).c_str(),
        JsonEscape(o.run.mix).c_str(), o.run.repeat,
        JsonEscape(kDb.Get<std::string>(o.run.props)).c_str(),
        JsonEscape(kWorkload.Get<std::string>(o.run.props)).c_str(),
        static_cast<unsigned long long>(kThreads.Get<uint64_t>(o.run.props)),
        static_cast<unsigned long long>(o.result.operations),
        o.result.throughput_ops_sec, o.result.abort_rate(),
        o.result.validation.anomaly_score, o.result.runtime_ms,
        o.status.ok() ? "true" : "false",
        JsonEscape(o.status.ok() ? "ok" : o.status.ToString()).c_str());
    out += buf;
    // Each series' count and latency percentiles: the values a suite's
    // `expect.` lines read from `[<SERIES>]` lines of summary.txt.
    const std::vector<OpStats>& series = o.result.op_stats;
    for (size_t k = 0; k < series.size(); ++k) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"operations\": %llu, \"p50_us\": %lld, "
                    "\"p99_us\": %lld}",
                    k == 0 ? "" : ", ", JsonEscape(series[k].name).c_str(),
                    static_cast<unsigned long long>(series[k].operations),
                    static_cast<long long>(series[k].p50_latency_us),
                    static_cast<long long>(series[k].p99_latency_us));
      out += buf;
    }
    out += i + 1 < outcomes.size() ? "}},\n" : "}}\n";
  }
  out += "],\n\"expectations\": [\n";
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const SuiteVerdict& v = verdicts[i];
    bool known = v.error.empty();
    out += "  {\"label\": \"" + JsonEscape(v.label) + "\", \"expression\": \"" +
           JsonEscape(v.expression) + "\", \"repeat\": " + std::to_string(v.repeat) +
           ", \"lhs\": " + JsonNumber(v.lhs, known) +
           ", \"rhs\": " + JsonNumber(v.rhs, known) +
           ", \"pass\": " + (v.pass ? "true" : "false") + ", \"error\": \"" +
           JsonEscape(v.error) + "\"}" + (i + 1 < verdicts.size() ? "," : "") + "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace core
}  // namespace ycsbt
