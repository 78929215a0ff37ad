// ycsbt_suite — the declarative suite orchestrator binary (DESIGN.md §11):
// reads a suite file declaring a matrix of {config, mix, sweep, repeat}
// runs, executes every expanded run through the benchmark driver, writes the
// consolidated results tree and prints the roll-up table with the suite's
// `expect.` verdicts.  Every runner-shaped experiment of EXPERIMENTS.md is a
// suite under workloads/suites/.
//
// Sweeps take any registered property, including dotted namespaces — e.g.
// `sweep.arrival.rate=500,1000,2000` drives the open-loop offered-rate curve
// of workloads/suites/fig2_open_loop.suite (DESIGN.md §13).
//
//   ycsbt_suite -S workloads/suites/fig2_cloud_throughput.suite
//               [-o results/fig2] [-p base.threads=4] ...
//
// Exit status: 0 when every run succeeded and every expectation held, 1 on
// any failure (configuration, load, run, results-tree write or a failed
// expectation), 2 on bad usage.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/properties.h"
#include "core/suite.h"

using namespace ycsbt;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -S <suite file> [-o <output dir>] [-p key=value]...\n"
               "  -S file       suite declaration (properties syntax; see "
               "workloads/suites/)\n"
               "  -o dir        results tree root (overrides suite.output_dir)\n"
               "  -p key=value  override/add one suite key (e.g. -p "
               "base.threads=4)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_path;
  std::string output_dir;
  std::vector<std::pair<std::string, std::string>> overrides;

  for (int i = 1; i < argc; ++i) {
    auto needs_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "-S") == 0) {
      const char* v = needs_value("-S");
      if (v == nullptr) return 2;
      suite_path = v;
    } else if (std::strcmp(argv[i], "-o") == 0) {
      const char* v = needs_value("-o");
      if (v == nullptr) return 2;
      output_dir = v;
    } else if (std::strcmp(argv[i], "-p") == 0) {
      const char* v = needs_value("-p");
      if (v == nullptr) return 2;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) {
        std::fprintf(stderr, "%s: -p needs key=value, got '%s'\n", argv[0], v);
        return 2;
      }
      overrides.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (std::strcmp(argv[i], "-h") == 0 ||
               std::strcmp(argv[i], "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }
  if (suite_path.empty()) {
    Usage(argv[0]);
    return 2;
  }

  Properties file;
  Status s = file.LoadFromFile(suite_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: cannot load suite file %s: %s\n", argv[0],
                 suite_path.c_str(), s.ToString().c_str());
    return 1;
  }
  for (auto& [key, value] : overrides) file.Set(key, value);

  core::SuiteSpec spec;
  s = core::SuiteSpec::Parse(file, &spec);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: invalid suite %s: %s\n", argv[0],
                 suite_path.c_str(), s.ToString().c_str());
    return 1;
  }
  if (!output_dir.empty()) spec.output_dir = output_dir;

  core::SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<core::SuiteRunOutcome> outcomes;
  s = orchestrator.Execute(&outcomes);

  std::printf("\n%s", core::SuiteOrchestrator::RollupTable(
                           outcomes, orchestrator.verdicts()).c_str());
  std::printf("\nresults tree: %s\n", orchestrator.spec().output_dir.c_str());
  if (!s.ok()) {
    std::fprintf(stderr, "%s: suite %s failed: %s\n", argv[0],
                 suite_path.c_str(), s.ToString().c_str());
    return 1;
  }
  return 0;
}
