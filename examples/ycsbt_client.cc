// The YCSB+T command-line client, mirroring the paper's Listing 1:
//
//   ycsbt_client -db rawhttp -P workloads/closed_economy.properties -threads 16 -t
//
// Flags:
//   -db <name>        DB binding (see db/db_factory.h for the table)
//   -P <file>         load a properties file (repeatable; later files win)
//   -p <key>=<value>  set one property (repeatable; wins over -P)
//   -threads <n>      client threads
//   -target <ops/s>   throttle aggregate throughput
//   -t                run the transaction phase (default)
//   -load             run only the load phase
//   -s                print the properties in effect before running
//
// Every -P file is applied first, in order; then -db, -p, -threads and
// -target in argv order, so a flag wins over any file wherever it appears
// (YCSB's rule).

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/benchmark.h"
#include "core/workload_factory.h"
#include "measurement/exporter.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-db name] [-P propfile]... [-p key=value]...\n"
               "          [-threads n] [-target ops] [-t | -load] [-s]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ycsbt::Properties props;
  bool transaction_phase = true;
  bool show_props = false;
  std::vector<std::string> property_files;
  // -db/-p/-threads/-target as (key, value), applied after the -P files.
  std::vector<std::pair<std::string, std::string>> overrides;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-db") {
      overrides.emplace_back("db", next());
    } else if (arg == "-P") {
      property_files.push_back(next());
    } else if (arg == "-p") {
      std::string kv = next();
      size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        Usage(argv[0]);
        return 2;
      }
      overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "-threads") {
      overrides.emplace_back("threads", next());
    } else if (arg == "-target") {
      overrides.emplace_back("target", next());
    } else if (arg == "-t") {
      transaction_phase = true;
    } else if (arg == "-load") {
      transaction_phase = false;
    } else if (arg == "-s") {
      show_props = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  for (const std::string& path : property_files) {
    ycsbt::Status s = props.LoadFromFile(path);
    if (!s.ok()) {
      std::fprintf(stderr, "error loading property file %s: %s\n",
                   path.c_str(), s.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [key, value] : overrides) props.Set(key, value);

  std::printf("YCSB+T Client 0.1 (C++)\n");
  if (show_props) std::printf("%s", props.ToString().c_str());
  std::printf("Loading workload...\nStarting test.\n");

  if (!transaction_phase) {
    // Load-only invocation: insert the records, validate, exit.
    props.Set("skiprun", "true");
  }

  ycsbt::core::RunResult result;
  std::string report;
  ycsbt::Status s = ycsbt::core::RunBenchmark(props, &result, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    // Most run failures are configuration mistakes: point at the inputs.
    for (const std::string& path : property_files) {
      std::fprintf(stderr, "  property file: %s\n", path.c_str());
    }
    if (property_files.empty()) {
      std::fprintf(stderr, "  (no -P property file; -p/-db flags only)\n");
    }
    return 1;
  }
  std::printf("%s", report.c_str());
  return result.validation.performed && !result.validation.passed ? 3 : 0;
}
