#ifndef YCSBT_CORE_SUITE_H_
#define YCSBT_CORE_SUITE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/status.h"
#include "core/runner.h"

namespace ycsbt {
namespace core {

/// One concrete run of a suite: a fully merged property set plus the labels
/// that place it in the suite's matrix.
struct SuiteRun {
  std::string name;    ///< directory-safe unique run name
  std::string config;  ///< substrate-axis label ("" when the suite has none)
  std::string mix;     ///< workload-axis label ("" when the suite has none)
  int repeat = 1;      ///< 1-based repeat index
  Properties props;    ///< base + config + mix + sweep assignment, merged
};

inline constexpr PropertyDecl kSuiteName =
    StringProperty("suite.name", "suite", "suite label; the default results root");
inline constexpr PropertyDecl kSuiteOutputDir = Derived(
    StringProperty("suite.output_dir", "", "results tree root"),
    "results/<suite.name>");
inline constexpr std::string_view kSuiteLoads[] = {"once", "per_run"};
inline constexpr PropertyDecl kSuiteLoad = EnumProperty(
    "suite.load", "once", kSuiteLoads,
    "once = one loaded store per config x repeat group; per_run");
inline constexpr PropertyDecl kSuiteRepeats =
    IntProperty("suite.repeats", 1, 1, kIntMax, "repeats of the whole matrix");
inline constexpr PropertyDecl kSuiteOperationsPerThread = UintProperty(
    "suite.operations_per_thread", 0,
    "when non-zero, every run's operationcount is this x its threads");
inline constexpr const PropertyDecl* kSuiteProperties[] = {
    &kSuiteName, &kSuiteOutputDir, &kSuiteLoad, &kSuiteRepeats,
    &kSuiteOperationsPerThread};

/// One `expect.<label>=<term> <op> <term>` line of a suite (DESIGN.md §11):
///
///   op   := == | != | < | <= | > | >=      (whitespace on both sides)
///   term := <number> | [<number> *] <run>:<metric>
///
/// `<run>` is a run name as `Expand` prints it without the `_rep<n>` suffix;
/// with `suite.repeats` > 1 the expectation is checked inside every repeat.
/// `<metric>` is the leading part of a line of that run's text export, its
/// `, ` separators written as spaces: `[ANOMALY SCORE]`,
/// `[OVERALL] Throughput(ops/sec)`, `[READ] 99thPercentileLatency(us)`.
struct SuiteExpectation {
  /// A constant (`run` empty, the number in `factor`) or a scaled metric.
  struct Term {
    double factor = 1.0;
    std::string run;
    std::string metric;
  };
  std::string label;
  std::string expression;  ///< the value as written
  Term lhs;
  std::string op;
  Term rhs;
};

/// One expectation checked in one repeat.
struct SuiteVerdict {
  std::string label;
  std::string expression;
  int repeat = 1;
  double lhs = 0.0;
  double rhs = 0.0;
  bool pass = false;
  std::string error;  ///< why a side has no value; empty when both have one
};

/// Declarative benchmark-suite specification (DESIGN.md §11), parsed from a
/// properties-syntax file:
///
///   suite.name=fig2_cloud_throughput     # suite label / default output dir
///   suite.load=once                      # once | per_run
///   suite.repeats=1                      # repeats of the whole matrix
///   suite.output_dir=results/fig2        # results tree root
///   suite.operations_per_thread=3000     # operationcount = this x threads
///   base.db=txn+was                      # properties shared by every run
///   config.mix90_10.readproportion=0.9   # substrate/config axis bundles
///   mix.scanheavy.scanproportion=0.95    # workload axis bundles
///   sweep.threads=1,2,4,8,16             # swept single properties
///   expect.zero=threads1:[ANOMALY SCORE] == 0   # checked after the runs
///
/// The matrix is the cross product configs x mixes x sweeps x repeats.  A
/// suite without `config.*` (or `mix.*`) keys has one unnamed entry on that
/// axis.  With `suite.load=once` every (config, repeat) group shares one
/// loaded substrate — its runs after the first get `skipload` — so sweeping
/// a substrate-affecting property (e.g. `db`) requires `per_run` or separate
/// configs.
struct SuiteSpec {
  std::string name = kSuiteName.Default<std::string>();
  std::string output_dir;  ///< defaults to results/<name> when empty
  bool load_once = true;
  int repeats = kSuiteRepeats.Default<int>();
  /// When non-zero, every run's `operationcount` is set to this times the
  /// run's `threads` — same wall-clock per sweep point, as Fig 5 needs.
  uint64_t operations_per_thread = kSuiteOperationsPerThread.Default<uint64_t>();
  Properties base;
  std::vector<std::pair<std::string, Properties>> configs;
  std::vector<std::pair<std::string, Properties>> mixes;
  std::vector<std::pair<std::string, std::vector<std::string>>> sweeps;
  std::vector<SuiteExpectation> expectations;

  /// Validates a loaded properties file (`ValidateProperties`: every value,
  /// each listed sweep value included) and parses it into a spec.  Every
  /// key must be `suite.*` or carry one of the axis or `expect.` prefixes;
  /// anything else is an InvalidArgument (suites are declarations, not grab
  /// bags).  So is a malformed expectation or one naming a run the suite
  /// does not expand to.
  static Status Parse(const Properties& file, SuiteSpec* out);

  /// Expands the matrix into concrete runs, ordered config -> repeat ->
  /// mix -> sweep combination (the order `Execute` groups substrates in).
  std::vector<SuiteRun> Expand() const;
};

/// What one executed run left behind.
struct SuiteRunOutcome {
  SuiteRun run;
  Status status;
  RunResult result;
  std::string report;  ///< the text export, as written to summary.txt
};

/// Executes a suite through the existing benchmark driver and writes the
/// consolidated results tree:
///
///   <output_dir>/<run name>/run.properties   the run's exact property set
///   <output_dir>/<run name>/summary.txt      Listing-3 text export
///   <output_dir>/<run name>/summary.json     JSON export
///   <output_dir>/rollup.txt                  one line per run, then one
///                                            per expectation verdict
///   <output_dir>/rollup.json                 same, machine-readable
///
/// A failing run is recorded (its directory holds the error) and the suite
/// continues.  After the runs every expectation is evaluated; Execute
/// returns non-OK at the end if any run or any expectation failed.
class SuiteOrchestrator {
 public:
  explicit SuiteOrchestrator(SuiteSpec spec) : spec_(std::move(spec)) {}

  Status Execute(std::vector<SuiteRunOutcome>* outcomes);

  const SuiteSpec& spec() const { return spec_; }
  /// The expectation verdicts of the last Execute, repeat by repeat.
  const std::vector<SuiteVerdict>& verdicts() const { return verdicts_; }

  static std::string RollupTable(const std::vector<SuiteRunOutcome>& outcomes,
                                 const std::vector<SuiteVerdict>& verdicts);
  static std::string RollupJson(const std::vector<SuiteRunOutcome>& outcomes,
                                const std::vector<SuiteVerdict>& verdicts);

 private:
  SuiteSpec spec_;
  std::vector<SuiteVerdict> verdicts_;
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_SUITE_H_
