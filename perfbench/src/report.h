#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Process resource usage (`getrusage(RUSAGE_SELF)`): every thread counts.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double vol_csw = 0.0;
  double invol_csw = 0.0;
  double max_rss_mb = 0.0;

  static Usage Now();
  Usage Since(const Usage& before) const;
};

/// CPU time the hypervisor stole from this machine's CPUs so far (the
/// `steal` column of /proc/stat), in seconds; 0 where it is not reported.
double StolenSeconds();

/// `num / den`, or 0 when `den` is 0 (a layer the workload never reached).
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The run's named metrics and correctness checks.  Prints one
/// human-readable line per metric and check as they are added, and the
/// machine-readable summary as the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a check; a failed one makes the whole run incorrect.
  void Check(const std::string& what, bool ok, const std::string& detail = "");
  /// Free-form context line (sample counts, environment).
  void Note(const std::string& line);

  bool correct() const { return correct_; }

  /// `{"correct": .., "attempted": .., "failed": .., "checks": [..],
  /// "metrics": {name: {"value": .., "unit": ..}}}`.
  void PrintJson(uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
