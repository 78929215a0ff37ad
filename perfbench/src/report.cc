#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// JSON string literal for ASCII names and messages.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = Seconds(ru.ru_utime);
  u.sys_s = Seconds(ru.ru_stime);
  u.vol_csw = static_cast<double>(ru.ru_nvcsw);
  u.invol_csw = static_cast<double>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return u;
}

Usage Usage::Since(const Usage& before) const {
  Usage d;
  d.user_s = user_s - before.user_s;
  d.sys_s = sys_s - before.sys_s;
  d.vol_csw = vol_csw - before.vol_csw;
  d.invol_csw = invol_csw - before.invol_csw;
  d.max_rss_mb = max_rss_mb;
  return d;
}

double StolenSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                      &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Check("metric " + name + " is finite", false);
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  std::printf("  %-46s %16.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::Check(const std::string& what, bool ok, const std::string& detail) {
  correct_ = correct_ && ok;
  checks_.emplace_back(what + (detail.empty() ? "" : " (" + detail + ")"), ok);
  std::printf("  check %-4s %s%s%s\n", ok ? "ok" : "FAIL", what.c_str(),
              detail.empty() ? "" : ": ", detail.c_str());
  std::fflush(stdout);
}

void Report::Note(const std::string& line) {
  std::printf("  %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::PrintJson(uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i != 0) out += ", ";
    out += "{\"check\": " + Quote(checks_[i].first) +
           ", \"ok\": " + (checks_[i].second ? "true" : "false") + "}";
  }
  out += "], \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ", ";
    std::snprintf(number, sizeof(number), "%.17g", metrics_[i].value);
    out += Quote(metrics_[i].name) + ": {\"value\": " + number +
           ", \"unit\": " + Quote(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
