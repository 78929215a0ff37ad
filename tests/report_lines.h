#ifndef YCSBT_TESTS_REPORT_LINES_H_
#define YCSBT_TESTS_REPORT_LINES_H_

// Lookups of one counter line in the exporters' output, for tests.  Both
// tell an absent line (nullopt) from a line reporting zero.

#include <cstdint>
#include <optional>
#include <string>

namespace ycsbt {

namespace report_lines_internal {

/// The decimal number starting at `pos`, which must end at `end_chars` (or
/// at the end of `s`); nullopt otherwise.
inline std::optional<uint64_t> NumberAt(const std::string& s, size_t pos,
                                        const char* end_chars) {
  size_t stop = s.find_first_not_of("0123456789", pos);
  if (stop == pos) return std::nullopt;
  if (stop != std::string::npos && std::string(end_chars).find(s[stop]) ==
                                       std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(s.substr(pos, stop - pos));
}

}  // namespace report_lines_internal

/// The value of the line `[name], <n>` in a text export.
inline std::optional<uint64_t> TextCounter(const std::string& report,
                                           const std::string& name) {
  std::string key = "[" + name + "], ";
  for (size_t at = report.find(key); at != std::string::npos;
       at = report.find(key, at + 1)) {
    if (at == 0 || report[at - 1] == '\n') {
      return report_lines_internal::NumberAt(report, at + key.size(), "\n");
    }
  }
  return std::nullopt;
}

/// The value of `"name":<n>` inside a JSON export's `counters` object.
inline std::optional<uint64_t> JsonCounter(const std::string& json,
                                           const std::string& name) {
  size_t begin = json.find("\"counters\":{");
  if (begin == std::string::npos) return std::nullopt;
  size_t end = json.find("}}", begin);
  size_t at = json.find("\"" + name + "\":", begin);
  if (at == std::string::npos || at > end) return std::nullopt;
  return report_lines_internal::NumberAt(json, at + name.size() + 3, ",}");
}

}  // namespace ycsbt

#endif  // YCSBT_TESTS_REPORT_LINES_H_
