#ifndef YCSBT_COMMON_PROPERTIES_H_
#define YCSBT_COMMON_PROPERTIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ycsbt {

/// Java-style property set: the configuration mechanism of YCSB and YCSB+T.
///
/// Workload parameter files (paper Listing 2) are plain `key=value` lines with
/// `#` comments; command-line `-p key=value` pairs override file values, and
/// later `Load()`/`Set()` calls override earlier ones — the same precedence
/// the YCSB client uses.
class Properties {
 public:
  Properties() = default;

  /// Sets (or overwrites) one property.
  void Set(std::string key, std::string value);

  /// Parses `key=value` lines from a string.  Blank lines and lines whose
  /// first non-space character is `#` or `!` are ignored.  Whitespace around
  /// key and value is trimmed.  Returns InvalidArgument on a malformed line
  /// (no '=').
  Status LoadFromString(std::string_view text);

  /// Loads a properties file from disk, as `-P file` does in the YCSB client.
  /// Keys are checked later, where the set is used (`ValidateProperties`).
  Status LoadFromFile(const std::string& path);

  /// True if `key` is present.
  bool Contains(const std::string& key) const;

  /// Returns the value for `key`, or `def` if absent.
  std::string Get(const std::string& key, const std::string& def = "") const;

  /// The value for `key`, or null if absent.
  const std::string* Find(std::string_view key) const;

  /// Lenient typed getters, parsing as the property schema does
  /// (`common/property_schema.h`).  On a present-but-unparsable value these
  /// return `def`.  The library reads through its declarations instead,
  /// after `ValidateProperties` has rejected such values.
  int64_t GetInt(const std::string& key, int64_t def) const;
  uint64_t GetUint(const std::string& key, uint64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  /// Accepts true/false/yes/no/on/off/1/0 (case-insensitive).
  bool GetBool(const std::string& key, bool def) const;

  /// All keys in sorted order (for deterministic dumps).
  std::vector<std::string> Keys() const;

  /// Number of properties.
  size_t size() const { return map_.size(); }

  /// Merges `other` into this set; values in `other` win.
  void Merge(const Properties& other);

  /// Renders the set as sorted `key=value` lines (for logging runs).
  std::string ToString() const;

 private:
  std::map<std::string, std::string, std::less<>> map_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_PROPERTIES_H_
