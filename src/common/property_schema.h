#ifndef YCSBT_COMMON_PROPERTY_SCHEMA_H_
#define YCSBT_COMMON_PROPERTY_SCHEMA_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/properties.h"
#include "common/status.h"

namespace ycsbt {

/// The parsers every property read shares, `Properties`'s lenient getters
/// included.  Surrounding whitespace is ignored; the rest must be exactly one
/// token.  Integers are decimal only (`0x10` and `8x` are not integers);
/// booleans are true/false, yes/no, on/off or 1/0 in any case.
std::optional<int64_t> ParseInt(std::string_view s);
std::optional<uint64_t> ParseUint(std::string_view s);
std::optional<double> ParseDouble(std::string_view s);
std::optional<bool> ParseBool(std::string_view s);

/// `s` without surrounding whitespace.
std::string_view Trim(std::string_view s);

/// Splits a comma list, trimming each entry and dropping empty ones.
std::vector<std::string> SplitPropertyList(std::string_view list);

enum class PropertyType { kInt, kUint, kDouble, kBool, kString, kEnum, kList };

inline constexpr double kNoLimit = std::numeric_limits<double>::infinity();
inline constexpr double kIntMax = std::numeric_limits<int>::max();

/// One property, declared once (DESIGN.md §19): name, type, default, allowed
/// range or values, and a one-line doc.  Declarations are `inline constexpr`
/// objects in the header of the options struct or workload that reads them,
/// whose defaults the struct takes from them; each module lists its own in
/// one `PropertyList`, and `ValidateProperties` joins the lists.
///
/// `Get` returns the default when the key is absent, and also when its value
/// fails `Check`: properties are validated where they enter the program, so
/// a read never sees such a value.
struct PropertyDecl {
  std::string_view name;
  PropertyType type = PropertyType::kString;
  double number = 0;      ///< default of a numeric or bool property
  std::string_view text;  ///< default of a string or enum property
  double min = -kNoLimit;      ///< numeric range, inclusive...
  double max = kNoLimit;
  bool min_exclusive = false;  ///< ...unless the lower bound is open
  std::span<const std::string_view> choices;  ///< an enum's or a list's values
  /// Set when the reader derives the default from other settings; says how.
  std::string_view derived;
  std::string_view doc;

  /// OK when `value` parses as this type within the range or choices, else
  /// InvalidArgument naming `key` (as written), the value and what is
  /// allowed.
  Status Check(std::string_view key, std::string_view value) const;

  /// The default as README prints it: `derived`, else the value, `(empty)`
  /// for an empty string.
  std::string DefaultText() const;

  /// The value in `props` when present and valid, else null.
  const std::string* Find(const Properties& props) const;

  template <typename T>
  constexpr T Default() const {
    if constexpr (std::is_same_v<T, std::string>) {
      return std::string(text);
    } else {
      return static_cast<T>(number);
    }
  }

  template <typename T>
  T Get(const Properties& props) const {
    return Get<T>(props, Default<T>());
  }

  /// As `Get`, with the caller's default: for derived defaults and for
  /// workloads whose default differs from the declared one.
  template <typename T>
  T Get(const Properties& props, T fallback) const {
    const std::string* value = Find(props);
    if (value == nullptr) return fallback;
    if constexpr (std::is_same_v<T, std::string>) {
      assert(type == PropertyType::kString || type == PropertyType::kEnum ||
             type == PropertyType::kList);
      return *value;
    } else if constexpr (std::is_same_v<T, bool>) {
      assert(type == PropertyType::kBool);
      return *ParseBool(*value);
    } else if constexpr (std::is_floating_point_v<T>) {
      assert(type == PropertyType::kInt || type == PropertyType::kUint ||
             type == PropertyType::kDouble);
      return static_cast<T>(*ParseDouble(*value));
    } else {
      assert(type == PropertyType::kInt || type == PropertyType::kUint);
      if (type == PropertyType::kUint) return static_cast<T>(*ParseUint(*value));
      return static_cast<T>(*ParseInt(*value));
    }
  }

  /// An enum property as the C++ enum `E`, whose enumerators follow
  /// `choices` in order.
  template <typename E>
  E GetEnum(const Properties& props) const {
    assert(type == PropertyType::kEnum);
    std::string value = Get<std::string>(props);
    return static_cast<E>(std::find(choices.begin(), choices.end(), value) -
                          choices.begin());
  }
};

constexpr PropertyDecl Numeric(PropertyType type, std::string_view name, double def,
                               double min, double max, std::string_view doc) {
  return {name, type, def, {}, min, max, false, {}, {}, doc};
}
constexpr PropertyDecl IntProperty(std::string_view name, int64_t def, double min,
                                   double max, std::string_view doc) {
  return Numeric(PropertyType::kInt, name, static_cast<double>(def), min, max, doc);
}
constexpr PropertyDecl UintProperty(std::string_view name, uint64_t def, double min,
                                    double max, std::string_view doc) {
  return Numeric(PropertyType::kUint, name, static_cast<double>(def), min, max, doc);
}
/// An unsigned property with no range beyond its type.
constexpr PropertyDecl UintProperty(std::string_view name, uint64_t def,
                                    std::string_view doc) {
  return UintProperty(name, def, 0, kNoLimit, doc);
}
constexpr PropertyDecl DoubleProperty(std::string_view name, double def, double min,
                                      double max, std::string_view doc) {
  return Numeric(PropertyType::kDouble, name, def, min, max, doc);
}
/// A double that must be strictly positive.
constexpr PropertyDecl PositiveProperty(std::string_view name, double def,
                                        std::string_view doc) {
  return {name, PropertyType::kDouble, def, {}, 0, kNoLimit, true, {}, {}, doc};
}
constexpr PropertyDecl BoolProperty(std::string_view name, bool def,
                                    std::string_view doc) {
  return Numeric(PropertyType::kBool, name, def ? 1 : 0, 0, 1, doc);
}
constexpr PropertyDecl StringProperty(std::string_view name, std::string_view def,
                                      std::string_view doc) {
  return {name, PropertyType::kString, 0, def, 0, 0, false, {}, {}, doc};
}
constexpr PropertyDecl EnumProperty(std::string_view name, std::string_view def,
                                    std::span<const std::string_view> choices,
                                    std::string_view doc) {
  return {name, PropertyType::kEnum, 0, def, 0, 0, false, choices, {}, doc};
}
/// A comma list (`SplitPropertyList`) whose every entry is one of `choices`.
constexpr PropertyDecl ListProperty(std::string_view name, std::string_view def,
                                    std::span<const std::string_view> choices,
                                    std::string_view doc) {
  return {name, PropertyType::kList, 0, def, 0, 0, false, choices, {}, doc};
}
/// Marks `decl`'s default as computed by its reader, described by `how`.
constexpr PropertyDecl Derived(PropertyDecl decl, std::string_view how) {
  decl.derived = how;
  return decl;
}

/// One module's declarations.
using PropertyList = std::span<const PropertyDecl* const>;

/// The declaration of `key` in `lists`, or null.
const PropertyDecl* FindPropertyDecl(std::span<const PropertyList> lists,
                                     std::string_view key);

/// Checks every key of `props` against `lists`, understanding the suite forms
/// `base.<key>`, `config.<name>.<key>`, `mix.<name>.<key>` and `sweep.<key>`
/// (each listed value checked); a suite's `expect.<label>` checks are left
/// to `SuiteSpec::Parse`.  Returns the first failing key's
/// InvalidArgument.  A key no list declares is not an error: it is warned
/// about once per process, or returned in `unknown` when that is given.
Status ValidatePropertiesAgainst(const Properties& props,
                                 std::span<const PropertyList> lists,
                                 std::vector<std::string>* unknown = nullptr);

/// Checks just the keys `list` declares: for parsers that return a Status
/// and may be handed a set nobody validated, such as `Workload::Init`.
Status CheckDeclaredProperties(const Properties& props, PropertyList list);

}  // namespace ycsbt

#endif  // YCSBT_COMMON_PROPERTY_SCHEMA_H_
