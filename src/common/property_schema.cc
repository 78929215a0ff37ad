#include "common/property_schema.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <mutex>
#include <set>

#include "common/logging.h"

namespace ycsbt {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

namespace {

template <typename T>
std::optional<T> ParseWhole(std::string_view s) {
  s = Trim(s);
  T v{};
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || s.empty()) {
    return std::nullopt;
  }
  return v;
}

bool ConsumePrefix(std::string_view* s, std::string_view prefix) {
  if (s->substr(0, prefix.size()) != prefix) return false;
  s->remove_prefix(prefix.size());
  return true;
}

/// Integers print as integers (`2000000`, not `2e+06`), the rest in the
/// shortest form that reads back exactly.
std::string FormatNumber(double v) {
  if (std::isinf(v)) return v < 0 ? "-inf" : "inf";
  if (std::trunc(v) == v && std::fabs(v) < 1e18) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string Expectation(const PropertyDecl& d) {
  std::string range = " in " + std::string(d.min_exclusive ? "(" : "[") +
                      FormatNumber(d.min) + ", " + FormatNumber(d.max) + "]";
  switch (d.type) {
    case PropertyType::kInt:
      return "an integer" + range;
    case PropertyType::kUint:
      return "an unsigned integer" + range;
    case PropertyType::kDouble:
      return "a number" + range;
    case PropertyType::kBool:
      return "a boolean (true/false, yes/no, on/off, 1/0)";
    case PropertyType::kString:
      return "a string";
    case PropertyType::kEnum:
    case PropertyType::kList:
      break;
  }
  std::string out = d.type == PropertyType::kList ? "a comma list of" : "one of";
  const size_t lead = out.size();
  for (std::string_view choice : d.choices) {
    out += (out.size() == lead ? " " : ", ") +
           (choice.empty() ? std::string("\"\"") : std::string(choice));
  }
  return out;
}

bool InRange(const PropertyDecl& d, double v) {
  bool above = d.min_exclusive ? v > d.min : v >= d.min;
  return above && v <= d.max;  // false for NaN
}

bool Valid(const PropertyDecl& d, std::string_view value) {
  switch (d.type) {
    case PropertyType::kInt: {
      std::optional<int64_t> v = ParseInt(value);
      return v && InRange(d, static_cast<double>(*v));
    }
    case PropertyType::kUint: {
      std::optional<uint64_t> v = ParseUint(value);
      return v && InRange(d, static_cast<double>(*v));
    }
    case PropertyType::kDouble: {
      std::optional<double> v = ParseDouble(value);
      return v && InRange(d, *v);
    }
    case PropertyType::kBool:
      return ParseBool(value).has_value();
    case PropertyType::kString:
      return true;
    case PropertyType::kEnum:
      return std::find(d.choices.begin(), d.choices.end(), value) !=
             d.choices.end();
    case PropertyType::kList:
      for (const std::string& entry : SplitPropertyList(value)) {
        if (std::find(d.choices.begin(), d.choices.end(), entry) == d.choices.end()) {
          return false;
        }
      }
      return true;
  }
  return false;
}

/// Warns about each unknown key once per process: a suite validates its
/// file and then every run, and each run enters through two doors.
void WarnUnknown(const std::vector<std::string>& unknown) {
  static std::mutex mu;
  static std::set<std::string> warned;
  std::string fresh;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& key : unknown) {
      if (warned.insert(key).second) fresh += (fresh.empty() ? "" : ", ") + key;
    }
  }
  if (!fresh.empty()) YCSBT_WARN("unknown properties: " << fresh);
}

}  // namespace

std::optional<int64_t> ParseInt(std::string_view s) {
  return ParseWhole<int64_t>(s);
}

std::optional<uint64_t> ParseUint(std::string_view s) {
  return ParseWhole<uint64_t>(s);
}

std::optional<double> ParseDouble(std::string_view s) {
  return ParseWhole<double>(s);
}

std::optional<bool> ParseBool(std::string_view s) {
  std::string v(Trim(s));
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  return std::nullopt;
}

std::vector<std::string> SplitPropertyList(std::string_view list) {
  std::vector<std::string> values;
  while (true) {
    size_t comma = list.find(',');
    std::string_view entry = Trim(list.substr(0, comma));
    if (!entry.empty()) values.emplace_back(entry);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return values;
}

Status PropertyDecl::Check(std::string_view key, std::string_view value) const {
  if (Valid(*this, value)) return Status::OK();
  return Status::InvalidArgument("property '" + std::string(key) + "' = '" +
                                 std::string(value) + "': expected " +
                                 Expectation(*this));
}

std::string PropertyDecl::DefaultText() const {
  if (!derived.empty()) return std::string(derived);
  switch (type) {
    case PropertyType::kBool:
      return number != 0 ? "true" : "false";
    case PropertyType::kString:
    case PropertyType::kEnum:
    case PropertyType::kList:
      return text.empty() ? "(empty)" : std::string(text);
    default:
      return FormatNumber(number);
  }
}

const std::string* PropertyDecl::Find(const Properties& props) const {
  const std::string* value = props.Find(name);
  return value != nullptr && Valid(*this, *value) ? value : nullptr;
}

const PropertyDecl* FindPropertyDecl(std::span<const PropertyList> lists,
                                     std::string_view key) {
  for (PropertyList list : lists) {
    for (const PropertyDecl* decl : list) {
      if (decl->name == key) return decl;
    }
  }
  return nullptr;
}

Status ValidatePropertiesAgainst(const Properties& props,
                                 std::span<const PropertyList> lists,
                                 std::vector<std::string>* unknown_out) {
  Status first = Status::OK();
  std::vector<std::string> unknown;
  for (const std::string& key : props.Keys()) {
    std::string_view inner = key;
    bool sweep = false;
    if (ConsumePrefix(&inner, "expect.")) {
      continue;  // a suite's checks, not a property; SuiteSpec::Parse reads them
    } else if (ConsumePrefix(&inner, "sweep.")) {
      sweep = true;
    } else if (ConsumePrefix(&inner, "config.") || ConsumePrefix(&inner, "mix.")) {
      // config.<name>.<key> / mix.<name>.<key>: the axis name is free-form.
      size_t dot = inner.find('.');
      inner = dot == std::string_view::npos ? std::string_view()
                                            : inner.substr(dot + 1);
    } else {
      ConsumePrefix(&inner, "base.");
    }
    const PropertyDecl* decl = FindPropertyDecl(lists, inner);
    if (decl == nullptr) {
      unknown.push_back(key);
      continue;
    }
    if (!first.ok()) continue;
    const std::string& value = *props.Find(key);
    if (sweep) {
      for (const std::string& v : SplitPropertyList(value)) {
        first = decl->Check(key, v);
        if (!first.ok()) break;
      }
    } else {
      first = decl->Check(key, value);
    }
  }
  if (unknown_out != nullptr) {
    *unknown_out = std::move(unknown);
  } else if (!unknown.empty()) {
    WarnUnknown(unknown);
  }
  return first;
}

Status CheckDeclaredProperties(const Properties& props, PropertyList list) {
  for (const PropertyDecl* decl : list) {
    const std::string* value = props.Find(decl->name);
    if (value == nullptr) continue;
    Status s = decl->Check(decl->name, *value);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace ycsbt
