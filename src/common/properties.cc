#include "common/properties.h"

#include <fstream>
#include <sstream>

#include "common/property_schema.h"

namespace ycsbt {

void Properties::Set(std::string key, std::string value) {
  map_[std::move(key)] = std::move(value);
}

Status Properties::LoadFromString(std::string_view text) {
  size_t pos = 0;
  int lineno = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line =
        nl == std::string_view::npos ? text.substr(pos) : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    line = Trim(line);
    if (line.empty() || line.front() == '#' || line.front() == '!') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("properties line " + std::to_string(lineno) +
                                     " has no '=': " + std::string(line));
    }
    Set(std::string(Trim(line.substr(0, eq))), std::string(Trim(line.substr(eq + 1))));
  }
  return Status::OK();
}

Status Properties::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open properties file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadFromString(buf.str());
}

bool Properties::Contains(const std::string& key) const {
  return map_.find(key) != map_.end();
}

const std::string* Properties::Find(std::string_view key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::string Properties::Get(const std::string& key, const std::string& def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : *v;
}

namespace {

template <typename T, typename Parse>
T ParsedOr(const std::string* value, T def, Parse parse) {
  if (value == nullptr) return def;
  return parse(*value).value_or(def);
}

}  // namespace

int64_t Properties::GetInt(const std::string& key, int64_t def) const {
  return ParsedOr(Find(key), def, ParseInt);
}

uint64_t Properties::GetUint(const std::string& key, uint64_t def) const {
  return ParsedOr(Find(key), def, ParseUint);
}

double Properties::GetDouble(const std::string& key, double def) const {
  return ParsedOr(Find(key), def, ParseDouble);
}

bool Properties::GetBool(const std::string& key, bool def) const {
  return ParsedOr(Find(key), def, ParseBool);
}

std::vector<std::string> Properties::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(map_.size());
  for (const auto& [k, v] : map_) keys.push_back(k);
  return keys;
}

void Properties::Merge(const Properties& other) {
  for (const auto& [k, v] : other.map_) map_[k] = v;
}

std::string Properties::ToString() const {
  std::string out;
  for (const auto& [k, v] : map_) {
    out += k;
    out += '=';
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace ycsbt
