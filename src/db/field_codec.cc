#include "db/field_codec.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace ycsbt {

namespace {

constexpr uint8_t kFormatTag = 0xF1;  // then a fixed32 field count

char* WriteLengthPrefixed(char* p, std::string_view s) {
  uint32_t len = static_cast<uint32_t>(s.size());
  std::memcpy(p, &len, 4);
  std::memcpy(p + 4, s.data(), s.size());
  return p + 4 + s.size();
}

}  // namespace

FieldMap::Field FieldMap::At(size_t off) const {
  const char* p = buf_.data() + off;
  uint32_t name_len, value_len;
  std::memcpy(&name_len, p, 4);
  std::memcpy(&value_len, p + 4 + name_len, 4);
  return {{p + 4, name_len}, {p + 8 + name_len, value_len}};
}

size_t FieldMap::LowerBound(std::string_view name) const {
  auto it = std::partition_point(offsets_.begin(), offsets_.end(),
                                 [&](size_t off) { return At(off).first < name; });
  return static_cast<size_t>(it - offsets_.begin());
}

void FieldMap::Set(std::string_view name, std::string_view value) {
  size_t i = LowerBound(name);
  size_t off = i < offsets_.size() ? offsets_[i] : buf_.size();
  bool replace = i < offsets_.size() && At(off).first == name;
  size_t old_size = replace ? 8 + name.size() + At(off).second.size() : 0;
  size_t new_size = 8 + name.size() + value.size();
  buf_.replace(off, old_size, new_size, '\0');
  WriteLengthPrefixed(WriteLengthPrefixed(&buf_[off], name), value);
  if (!replace) {
    offsets_.insert(offsets_.begin() + static_cast<std::ptrdiff_t>(i), off);
    uint32_t count = static_cast<uint32_t>(offsets_.size());
    std::memcpy(&buf_[1], &count, 4);
  }
  for (size_t j = i + 1; j < offsets_.size(); ++j) offsets_[j] += new_size - old_size;
}

void FieldMap::clear() {
  buf_.assign(5, '\0');
  buf_[0] = static_cast<char>(kFormatTag);
  offsets_.clear();
}

std::string EncodeFields(const FieldMap& fields) {
  return std::string(fields.encoded());
}

Status DecodeFields(std::string_view data, FieldMap* out,
                    const std::vector<std::string>* projection) {
  out->clear();
  Decoder dec(data);
  uint8_t tag = 0;
  uint32_t count = 0;
  if (!dec.GetFixed8(&tag) || tag != kFormatTag || !dec.GetFixed32(&count)) {
    return Status::Corruption("bad field record header");
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name, value;
    if (!dec.GetLengthPrefixed(&name) || !dec.GetLengthPrefixed(&value)) {
      return Status::Corruption("truncated field record");
    }
    if (projection != nullptr &&
        std::find(projection->begin(), projection->end(), name) ==
            projection->end()) {
      continue;
    }
    // Stored records are in name order, so each Set appends; out-of-order or
    // duplicate names (never written by EncodeFields) land as a map would
    // place them, the last duplicate winning.
    out->Set(name, value);
  }
  if (!dec.Empty()) return Status::Corruption("trailing bytes in field record");
  return Status::OK();
}

Status MergeFields(std::string_view existing, const FieldMap& updates,
                   FieldMap* merged) {
  Status s = DecodeFields(existing, merged);
  if (!s.ok()) return s;
  for (const auto& [name, value] : updates) merged->Set(name, value);
  return Status::OK();
}

}  // namespace ycsbt
