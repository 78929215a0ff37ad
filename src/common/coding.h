#ifndef YCSBT_COMMON_CODING_H_
#define YCSBT_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ycsbt {

/// Little-endian fixed-width and length-prefixed encoding helpers shared by
/// the WAL and the transactional record codec.

inline void PutFixed8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void PutLengthPrefixed(std::string* out, std::string_view s) {
  PutFixed32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Cursor-style decoder; every Get* returns false on underflow, after which
/// the cursor is in a failed state (callers surface Status::Corruption).
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetFixed8(uint8_t* v) {
    if (data_.size() < 1) return false;
    *v = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return true;
  }

  bool GetFixed32(uint32_t* v) {
    if (data_.size() < 4) return false;
    std::memcpy(v, data_.data(), 4);
    data_.remove_prefix(4);
    return true;
  }

  bool GetFixed64(uint64_t* v) {
    if (data_.size() < 8) return false;
    std::memcpy(v, data_.data(), 8);
    data_.remove_prefix(8);
    return true;
  }

  bool GetLengthPrefixed(std::string* s) {
    std::string_view view;
    if (!GetLengthPrefixed(&view)) return false;
    s->assign(view);
    return true;
  }

  bool GetLengthPrefixed(std::string_view* s) {  // views the bytes in place
    uint32_t len;
    if (!GetFixed32(&len)) return false;
    if (data_.size() < len) return false;
    *s = data_.substr(0, len);
    data_.remove_prefix(len);
    return true;
  }

  bool Empty() const { return data_.empty(); }
  size_t Remaining() const { return data_.size(); }

 private:
  std::string_view data_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_CODING_H_
