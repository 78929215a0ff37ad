#ifndef YCSBT_TESTS_STR_CAT_H_
#define YCSBT_TESTS_STR_CAT_H_

#include <string>
#include <string_view>
#include <type_traits>

namespace ycsbt {

namespace str_cat_internal {

inline void Append(std::string* out, std::string_view piece) { out->append(piece); }

template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
void Append(std::string* out, Int value) {
  out->append(std::to_string(value));
}

}  // namespace str_cat_internal

/// Concatenates strings and integers: `StrCat("k", 7, "_", 2) == "k7_2"`.
/// Tests build keys with it instead of `"k" + std::to_string(7)`: GCC 12 at
/// -O3 reports a false -Wrestrict on prepending a literal to a temporary
/// string, which breaks the -Werror Release build.
template <typename... Pieces>
std::string StrCat(const Pieces&... pieces) {
  std::string out;
  (str_cat_internal::Append(&out, pieces), ...);
  return out;
}

}  // namespace ycsbt

#endif  // YCSBT_TESTS_STR_CAT_H_
