//===- support/Decimal.h - Range-checked decimal reader ---------*- C++ -*-===//
///
/// \file
/// The one reader behind every numeric command-line value and port number.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_DECIMAL_H
#define CAI_SUPPORT_DECIMAL_H

#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>

namespace cai {

/// Reads \p Text, which must be decimal digits only (no sign, no spaces,
/// not empty), as a value no larger than \p Max.  Returns false and leaves
/// \p Out untouched otherwise, including when the value overflows T: a
/// value that does not fit is refused, never thrown or wrapped.
template <typename T>
bool parseDecimal(std::string_view Text, T &Out,
                  T Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>, "parseDecimal reads unsigned values");
  T V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace cai

#endif // CAI_SUPPORT_DECIMAL_H
