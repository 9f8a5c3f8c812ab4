//===- support/GF2.h - The two-element field --------------------*- C++ -*-===//
///
/// \file
/// GF(2), the field with two elements.  The parity abstract domain of the
/// paper's Section 2 ("theory of parity") is an affine-congruence system
/// modulo 2, which is exactly an affine system over GF(2); this type lets the
/// generic linalg::AffineSystem machinery be reused verbatim for it.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_GF2_H
#define CAI_SUPPORT_GF2_H

#include <cassert>
#include <cstdint>
#include <string>

namespace cai {

/// An element of GF(2).  Models the Field concept of linalg/AffineSystem.h.
class GF2 {
public:
  /// Constructs zero.
  GF2() = default;
  explicit GF2(bool Bit) : Bit(Bit) {}

  /// Reduces an integer modulo 2 (sign-insensitive).
  static GF2 fromInt(int64_t Value) { return GF2((Value % 2) != 0); }

  static GF2 one() { return GF2(true); }

  bool isZero() const { return !Bit; }
  bool isOne() const { return Bit; }
  bool value() const { return Bit; }

  GF2 operator-() const { return *this; }
  GF2 operator+(GF2 RHS) const { return GF2(Bit != RHS.Bit); }
  GF2 operator-(GF2 RHS) const { return *this + RHS; }
  GF2 operator*(GF2 RHS) const { return GF2(Bit && RHS.Bit); }
  GF2 operator/(GF2 RHS) const {
    assert(RHS.Bit && "GF2 division by zero");
    return *this;
  }

  GF2 &operator+=(GF2 RHS) { return *this = *this + RHS; }
  GF2 &operator-=(GF2 RHS) { return *this = *this - RHS; }
  GF2 &operator*=(GF2 RHS) { return *this = *this * RHS; }
  GF2 &operator/=(GF2 RHS) { return *this = *this / RHS; }

  bool operator==(GF2 RHS) const { return Bit == RHS.Bit; }
  bool operator!=(GF2 RHS) const { return Bit != RHS.Bit; }

  GF2 inverse() const {
    assert(Bit && "inverse of zero in GF2");
    return *this;
  }

  std::string toString() const { return Bit ? "1" : "0"; }

private:
  bool Bit = false;
};

} // namespace cai

#endif // CAI_SUPPORT_GF2_H
