//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
///
/// \file
/// Exact rationals over BigInt, always kept in lowest terms with a positive
/// denominator.  This is the coefficient field for the Karr affine domain,
/// Fourier-Motzkin elimination and the exact simplex.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_RATIONAL_H
#define CAI_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

#include <string>

namespace cai {

/// An exact rational number.
///
/// Also models the Field concept of linalg/AffineSystem.h: default
/// constructor is zero, and it provides +, -, *, /, ==, isZero and one().
class Rational {
public:
  /// Constructs zero.
  Rational() : Num(0), Den(1) {}

  Rational(int64_t Value) : Num(Value), Den(1) {}
  Rational(BigInt Numerator) : Num(std::move(Numerator)), Den(1) {}

  /// Constructs Numerator/Denominator and normalizes.  Asserts on a zero
  /// denominator.
  Rational(BigInt Numerator, BigInt Denominator);

  static Rational one() { return Rational(1); }

  const BigInt &numerator() const { return Num; }
  const BigInt &denominator() const { return Den; }

  bool isZero() const { return Num.isZero(); }
  bool isOne() const { return Num.isOne() && Den.isOne(); }
  bool isInteger() const { return Den.isOne(); }
  int sign() const { return Num.sign(); }

  Rational operator-() const;
  // Integer-integer cases (both denominators 1 -- the common case in the
  // Gauss-Jordan inner loops) run inline without any gcd; everything else
  // takes the out-of-line path, which reduces with Knuth's cross-gcd
  // scheme so intermediate magnitudes stay small.
  Rational operator+(const Rational &RHS) const {
    if (Den.isOne() && RHS.Den.isOne())
      return Rational(Num + RHS.Num);
    return addSlow(RHS, /*Negate=*/false);
  }
  Rational operator-(const Rational &RHS) const {
    if (Den.isOne() && RHS.Den.isOne())
      return Rational(Num - RHS.Num);
    return addSlow(RHS, /*Negate=*/true);
  }
  Rational operator*(const Rational &RHS) const {
    if (Den.isOne() && RHS.Den.isOne())
      return Rational(Num * RHS.Num);
    return mulSlow(RHS);
  }
  /// Asserts on division by zero.
  Rational operator/(const Rational &RHS) const;

  Rational &operator+=(const Rational &RHS) { return *this = *this + RHS; }
  Rational &operator-=(const Rational &RHS) { return *this = *this - RHS; }
  Rational &operator*=(const Rational &RHS) { return *this = *this * RHS; }
  Rational &operator/=(const Rational &RHS) { return *this = *this / RHS; }

  bool operator==(const Rational &RHS) const {
    return Num == RHS.Num && Den == RHS.Den;
  }
  bool operator!=(const Rational &RHS) const { return !(*this == RHS); }
  bool operator<(const Rational &RHS) const {
    if (Den.isOne() && RHS.Den.isOne())
      return Num < RHS.Num;
    return Num * RHS.Den < RHS.Num * Den; // Denominators always positive.
  }
  bool operator<=(const Rational &RHS) const { return !(RHS < *this); }
  bool operator>(const Rational &RHS) const { return RHS < *this; }
  bool operator>=(const Rational &RHS) const { return !(*this < RHS); }

  Rational abs() const { return sign() < 0 ? -*this : *this; }

  /// Reciprocal; asserts on zero.
  Rational inverse() const;

  /// Largest integer <= value.
  BigInt floor() const;
  /// Smallest integer >= value.
  BigInt ceil() const;

  /// Renders as "n" or "n/d".
  std::string toString() const;

  size_t hash() const { return Num.hash() * 31 ^ Den.hash(); }

private:
  void normalize();

  /// Fraction addition (subtraction when \p Negate) with the denominators'
  /// gcd factored out before the cross-multiplication.
  Rational addSlow(const Rational &RHS, bool Negate) const;
  /// Cross-gcd multiplication: the result is born in lowest terms.
  Rational mulSlow(const Rational &RHS) const;

  BigInt Num;
  BigInt Den; // Always positive.
};

} // namespace cai

#endif // CAI_SUPPORT_RATIONAL_H
