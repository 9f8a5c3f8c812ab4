//===- term/LinearExpr.h - Linear views of terms ----------------*- C++ -*-===//
///
/// \file
/// A LinearExpr is the canonical linear-combination view of a term:
/// sum of Coeff * Indeterminate plus a rational constant.  Indeterminates
/// are variables or opaque non-arithmetic subterms (e.g. F(x) inside
/// 2*F(x) + y); the numeric domains require all indeterminates to be
/// variables, while purification is what turns opaque subterms into fresh
/// variables beforehand.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_LINEAREXPR_H
#define CAI_TERM_LINEAREXPR_H

#include "support/SmallVec.h"
#include "term/TermContext.h"

#include <optional>

namespace cai {

/// A linear combination of terms with rational coefficients.
class LinearExpr {
public:
  /// The (indeterminate, coefficient) entries, sorted by TermStructLess on
  /// the indeterminate, with no zero coefficients.  A view rarely has more
  /// than a handful of indeterminates, so they live inline.
  using TermList = SmallVec<TermCoeff, 4>;

  /// Constructs the zero expression.
  LinearExpr() = default;
  explicit LinearExpr(Rational Constant) : Constant(std::move(Constant)) {}

  /// Decomposes \p T over the arithmetic symbols (+, *).  Non-arithmetic
  /// applications become opaque indeterminates with coefficient handling;
  /// returns std::nullopt only when a '*' has two non-numeral operands
  /// (a genuinely non-linear term).
  static std::optional<LinearExpr> fromTerm(const TermContext &Ctx, Term T);

  /// The coefficient of \p Indeterminate (zero if absent).
  Rational coeff(Term Indeterminate) const;
  const Rational &constant() const { return Constant; }

  /// The entries, in TermStructLess order of their indeterminates.
  const TermList &terms() const { return Coeffs; }

  bool isZero() const { return Coeffs.empty() && Constant.isZero(); }

  /// True if every indeterminate is a variable.
  bool allVars() const;

  void addTerm(Term Indeterminate, const Rational &Coeff);
  void addConstant(const Rational &Value) { Constant += Value; }

  bool operator==(const LinearExpr &RHS) const {
    return Constant == RHS.Constant && Coeffs == RHS.Coeffs;
  }

  /// Rebuilds the canonical term (indeterminates in structural order,
  /// constant last, unit coefficients folded).
  Term toTerm(TermContext &Ctx) const;

  /// Multiplies through by the least common denominator and divides by the
  /// gcd of all numerators so every coefficient is an integer and their gcd
  /// is 1.  The leading (structurally first) coefficient is made positive
  /// when \p NormalizeSign is set.  Returns the scale factor applied
  /// (always positive unless the sign was flipped).
  Rational normalizeIntegral(bool NormalizeSign);

private:
  TermList Coeffs;
  Rational Constant;
};

/// The canonical term of the sum of the \p NumEntries addends C * T at
/// \p Entries (distinct indeterminates, non-zero coefficients) and
/// \p Constant: one mkSum of the scaled indeterminates and, unless zero,
/// the constant.
Term linearTerm(TermContext &Ctx, const TermCoeff *Entries, size_t NumEntries,
                const Rational &Constant);

/// The factor normalizeIntegral scales by, for the \p NumEntries
/// coefficients at \p Entries plus \p Constant: the least common multiple
/// of all denominators over the gcd of the scaled coefficients (of the
/// constant when there are none), negated when \p NormalizeSign is set and
/// the lead coefficient (the first entry's, else the constant) would come
/// out negative.  With \p NormalizeSign the entries must be in
/// TermStructLess order.  1 for the zero expression.
Rational integralScale(const TermCoeff *Entries, size_t NumEntries,
                       const Rational &Constant, bool NormalizeSign);

} // namespace cai

#endif // CAI_TERM_LINEAREXPR_H
