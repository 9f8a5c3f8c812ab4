//===- term/LinearExpr.cpp - Linear views of terms -------------------------===//

#include "term/LinearExpr.h"

#include <algorithm>

using namespace cai;

static bool decompose(const TermContext &Ctx, Term T, const Rational &Factor,
                      LinearExpr &Out) {
  switch (T->kind()) {
  case TermKind::Variable:
    Out.addTerm(T, Factor);
    return true;
  case TermKind::Number:
    Out.addConstant(Factor * T->number());
    return true;
  case TermKind::App:
    if (T->symbol() == Ctx.addSymbol()) {
      for (Term Arg : T->args())
        if (!decompose(Ctx, Arg, Factor, Out))
          return false;
      return true;
    }
    if (T->symbol() == Ctx.mulSymbol()) {
      Term A = T->args()[0], B = T->args()[1];
      if (A->isNumber())
        return decompose(Ctx, B, Factor * A->number(), Out);
      if (B->isNumber())
        return decompose(Ctx, A, Factor * B->number(), Out);
      return false; // Non-linear product.
    }
    // Opaque (non-arithmetic) application: treat as an indeterminate.
    Out.addTerm(T, Factor);
    return true;
  }
  assert(false && "unknown term kind");
  return false;
}

std::optional<LinearExpr> LinearExpr::fromTerm(const TermContext &Ctx,
                                               Term T) {
  LinearExpr Out;
  if (!decompose(Ctx, T, Rational(1), Out))
    return std::nullopt;
  return Out;
}

/// The first entry of \p Coeffs whose indeterminate is not structurally
/// below \p T.
template <typename ListT> static auto lowerBound(ListT &Coeffs, Term T) {
  return std::lower_bound(Coeffs.begin(), Coeffs.end(), T,
                          [](const auto &Entry, Term Key) {
                            return structuralCompare(Entry.first, Key) < 0;
                          });
}

Rational LinearExpr::coeff(Term Indeterminate) const {
  auto It = lowerBound(Coeffs, Indeterminate);
  return It == Coeffs.end() || It->first != Indeterminate ? Rational()
                                                          : It->second;
}

bool LinearExpr::allVars() const {
  for (const auto &[T, C] : Coeffs)
    if (!T->isVariable())
      return false;
  return true;
}

void LinearExpr::addTerm(Term Indeterminate, const Rational &Coeff) {
  if (Coeff.isZero())
    return;
  auto It = lowerBound(Coeffs, Indeterminate);
  if (It == Coeffs.end() || It->first != Indeterminate) {
    Coeffs.emplace(It, Indeterminate, Coeff);
    return;
  }
  It->second += Coeff;
  if (It->second.isZero())
    Coeffs.erase(It);
}

LinearExpr LinearExpr::operator+(const LinearExpr &RHS) const {
  LinearExpr Out = *this;
  for (const auto &[T, C] : RHS.Coeffs)
    Out.addTerm(T, C);
  Out.Constant += RHS.Constant;
  return Out;
}

LinearExpr LinearExpr::operator-(const LinearExpr &RHS) const {
  return *this + RHS.scaled(Rational(-1));
}

LinearExpr LinearExpr::scaled(const Rational &Factor) const {
  LinearExpr Out;
  if (Factor.isZero())
    return Out;
  Out.Coeffs.reserve(Coeffs.size());
  for (const auto &[T, C] : Coeffs)
    Out.Coeffs.emplace_back(T, C * Factor);
  Out.Constant = Constant * Factor;
  return Out;
}

Term LinearExpr::toTerm(TermContext &Ctx) const {
  Term Sum = Ctx.mkNum(0);
  for (const auto &[T, C] : Coeffs)
    Sum = Ctx.mkAdd(Sum, Ctx.mkMul(C, T));
  if (!Constant.isZero() || Coeffs.empty())
    Sum = Ctx.mkAdd(Sum, Ctx.mkNum(Constant));
  return Sum;
}

Rational LinearExpr::normalizeIntegral(bool NormalizeSign) {
  if (Coeffs.empty() && Constant.isZero())
    return Rational(1);
  // Least common multiple of all denominators.
  BigInt Lcm(1);
  for (const auto &[T, C] : Coeffs)
    Lcm = BigInt::lcm(Lcm, C.denominator());
  Lcm = BigInt::lcm(Lcm, Constant.denominator());
  // Gcd of the resulting integer numerators.
  BigInt Gcd;
  auto FoldGcd = [&](const Rational &C) {
    Gcd = BigInt::gcd(Gcd, (C * Rational(Lcm)).numerator());
  };
  for (const auto &[T, C] : Coeffs)
    FoldGcd(C);
  if (Coeffs.empty())
    FoldGcd(Constant);
  if (Gcd.isZero())
    Gcd = BigInt(1);
  Rational Scale = Rational(Lcm) / Rational(Gcd);
  if (NormalizeSign) {
    const Rational &Lead =
        Coeffs.empty() ? Constant : Coeffs.begin()->second;
    if ((Lead * Scale).sign() < 0)
      Scale = -Scale;
  }
  for (auto &[T, C] : Coeffs)
    C *= Scale;
  Constant *= Scale;
  return Scale;
}
