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

Term LinearExpr::toTerm(TermContext &Ctx) const {
  return linearTerm(Ctx, Coeffs.data(), Coeffs.size(), Constant);
}

Rational LinearExpr::normalizeIntegral(bool NormalizeSign) {
  Rational Scale =
      integralScale(Coeffs.data(), Coeffs.size(), Constant, NormalizeSign);
  for (auto &[T, C] : Coeffs)
    C *= Scale;
  Constant *= Scale;
  return Scale;
}

Term cai::linearTerm(TermContext &Ctx, const TermCoeff *Entries,
                     size_t NumEntries, const Rational &Constant) {
  SmallVec<Term, 8> Addends;
  Addends.reserve(NumEntries + 1);
  for (size_t I = 0; I < NumEntries; ++I)
    Addends.push_back(Ctx.mkMul(Entries[I].second, Entries[I].first));
  if (!Constant.isZero())
    Addends.push_back(Ctx.mkNum(Constant));
  return Ctx.mkSum(Addends.data(), Addends.size());
}

Rational cai::integralScale(const TermCoeff *Entries, size_t NumEntries,
                            const Rational &Constant, bool NormalizeSign) {
  if (NumEntries == 0 && Constant.isZero())
    return Rational(1);
  // Least common multiple of all denominators.
  BigInt Lcm(1);
  for (size_t I = 0; I < NumEntries; ++I)
    Lcm = BigInt::lcm(Lcm, Entries[I].second.denominator());
  Lcm = BigInt::lcm(Lcm, Constant.denominator());
  // Gcd of the resulting integer numerators.
  BigInt Gcd;
  auto FoldGcd = [&](const Rational &C) {
    Gcd = BigInt::gcd(Gcd, (C * Rational(Lcm)).numerator());
  };
  for (size_t I = 0; I < NumEntries; ++I)
    FoldGcd(Entries[I].second);
  if (NumEntries == 0)
    FoldGcd(Constant);
  if (Gcd.isZero())
    Gcd = BigInt(1);
  Rational Scale = Rational(Lcm) / Rational(Gcd);
  if (NormalizeSign) {
    const Rational &Lead = NumEntries == 0 ? Constant : Entries[0].second;
    if ((Lead * Scale).sign() < 0)
      Scale = -Scale;
  }
  return Scale;
}
