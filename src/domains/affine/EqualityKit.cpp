//===- domains/affine/EqualityKit.cpp - Affine equality operators ----------===//

#include "domains/affine/EqualityKit.h"

using namespace cai;

std::vector<bool> cai::columnsMentioning(const std::vector<Term> &Columns,
                                         const std::vector<Term> &Vars) {
  std::vector<bool> Mask(Columns.size(), false);
  for (size_t Col = 0; Col < Columns.size(); ++Col)
    for (Term V : Vars)
      if (occursIn(V, Columns[Col])) {
        Mask[Col] = true;
        break;
      }
  return Mask;
}

Rational cai::addDifference(const LinearExpr &Lhs, const LinearExpr &Rhs,
                            const ColumnSpace &Space, Rational *Coeffs,
                            bool &Outside) {
  // A term outside Space that occurs on both sides with one coefficient
  // cancels, as it would in the difference Lhs - Rhs.
  for (const auto &[T, C] : Lhs.terms()) {
    if (const size_t *Col = Space.Index.find(T))
      Coeffs[*Col] += C;
    else if (Rhs.coeff(T) != C)
      Outside = true;
  }
  for (const auto &[T, C] : Rhs.terms()) {
    if (const size_t *Col = Space.Index.find(T))
      Coeffs[*Col] -= C;
    else if (Lhs.coeff(T) != C)
      Outside = true;
  }
  return Rhs.constant() - Lhs.constant();
}

LinRow<Rational> cai::equationRow(const LinearExpr &Lhs,
                                  const LinearExpr &Rhs,
                                  const ColumnSpace &Space, bool &Outside) {
  const size_t N = Space.Columns.size();
  LinRow<Rational> Row(N + 1);
  Row[N] = addDifference(Lhs, Rhs, Space, Row.data(), Outside);
  return Row;
}

SmallVec<TermCoeff, 8> cai::rowEntries(const Rational *Coeffs,
                                       const std::vector<Term> &Columns) {
  SmallVec<TermCoeff, 8> Entries;
  for (size_t C = 0; C < Columns.size(); ++C)
    if (!Coeffs[C].isZero())
      Entries.emplace_back(Columns[C], Coeffs[C]);
  sortByTerm(Entries.begin(), Entries.end());
  return Entries;
}

Term cai::rowTerm(TermContext &Ctx, const LinRow<Rational> &Row,
                  const std::vector<Term> &Columns) {
  SmallVec<TermCoeff, 8> Entries = rowEntries(Row.data(), Columns);
  return linearTerm(Ctx, Entries.data(), Entries.size(), Row[Columns.size()]);
}

Atom cai::eqAtom(TermContext &Ctx, const Rational *Coeffs, const Rational &Rhs,
                 const std::vector<Term> &Columns) {
  SmallVec<TermCoeff, 8> Entries = rowEntries(Coeffs, Columns);
  Rational Scale = integralScale(Entries.data(), Entries.size(), -Rhs,
                                 /*NormalizeSign=*/true);
  for (TermCoeff &Entry : Entries)
    Entry.second *= Scale;
  return Atom::mkEq(Ctx,
                    linearTerm(Ctx, Entries.data(), Entries.size(), Rational()),
                    Ctx.mkNum(Rhs * Scale));
}

Atom cai::leAtom(TermContext &Ctx, const Rational *Coeffs, const Rational &Rhs,
                 const std::vector<Term> &Columns) {
  SmallVec<TermCoeff, 8> Entries = rowEntries(Coeffs, Columns);
  return Atom::mkLe(Ctx,
                    linearTerm(Ctx, Entries.data(), Entries.size(), Rational()),
                    Ctx.mkNum(Rhs));
}

std::vector<std::pair<Term, Term>>
cai::varEqualities(const AffineSystem<Rational> &Sys,
                   const std::vector<Term> &Columns) {
  std::vector<std::pair<Term, Term>> Out;
  std::vector<size_t> Leader = Sys.equalVarLeaders();
  // The first variable column of each class, at the class's leader.
  std::vector<Term> FirstVar(Columns.size(), nullptr);
  for (size_t Col = 0; Col < Columns.size(); ++Col) {
    if (!Columns[Col]->isVariable())
      continue;
    Term &First = FirstVar[Leader[Col]];
    if (!First)
      First = Columns[Col];
    else
      Out.emplace_back(First, Columns[Col]);
  }
  return Out;
}
