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

std::optional<LinRow<Rational>> cai::equationRow(const LinearExpr &Diff,
                                                 const ColumnSpace &Space) {
  LinRow<Rational> Row(Space.Columns.size() + 1);
  for (const auto &[T, C] : Diff.terms()) {
    const size_t *Col = Space.Index.find(T);
    if (!Col)
      return std::nullopt; // Indeterminate unknown to this column space.
    Row[*Col] = C;
  }
  Row[Space.Columns.size()] = -Diff.constant();
  return Row;
}

Term cai::rowTerm(TermContext &Ctx, const LinRow<Rational> &Row,
                  const std::vector<Term> &Columns) {
  return exprOf(Row, Columns, Row[Columns.size()]).toTerm(Ctx);
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
