//===- domains/affine/EqualityKit.cpp - Affine equality operators ----------===//

#include "domains/affine/EqualityKit.h"

#include <map>

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
    auto It = Space.Index.find(T);
    if (It == Space.Index.end())
      return std::nullopt; // Indeterminate unknown to this column space.
    Row[It->second] = C;
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
  std::vector<LinRow<Rational>> Reps = Sys.varRepresentatives();
  std::map<LinRow<Rational>, Term> Leader;
  for (size_t Col = 0; Col < Columns.size(); ++Col) {
    if (!Columns[Col]->isVariable())
      continue;
    auto [It, Inserted] = Leader.emplace(Reps[Col], Columns[Col]);
    if (!Inserted)
      Out.emplace_back(It->second, Columns[Col]);
  }
  return Out;
}
