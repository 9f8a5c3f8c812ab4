//===- domains/affine/AffineDomain.cpp - Karr's affine equalities ----------===//

#include "domains/affine/AffineDomain.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace cai;

namespace {

/// The linear sides of an equality atom; nullopt when the atom is not a
/// linear equality.
std::optional<std::pair<LinearExpr, LinearExpr>>
linearSides(const TermContext &Ctx, const Atom &A) {
  if (A.predicate() != Ctx.eqSymbol())
    return std::nullopt;
  std::optional<LinearExpr> Lhs = LinearExpr::fromTerm(Ctx, A.lhs());
  std::optional<LinearExpr> Rhs = LinearExpr::fromTerm(Ctx, A.rhs());
  if (!Lhs || !Rhs)
    return std::nullopt;
  return std::make_pair(std::move(*Lhs), std::move(*Rhs));
}

} // namespace

std::optional<LinRow<Rational>>
AffineDomain::rowOf(const LinearExpr &Diff, const ColumnSpace &Space) {
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

std::shared_ptr<const AffineDomain::Canon>
AffineDomain::canon(const Conjunction &E) const {
  assert(!E.isBottom() && "no structured form for bottom");
  const bool Memo = memoizationEnabled();
  if (Memo) {
    if (std::shared_ptr<const Canon> Hit = Recent.lookup(E)) {
      CAI_METRIC_INC("domain.affine.canon_hits");
      return Hit;
    }
  }
  CAI_METRIC_INC("domain.affine.canon_misses");
  auto C = std::make_shared<Canon>();
  // Columns in order of first occurrence, left side before right side;
  // atoms that are not linear equalities are dropped (a sound
  // over-approximation).
  std::vector<LinearExpr> Diffs;
  for (const Atom &A : E.atoms()) {
    auto Sides = linearSides(context(), A);
    if (!Sides)
      continue;
    for (const auto &[T, Coeff] : Sides->first.terms())
      C->Cols.add(T);
    for (const auto &[T, Coeff] : Sides->second.terms())
      C->Cols.add(T);
    Diffs.push_back(Sides->first - Sides->second);
  }
  C->Sys = AffineSystem<Rational>(C->Cols.Columns.size());
  for (const LinearExpr &Diff : Diffs)
    C->Sys.addRow(std::move(*rowOf(Diff, C->Cols)));
  C->Sys.isInconsistent(); // Canonicalize here, once.
  if (Memo)
    Recent.insert(E, C);
  return C;
}

Conjunction AffineDomain::fromSystem(const AffineSystem<Rational> &S,
                                     const std::vector<Term> &Columns) const {
  if (S.isInconsistent())
    return Conjunction::bottom();
  TermContext &Ctx = context();
  Conjunction Out;
  for (const LinRow<Rational> &Row : S.rows()) {
    LinearExpr Lhs;
    for (size_t C = 0; C < Columns.size(); ++C)
      if (!Row[C].isZero())
        Lhs.addTerm(Columns[C], Row[C]);
    LinearExpr Rhs(Row[Columns.size()]);
    // Scale to integral coefficients for readable canonical output.
    LinearExpr Diff = Lhs - Rhs;
    Rational Scale = Diff.normalizeIntegral(/*NormalizeSign=*/true);
    Lhs = Lhs.scaled(Scale);
    Rhs = Rhs.scaled(Scale);
    Out.add(Atom::mkEq(Ctx, Lhs.toTerm(Ctx), Rhs.toTerm(Ctx)));
  }
  return Out;
}

Term AffineDomain::termOf(const LinRow<Rational> &Row,
                          const std::vector<Term> &Columns) const {
  LinearExpr Expr(Row[Columns.size()]);
  for (size_t C = 0; C < Columns.size(); ++C)
    if (!Row[C].isZero())
      Expr.addTerm(Columns[C], Row[C]);
  return Expr.toTerm(context());
}

Conjunction AffineDomain::join(const Conjunction &A,
                               const Conjunction &B) const {
  CAI_TRACE_SPAN("affine.join", "domain");
  CAI_METRIC_INC("domain.affine.joins");
  if (A.isBottom())
    return B;
  std::shared_ptr<const Canon> CA = canon(A);
  if (CA->Sys.isInconsistent())
    return B;
  if (B.isBottom())
    return A;
  std::shared_ptr<const Canon> CB = canon(B);
  if (CB->Sys.isInconsistent())
    return A;
  ColumnUnion U = uniteColumns(CA->Cols, CB->Cols);
  AffineSystem<Rational> SA = CA->Sys.embed(U.ACol, U.Columns.size());
  AffineSystem<Rational> SB = CB->Sys.embed(U.BCol, U.Columns.size());
  return fromSystem(AffineSystem<Rational>::join(SA, SB), U.Columns);
}

Conjunction AffineDomain::existQuant(const Conjunction &E,
                                     const std::vector<Term> &Vars) const {
  if (E.isBottom())
    return E;
  std::shared_ptr<const Canon> C = canon(E);
  const std::vector<Term> &Columns = C->Cols.Columns;
  // Eliminate each variable column in Vars, and every opaque column whose
  // term mentions one of them.
  std::vector<bool> Mask(Columns.size(), false);
  for (size_t Col = 0; Col < Columns.size(); ++Col)
    for (Term V : Vars)
      if (occursIn(V, Columns[Col])) {
        Mask[Col] = true;
        break;
      }
  return fromSystem(C->Sys.project(Mask), Columns);
}

bool AffineDomain::entails(const Conjunction &E, const Atom &A) const {
  if (E.isBottom())
    return true;
  if (A.isTrivial(context()))
    return true;
  std::shared_ptr<const Canon> C = canon(E);
  if (C->Sys.isInconsistent())
    return true;
  auto Sides = linearSides(context(), A);
  if (!Sides)
    return false; // Not a linear equality: not expressible here.
  // A term outside E's columns is unconstrained by the consistent E, so an
  // atom still mentioning one after cancellation is not entailed.
  std::optional<LinRow<Rational>> Row =
      rowOf(Sides->first - Sides->second, C->Cols);
  return Row && C->Sys.entails(std::move(*Row));
}

bool AffineDomain::isUnsat(const Conjunction &E) const {
  return E.isBottom() || canon(E)->Sys.isInconsistent();
}

std::vector<std::pair<Term, Term>>
AffineDomain::impliedVarEqualities(const Conjunction &E) const {
  std::vector<std::pair<Term, Term>> Out;
  if (E.isBottom())
    return Out;
  std::shared_ptr<const Canon> C = canon(E);
  if (C->Sys.isInconsistent())
    return Out;
  const std::vector<Term> &Columns = C->Cols.Columns;
  std::vector<LinRow<Rational>> Reps = C->Sys.varRepresentatives();
  // Group variable columns with identical representatives.
  std::map<LinRow<Rational>, Term, std::less<LinRow<Rational>>> Leader;
  for (size_t Col = 0; Col < Columns.size(); ++Col) {
    if (!Columns[Col]->isVariable())
      continue;
    auto [It, Inserted] = Leader.emplace(Reps[Col], Columns[Col]);
    if (!Inserted)
      Out.emplace_back(It->second, Columns[Col]);
  }
  return Out;
}

std::optional<Term>
AffineDomain::alternate(const Conjunction &E, Term Var,
                        const std::vector<Term> &Avoid) const {
  if (E.isBottom())
    return std::nullopt;
  assert(Var->isVariable() && "alternate target must be a variable");
  std::shared_ptr<const Canon> C = canon(E);
  const std::vector<Term> &Columns = C->Cols.Columns;
  auto VarIt = C->Cols.Index.find(Var);
  if (VarIt == C->Cols.Index.end() || C->Sys.isInconsistent())
    return std::nullopt;
  // A column is unusable if its term mentions Var or any avoided variable.
  std::vector<bool> Mask(Columns.size(), false);
  for (size_t Col = 0; Col < Columns.size(); ++Col) {
    if (Col == VarIt->second)
      continue;
    if (occursIn(Var, Columns[Col])) {
      Mask[Col] = true;
      continue;
    }
    for (Term V : Avoid)
      if (occursIn(V, Columns[Col])) {
        Mask[Col] = true;
        break;
      }
  }
  std::optional<LinRow<Rational>> Row = C->Sys.solveFor(VarIt->second, Mask);
  if (!Row)
    return std::nullopt;
  return termOf(*Row, Columns);
}

std::vector<std::pair<Term, Term>>
AffineDomain::alternateBatch(const Conjunction &E,
                             const std::vector<Term> &Targets) const {
  std::vector<std::pair<Term, Term>> Out;
  if (E.isBottom())
    return Out;
  std::shared_ptr<const Canon> C = canon(E);
  if (C->Sys.isInconsistent())
    return Out;
  const std::vector<Term> &Columns = C->Cols.Columns;
  // Target columns: the target variables themselves plus every opaque
  // column whose term mentions one (those may not appear in definitions).
  std::vector<bool> Mask(Columns.size(), false);
  bool AnyTarget = false;
  for (size_t Col = 0; Col < Columns.size(); ++Col)
    for (Term V : Targets)
      if (occursIn(V, Columns[Col])) {
        Mask[Col] = true;
        AnyTarget |= Columns[Col]->isVariable();
        break;
      }
  if (!AnyTarget)
    return Out;
  for (auto &[Col, Row] : C->Sys.solveForMany(Mask)) {
    if (!Columns[Col]->isVariable())
      continue; // Opaque columns are not QSaturation targets.
    Out.emplace_back(Columns[Col], termOf(Row, Columns));
  }
  return Out;
}
