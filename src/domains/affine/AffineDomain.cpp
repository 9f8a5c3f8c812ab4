//===- domains/affine/AffineDomain.cpp - Karr's affine equalities ----------===//

#include "domains/affine/AffineDomain.h"

#include "domains/affine/EqualityKit.h"

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
  // over-approximation).  Each row is written as soon as its atom's
  // columns exist, over the columns known so far; the constant then moves
  // to the end once the column count is final.
  std::vector<LinRow<Rational>> Rows;
  Rows.reserve(E.size());
  for (const Atom &A : E.atoms()) {
    auto Sides = linearSides(context(), A);
    if (!Sides)
      continue;
    for (const auto &[T, Coeff] : Sides->first.terms())
      C->Cols.add(T);
    for (const auto &[T, Coeff] : Sides->second.terms())
      C->Cols.add(T);
    bool Outside = false;
    Rows.push_back(equationRow(Sides->first, Sides->second, C->Cols, Outside));
    assert(!Outside && "equation over a term that is not a column");
  }
  const size_t N = C->Cols.Columns.size();
  for (LinRow<Rational> &Row : Rows) {
    if (Row.size() == N + 1)
      continue;
    Rational Constant = std::move(Row.back());
    Row.back() = Rational();
    Row.resize(N + 1);
    Row[N] = std::move(Constant);
  }
  C->Sys = AffineSystem<Rational>(N, std::move(Rows));
  C->Sys.isInconsistent(); // Canonicalize here, once.
  if (Memo)
    Recent.insert(E, C);
  return C;
}

Conjunction AffineDomain::fromSystem(const AffineSystem<Rational> &S,
                                     const std::vector<Term> &Columns) const {
  if (S.isInconsistent())
    return Conjunction::bottom();
  Conjunction::AtomList Atoms;
  Atoms.reserve(S.rows().size());
  for (const LinRow<Rational> &Row : S.rows())
    Atoms.push_back(
        eqAtom(context(), Row.data(), Row[Columns.size()], Columns));
  return Conjunction::of(std::move(Atoms));
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
  // Eliminate each variable column in Vars, and every opaque column whose
  // term mentions one of them.
  return fromSystem(C->Sys.project(columnsMentioning(C->Cols.Columns, Vars)),
                    C->Cols.Columns);
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
  bool Outside = false;
  LinRow<Rational> Row =
      equationRow(Sides->first, Sides->second, C->Cols, Outside);
  return !Outside && C->Sys.entails(std::move(Row));
}

bool AffineDomain::isUnsat(const Conjunction &E) const {
  return E.isBottom() || canon(E)->Sys.isInconsistent();
}

std::vector<std::pair<Term, Term>>
AffineDomain::impliedVarEqualities(const Conjunction &E) const {
  if (E.isBottom())
    return {};
  std::shared_ptr<const Canon> C = canon(E);
  if (C->Sys.isInconsistent())
    return {};
  return varEqualities(C->Sys, C->Cols.Columns);
}

std::optional<Term>
AffineDomain::alternate(const Conjunction &E, Term Var,
                        const std::vector<Term> &Avoid) const {
  if (E.isBottom())
    return std::nullopt;
  assert(Var->isVariable() && "alternate target must be a variable");
  std::shared_ptr<const Canon> C = canon(E);
  return alternateIn(context(), C->Cols, Var, Avoid, [&] {
    return C->Sys.isInconsistent() ? nullptr : &C->Sys;
  });
}

std::vector<std::pair<Term, Term>>
AffineDomain::alternateBatch(const Conjunction &E,
                             const std::vector<Term> &Targets) const {
  if (E.isBottom())
    return {};
  std::shared_ptr<const Canon> C = canon(E);
  return alternateBatchIn(context(), C->Cols.Columns, Targets, [&] {
    return C->Sys.isInconsistent() ? nullptr : &C->Sys;
  });
}
