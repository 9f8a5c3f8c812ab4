//===- domains/poly/PolyDomain.cpp - Linear-inequality domain --------------===//

#include "domains/poly/PolyDomain.h"

#include "domains/affine/EqualityKit.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>

using namespace cai;

LinearConstraint PolyDomain::rowOf(const LinearExpr &Lhs,
                                   const LinearExpr &Rhs,
                                   const ColumnSpace &Space, bool &Outside) {
  LinearConstraint R{CoeffVec(Space.Columns.size()), Rational()};
  R.Rhs = addDifference(Lhs, Rhs, Space, R.Coeffs.data(), Outside);
  return R;
}

SimplexSolver &PolyDomain::Canon::solver() const {
  if (!Solver)
    Solver.emplace(Poly.constraints(), Poly.numVars());
  return *Solver;
}

const AffineSystem<Rational> &PolyDomain::Canon::equalities() const {
  if (!Eqs)
    Eqs.emplace(Poly.equalities(solver()));
  return *Eqs;
}

bool PolyDomain::Canon::entails(const LinearConstraint &R, bool IsEq) const {
  if (!boundedBy(solver().maximize(R.Coeffs), R.Rhs))
    return false;
  return !IsEq || boundedBy(solver().maximize(negated(R.Coeffs)), -R.Rhs);
}

std::shared_ptr<const PolyDomain::Canon>
PolyDomain::canon(const Conjunction &E) const {
  assert(!E.isBottom() && "no structured form for bottom");
  const bool Memo = memoizationEnabled();
  if (Memo) {
    if (std::shared_ptr<const Canon> Hit = Recent.lookup(E)) {
      CAI_METRIC_INC("domain.poly.canon_hits");
      return Hit;
    }
  }
  CAI_METRIC_INC("domain.poly.canon_misses");
  const TermContext &Ctx = context();
  auto C = std::make_shared<Canon>();
  // Columns in order of first occurrence, left side before right side.
  // Atoms that are not linear (in)equalities are dropped (a sound
  // over-approximation), but a linear left side still contributes its
  // columns when the right side is not linear.  Each row is written as
  // soon as its atom's columns exist and widened once the column count is
  // final.
  std::vector<std::pair<LinearConstraint, bool>> Rows;
  Rows.reserve(E.size());
  for (const Atom &A : E.atoms()) {
    bool IsEq = A.isEq(Ctx);
    if (!IsEq && !A.isLe(Ctx))
      continue;
    std::optional<LinearExpr> Lhs = LinearExpr::fromTerm(Ctx, A.lhs());
    if (!Lhs)
      continue;
    for (const auto &[T, Coeff] : Lhs->terms())
      C->Cols.add(T);
    std::optional<LinearExpr> Rhs = LinearExpr::fromTerm(Ctx, A.rhs());
    if (!Rhs)
      continue;
    for (const auto &[T, Coeff] : Rhs->terms())
      C->Cols.add(T);
    bool Outside = false;
    Rows.emplace_back(rowOf(*Lhs, *Rhs, C->Cols, Outside), IsEq);
    assert(!Outside && "constraint over a term that is not a column");
  }
  const size_t N = C->Cols.Columns.size();
  C->Poly = Polyhedron(N);
  for (auto &[R, IsEq] : Rows) {
    R.Coeffs.resize(N);
    if (IsEq)
      C->Poly.addEq(R.Coeffs, R.Rhs);
    else
      C->Poly.addLe(std::move(R.Coeffs), std::move(R.Rhs));
  }
  if (Memo)
    Recent.insert(E, C);
  return C;
}

Conjunction PolyDomain::fromPoly(const Polyhedron &P,
                                 const std::vector<Term> &Columns) const {
  SimplexSolver Solver(P.constraints(), P.numVars());
  if (!Solver.feasible())
    return Conjunction::bottom();
  std::vector<LinearConstraint> HullRows = P.affineHull(Solver);
  TermContext &Ctx = context();
  // Emit the affine hull as equalities, then the irredundant inequalities
  // that are not already implied equalities.  Both halves of an equality
  // pair are tight, so the hull lists each equality twice with opposite
  // signs; keep one representative per direction.
  std::vector<LinearConstraint> Eqs;
  for (LinearConstraint &C : HullRows)
    if (std::none_of(Eqs.begin(), Eqs.end(), [&](const LinearConstraint &E) {
          return E.negates(C);
        }))
      Eqs.push_back(std::move(C));
  Conjunction::AtomList Atoms;
  Atoms.reserve(Eqs.size());
  for (const LinearConstraint &C : Eqs)
    Atoms.push_back(eqAtom(Ctx, C.Coeffs.data(), C.Rhs, Columns));
  // A projection or hull comes out minimal and is not minimized again.
  Polyhedron Min = P.minimized();
  Atoms.reserve(Atoms.size() + Min.constraints().size());
  for (const LinearConstraint &C : Min.constraints())
    if (std::none_of(Eqs.begin(), Eqs.end(), [&](const LinearConstraint &E) {
          return E == C || E.negates(C);
        }))
      Atoms.push_back(leAtom(Ctx, C.Coeffs.data(), C.Rhs, Columns));
  return Conjunction::of(std::move(Atoms));
}

Conjunction
PolyDomain::fromRowsVerbatim(const Polyhedron &P,
                             const std::vector<Term> &Columns) const {
  TermContext &Ctx = context();
  const std::vector<LinearConstraint> &Rows = P.constraints();
  Conjunction::AtomList Atoms;
  Atoms.reserve(Rows.size());
  std::vector<bool> Consumed(Rows.size(), false);
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (Consumed[I])
      continue;
    size_t Mirror = Rows.size();
    for (size_t J = I + 1; J < Rows.size() && Mirror == Rows.size(); ++J)
      if (!Consumed[J] && Rows[I].negates(Rows[J]))
        Mirror = J;
    if (Mirror != Rows.size()) {
      Consumed[Mirror] = true;
      Atoms.push_back(eqAtom(Ctx, Rows[I].Coeffs.data(), Rows[I].Rhs, Columns));
      continue;
    }
    Atoms.push_back(leAtom(Ctx, Rows[I].Coeffs.data(), Rows[I].Rhs, Columns));
  }
  return Conjunction::of(std::move(Atoms));
}

Conjunction PolyDomain::join(const Conjunction &A, const Conjunction &B) const {
  CAI_TRACE_SPAN("poly.join", "domain");
  CAI_METRIC_INC("domain.poly.joins");
  if (A.isBottom())
    return B;
  std::shared_ptr<const Canon> CA = canon(A);
  if (CA->empty())
    return B;
  if (B.isBottom())
    return A;
  std::shared_ptr<const Canon> CB = canon(B);
  if (CB->empty())
    return A;
  ColumnUnion U = uniteColumns(CA->Cols, CB->Cols);
  const size_t N = U.Columns.size();
  return fromPoly(Polyhedron::hullOfNonEmpty(CA->Poly.embed(U.ACol, N),
                                             CB->Poly.embed(U.BCol, N)),
                  U.Columns);
}

Conjunction PolyDomain::existQuant(const Conjunction &E,
                                   const std::vector<Term> &Vars) const {
  if (E.isBottom())
    return E;
  std::shared_ptr<const Canon> C = canon(E);
  return fromPoly(C->Poly.project(columnsMentioning(C->Cols.Columns, Vars)),
                  C->Cols.Columns);
}

bool PolyDomain::entails(const Conjunction &E, const Atom &A) const {
  if (E.isBottom())
    return true;
  if (A.isTrivial(context()))
    return true;
  const TermContext &Ctx = context();
  bool IsEq = A.isEq(Ctx);
  if (!IsEq && !A.isLe(Ctx))
    return false;
  std::optional<LinearExpr> Lhs = LinearExpr::fromTerm(Ctx, A.lhs());
  std::optional<LinearExpr> Rhs = LinearExpr::fromTerm(Ctx, A.rhs());
  if (!Lhs || !Rhs)
    return false;
  std::shared_ptr<const Canon> C = canon(E);
  bool Outside = false;
  LinearConstraint R = rowOf(*Lhs, *Rhs, C->Cols, Outside);
  // A term outside E's columns is unconstrained, so only an empty E
  // bounds a row that still mentions one.
  return Outside ? C->empty() : C->entails(R, IsEq);
}

bool PolyDomain::isUnsat(const Conjunction &E) const {
  return E.isBottom() || canon(E)->empty();
}

std::vector<std::pair<Term, Term>>
PolyDomain::impliedVarEqualities(const Conjunction &E) const {
  if (E.isBottom())
    return {};
  std::shared_ptr<const Canon> C = canon(E);
  if (C->empty())
    return {};
  return varEqualities(C->equalities(), C->Cols.Columns);
}

std::optional<Term>
PolyDomain::alternate(const Conjunction &E, Term Var,
                      const std::vector<Term> &Avoid) const {
  if (E.isBottom())
    return std::nullopt;
  std::shared_ptr<const Canon> C = canon(E);
  return alternateIn(context(), C->Cols, Var, Avoid, [&] {
    return C->empty() ? nullptr : &C->equalities();
  });
}

std::vector<std::pair<Term, Term>>
PolyDomain::alternateBatch(const Conjunction &E,
                           const std::vector<Term> &Targets) const {
  if (E.isBottom())
    return {};
  std::shared_ptr<const Canon> C = canon(E);
  return alternateBatchIn(context(), C->Cols.Columns, Targets, [&] {
    return C->empty() ? nullptr : &C->equalities();
  });
}

Conjunction PolyDomain::widen(const Conjunction &Old,
                              const Conjunction &New) const {
  CAI_TRACE_SPAN("poly.widen", "domain");
  CAI_METRIC_INC("domain.poly.widenings");
  if (Old.isBottom())
    return New;
  if (New.isBottom())
    return Old;
  std::shared_ptr<const Canon> CO = canon(Old), CN = canon(New);
  ColumnUnion U = uniteColumns(CO->Cols, CN->Cols);
  const size_t N = U.Columns.size();
  Polyhedron PO = CO->Poly.embed(U.ACol, N), PN = CN->Poly.embed(U.BCol, N);
  // The widening contains its old operand, so it is empty only when both
  // operands are.
  if (CO->empty())
    return CN->empty() ? Conjunction::bottom()
                       : fromRowsVerbatim(PN, U.Columns);
  if (CN->empty())
    return fromRowsVerbatim(PO, U.Columns);
  return fromRowsVerbatim(PO.widen(PN, CO->equalities().embed(U.ACol, N),
                                   CN->equalities().embed(U.BCol, N)),
                          U.Columns);
}
