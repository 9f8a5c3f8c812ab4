//===- domains/parity/ParityDomain.cpp - The parity domain -----------------===//

#include "domains/parity/ParityDomain.h"

#include "domains/affine/EqualityKit.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace cai;

/// True if every coefficient and the constant are integers.
static bool isIntegral(const LinearExpr &L) {
  for (const auto &[Col, C] : L.terms())
    if (!C.isInteger())
      return false;
  return L.constant().isInteger();
}

static bool isOddInteger(const Rational &R) {
  assert(R.isInteger() && "parity row must be integral");
  return !(R.numerator() % BigInt(2)).isZero();
}

/// The GF(2) row of even(L), or of odd(L) when \p Odd, for an integral L:
/// with L = sum a_i x_i + c, even(L) is sum (a_i mod 2) x_i = c mod 2, and
/// odd flips the constant.
static LinRow<GF2> mod2Row(const LinearExpr &L, bool Odd,
                           const ColumnSpace &Cols) {
  size_t N = Cols.Columns.size();
  LinRow<GF2> Row(N + 1);
  for (const auto &[Col, C] : L.terms())
    Row[*Cols.Index.find(Col)] += GF2(isOddInteger(C));
  bool CBit = isOddInteger(L.constant());
  Row[N] = GF2(Odd ? !CBit : CBit);
  return Row;
}

/// The GF(2) shadow of the equation row \p Row over \p Columns: equal
/// integers differ by an even number, so with the row scaled to integral
/// coefficients of gcd 1 (integralScale, sign kept), each entry mod 2.
static LinRow<GF2> mod2Shadow(const LinRow<Rational> &Row,
                              const std::vector<Term> &Columns) {
  const size_t N = Columns.size();
  SmallVec<TermCoeff, 8> Entries = rowEntries(Row.data(), Columns);
  Rational Scale = integralScale(Entries.data(), Entries.size(), Row[N],
                                 /*NormalizeSign=*/false);
  LinRow<GF2> Out(N + 1);
  for (size_t C = 0; C <= N; ++C)
    if (!Row[C].isZero())
      Out[C] = GF2(isOddInteger(Row[C] * Scale));
  return Out;
}

void ParityDomain::addAtomIndeterminates(ColumnSpace &Cols,
                                         const Atom &A) const {
  const TermContext &Ctx = context();
  bool Relevant = A.predicate() == Ctx.eqSymbol() ||
                  A.predicate() == EvenPred || A.predicate() == OddPred;
  if (!Relevant)
    return;
  for (Term Side : A.args()) {
    std::optional<LinearExpr> L = LinearExpr::fromTerm(Ctx, Side);
    if (!L)
      return;
    for (const auto &[T, C] : L->terms())
      Cols.add(T);
  }
}

ColumnSpace
ParityDomain::buildCols(std::initializer_list<const Conjunction *> Es,
                        const Atom *Extra) const {
  ColumnSpace Out;
  for (const Conjunction *E : Es) {
    if (E->isBottom())
      continue;
    for (const Atom &A : E->atoms())
      addAtomIndeterminates(Out, A);
  }
  if (Extra)
    addAtomIndeterminates(Out, *Extra);
  return Out;
}

std::optional<LinearExpr>
ParityDomain::linearOf(Term T, const ColumnSpace &Cols) const {
  std::optional<LinearExpr> L = LinearExpr::fromTerm(context(), T);
  if (!L)
    return std::nullopt;
  for (const auto &[Col, C] : L->terms())
    if (!Cols.Index.find(Col))
      return std::nullopt;
  return L;
}

ParityDomain::State ParityDomain::toState(const Conjunction &E,
                                          const ColumnSpace &Cols) const {
  const TermContext &Ctx = context();
  size_t N = Cols.Columns.size();
  State S(N);
  if (E.isBottom()) {
    S.Exact = AffineSystem<Rational>::inconsistent(N);
    S.Mod2 = AffineSystem<GF2>::inconsistent(N);
    return S;
  }

  std::vector<LinRow<Rational>> Exact;
  std::vector<LinRow<GF2>> Mod2;
  Exact.reserve(E.size());
  Mod2.reserve(E.size());
  for (const Atom &A : E.atoms()) {
    if (A.predicate() == Ctx.eqSymbol()) {
      std::optional<LinearExpr> Lhs = linearOf(A.lhs(), Cols);
      std::optional<LinearExpr> Rhs = linearOf(A.rhs(), Cols);
      if (!Lhs || !Rhs)
        continue;
      bool Outside = false;
      Exact.push_back(equationRow(*Lhs, *Rhs, Cols, Outside));
      Mod2.push_back(mod2Shadow(Exact.back(), Cols.Columns));
      continue;
    }
    if (A.predicate() == EvenPred || A.predicate() == OddPred) {
      std::optional<LinearExpr> L = linearOf(A.args()[0], Cols);
      if (!L || !isIntegral(*L))
        continue; // Parity of a non-integral term is not modeled.
      Mod2.push_back(mod2Row(*L, A.predicate() == OddPred, Cols));
    }
  }
  S.Exact = AffineSystem<Rational>(N, std::move(Exact));
  S.Mod2 = AffineSystem<GF2>(N, std::move(Mod2));
  return S;
}

Conjunction ParityDomain::fromState(const State &S,
                                    const ColumnSpace &Cols) const {
  if (S.Exact.isInconsistent() || S.Mod2.isInconsistent())
    return Conjunction::bottom();
  TermContext &Ctx = context();
  const std::vector<Term> &Columns = Cols.Columns;
  Conjunction::AtomList Atoms;
  Atoms.reserve(S.Exact.rows().size() + S.Mod2.rows().size());
  for (const LinRow<Rational> &Row : S.Exact.rows())
    Atoms.push_back(eqAtom(Ctx, Row.data(), Row[Columns.size()], Columns));
  for (const LinRow<GF2> &Row : S.Mod2.rows()) {
    SmallVec<TermCoeff, 8> Entries;
    for (size_t C = 0; C < Columns.size(); ++C)
      if (Row[C].isOne())
        Entries.emplace_back(Columns[C], Rational(1));
    if (Entries.empty())
      continue; // 0 = 0 carries no information (inconsistency was checked).
    sortByTerm(Entries.begin(), Entries.end());
    Symbol Pred = Row[Columns.size()].isOne() ? OddPred : EvenPred;
    Atoms.push_back(Atom(
        Pred, {linearTerm(Ctx, Entries.data(), Entries.size(), Rational())}));
  }
  return Conjunction::of(std::move(Atoms));
}

Conjunction ParityDomain::join(const Conjunction &A,
                               const Conjunction &B) const {
  CAI_TRACE_SPAN("parity.join", "domain");
  CAI_METRIC_INC("domain.parity.joins");
  if (A.isBottom() || isUnsat(A))
    return B;
  if (B.isBottom() || isUnsat(B))
    return A;
  ColumnSpace Cols = buildCols({&A, &B});
  State SA = toState(A, Cols), SB = toState(B, Cols);
  State J(Cols.Columns.size());
  J.Exact = AffineSystem<Rational>::join(SA.Exact, SB.Exact);
  J.Mod2 = AffineSystem<GF2>::join(SA.Mod2, SB.Mod2);
  return fromState(J, Cols);
}

Conjunction ParityDomain::existQuant(const Conjunction &E,
                                     const std::vector<Term> &Vars) const {
  if (E.isBottom())
    return E;
  ColumnSpace Cols = buildCols({&E});
  State S = toState(E, Cols);
  std::vector<bool> Mask = columnsMentioning(Cols.Columns, Vars);
  State P(Cols.Columns.size());
  P.Exact = S.Exact.project(Mask);
  P.Mod2 = S.Mod2.project(Mask);
  return fromState(P, Cols);
}

bool ParityDomain::entails(const Conjunction &E, const Atom &A) const {
  const TermContext &Ctx = context();
  if (E.isBottom())
    return true;
  if (A.isTrivial(Ctx))
    return true;
  ColumnSpace Cols = buildCols({&E}, &A);
  State S = toState(E, Cols);
  if (S.Exact.isInconsistent() || S.Mod2.isInconsistent())
    return true;
  if (A.predicate() == Ctx.eqSymbol()) {
    std::optional<LinearExpr> Lhs = linearOf(A.lhs(), Cols);
    std::optional<LinearExpr> Rhs = linearOf(A.rhs(), Cols);
    if (!Lhs || !Rhs)
      return false;
    bool Outside = false;
    return S.Exact.entails(equationRow(*Lhs, *Rhs, Cols, Outside));
  }
  if (A.predicate() == EvenPred || A.predicate() == OddPred) {
    std::optional<LinearExpr> L = linearOf(A.args()[0], Cols);
    if (!L || !isIntegral(*L))
      return false;
    return S.Mod2.entails(mod2Row(*L, A.predicate() == OddPred, Cols));
  }
  return false;
}

bool ParityDomain::isUnsat(const Conjunction &E) const {
  if (E.isBottom())
    return true;
  ColumnSpace Cols = buildCols({&E});
  State S = toState(E, Cols);
  return S.Exact.isInconsistent() || S.Mod2.isInconsistent();
}

std::vector<std::pair<Term, Term>>
ParityDomain::impliedVarEqualities(const Conjunction &E) const {
  if (E.isBottom())
    return {};
  ColumnSpace Cols = buildCols({&E});
  State S = toState(E, Cols);
  if (S.Exact.isInconsistent())
    return {};
  return varEqualities(S.Exact, Cols.Columns);
}

std::optional<Term>
ParityDomain::alternate(const Conjunction &E, Term Var,
                        const std::vector<Term> &Avoid) const {
  if (E.isBottom())
    return std::nullopt;
  ColumnSpace Cols = buildCols({&E});
  State S(0);
  return alternateIn(context(), Cols, Var, Avoid, [&] {
    S = toState(E, Cols);
    return S.Exact.isInconsistent() ? nullptr : &S.Exact;
  });
}

std::vector<std::pair<Term, Term>>
ParityDomain::alternateBatch(const Conjunction &E,
                             const std::vector<Term> &Targets) const {
  if (E.isBottom())
    return {};
  ColumnSpace Cols = buildCols({&E});
  State S(0);
  return alternateBatchIn(context(), Cols.Columns, Targets, [&] {
    S = toState(E, Cols);
    return S.Exact.isInconsistent() ? nullptr : &S.Exact;
  });
}
