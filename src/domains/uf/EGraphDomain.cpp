//===- domains/uf/EGraphDomain.cpp - Operators over an E-graph -------------===//

#include "domains/uf/EGraphDomain.h"

#include "obs/Trace.h"

#include "domains/uf/UFJoin.h"

#include <algorithm>

using namespace cai;

CongruenceClosure EGraphDomain::closureOf(const Conjunction &E,
                                          bool WithVars) const {
  CongruenceClosure CC(context());
  CC.addConjunction(E);
  if (WithVars || HasRules)
    for (Term V : E.vars())
      CC.addTerm(V);
  if (HasRules) {
    materialize(CC);
    applyRules(CC);
  }
  return CC;
}

Conjunction EGraphDomain::join(const Conjunction &A,
                               const Conjunction &B) const {
  CAI_TRACE_SPAN(JoinSpan, "domain");
  countJoin();
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  CongruenceClosure CC1 = closureOf(A);
  CongruenceClosure CC2 = closureOf(B);
  std::vector<Term> Shared = A.vars();
  for (Term V : B.vars())
    Shared.push_back(V);
  std::sort(Shared.begin(), Shared.end(), TermStructLess());
  Shared.erase(std::unique(Shared.begin(), Shared.end()), Shared.end());
  return ufJoinClosed(context(), CC1, CC2, Shared);
}

Conjunction EGraphDomain::existQuant(const Conjunction &E,
                                     const std::vector<Term> &Vars) const {
  if (E.isBottom())
    return E;
  // Make sure every surviving variable is present so var = var facts are
  // never lost just because a variable only occurred inside a killed term.
  CongruenceClosure CC = closureOf(E, /*WithVars=*/true);
  return ufProjectClosed(context(), CC, Vars);
}

bool EGraphDomain::entails(const Conjunction &E, const Atom &A) const {
  if (E.isBottom())
    return true;
  if (A.isTrivial(context()))
    return true;
  if (A.predicate() != context().eqSymbol())
    return false;
  CongruenceClosure CC = closureOf(E);
  if (HasRules) {
    // New terms can enable new rule instances (car(cons(a, b)) or a hit
    // read appearing only in the query), so re-run the rules first.
    CC.addTerm(A.lhs());
    CC.addTerm(A.rhs());
    applyRules(CC);
  }
  return CC.areEqual(A.lhs(), A.rhs());
}

std::vector<std::pair<Term, Term>>
EGraphDomain::impliedVarEqualities(const Conjunction &E) const {
  std::vector<std::pair<Term, Term>> Out;
  if (E.isBottom())
    return Out;
  CongruenceClosure CC = closureOf(E);
  for (const std::vector<unsigned> &Class : CC.allClasses()) {
    Term Leader = nullptr;
    for (unsigned N : Class) {
      Term T = CC.termOf(N);
      if (!T->isVariable())
        continue;
      if (!Leader)
        Leader = T;
      else
        Out.emplace_back(Leader, T);
    }
  }
  return Out;
}

std::optional<Term>
EGraphDomain::alternate(const Conjunction &E, Term Var,
                        const std::vector<Term> &Avoid) const {
  if (E.isBottom())
    return std::nullopt;
  CongruenceClosure CC = closureOf(E);
  return ufAlternateClosed(context(), CC, Var, Avoid);
}

std::vector<std::pair<Term, Term>>
EGraphDomain::alternateBatch(const Conjunction &E,
                             const std::vector<Term> &Targets) const {
  if (E.isBottom())
    return {};
  CongruenceClosure CC = closureOf(E);
  return ufAlternateBatchClosed(context(), CC, Targets);
}

Conjunction EGraphDomain::widen(const Conjunction &Old,
                                const Conjunction &New) const {
  Conjunction Joined = join(Old, New);
  if (Joined.isBottom())
    return Joined;
  // Drop equalities over terms deeper than the cap; the remaining chain is
  // finite, so widening terminates even for loops like x := F(x).
  return Joined.filter([&](const Atom &A) {
    for (Term Arg : A.args())
      if (termDepth(Arg) > WidenDepthCap)
        return false;
    return true;
  });
}
