//===- domains/parity/ParityDomain.h - The parity domain --------*- C++ -*-===//
///
/// \file
/// The logical lattice over the paper's "theory of parity" (Section 2):
/// signature {=, even, odd, +, -, 0, 1}.  An element is a conjunction of
/// linear equalities plus even/odd facts about linear terms.  Internally
/// this is two affine systems sharing one column space: one over the
/// rationals (the equalities) and one over GF(2) (the congruences mod 2,
/// Granger-style), with every equality also shadowed into the GF(2) system.
/// Join, projection and entailment are the generic AffineSystem operations
/// applied to both layers.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_PARITY_PARITYDOMAIN_H
#define CAI_DOMAINS_PARITY_PARITYDOMAIN_H

#include "linalg/AffineSystem.h"
#include "support/GF2.h"
#include "term/ColumnSpace.h"
#include "term/LinearExpr.h"
#include "theory/LogicalLattice.h"

namespace cai {

/// The parity (even/odd + linear equalities) domain.
class ParityDomain : public LogicalLattice {
public:
  explicit ParityDomain(TermContext &Ctx)
      : LogicalLattice(Ctx), EvenPred(Ctx.getPredicate("even", 1)),
        OddPred(Ctx.getPredicate("odd", 1)) {}

  std::string name() const override { return "parity"; }

  bool ownsFunction(Symbol) const override { return false; }
  bool ownsPredicate(Symbol S) const override {
    return S == EvenPred || S == OddPred;
  }
  bool ownsNumerals() const override { return true; }

  Symbol evenPred() const { return EvenPred; }
  Symbol oddPred() const { return OddPred; }

  Conjunction join(const Conjunction &A, const Conjunction &B) const override;
  Conjunction existQuant(const Conjunction &E,
                         const std::vector<Term> &Vars) const override;
  bool entails(const Conjunction &E, const Atom &A) const override;
  bool isUnsat(const Conjunction &E) const override;
  std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const override;
  std::optional<Term> alternate(const Conjunction &E, Term Var,
                                const std::vector<Term> &Avoid) const override;
  std::vector<std::pair<Term, Term>>
  alternateBatch(const Conjunction &E,
                 const std::vector<Term> &Targets) const override;

private:
  /// Both layers over one column space.
  struct State {
    AffineSystem<Rational> Exact;
    AffineSystem<GF2> Mod2;
    State(size_t N) : Exact(N), Mod2(N) {}
  };

  ColumnSpace buildCols(std::initializer_list<const Conjunction *> Es,
                        const Atom *Extra = nullptr) const;
  void addAtomIndeterminates(ColumnSpace &Cols, const Atom &A) const;
  State toState(const Conjunction &E, const ColumnSpace &Cols) const;
  Conjunction fromState(const State &S, const ColumnSpace &Cols) const;
  /// Linear view of an atom argument over Cols; nullopt when not linear
  /// or containing unknown columns.
  std::optional<LinearExpr> linearOf(Term T, const ColumnSpace &Cols) const;

  Symbol EvenPred, OddPred;
};

} // namespace cai

#endif // CAI_DOMAINS_PARITY_PARITYDOMAIN_H
