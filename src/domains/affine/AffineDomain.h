//===- domains/affine/AffineDomain.h - Karr's affine equalities -*- C++ -*-===//
///
/// \file
/// The lattice of affine (linear) equalities between program variables --
/// Karr's domain [Karr 76], the paper's running "linear arithmetic with
/// only equality" logical lattice.  Join is the affine hull, existential
/// quantification is Gaussian elimination, VE_T is read off the canonical
/// rows, and Alternate_T solves the projected system.
///
/// Maximal non-arithmetic subterms are treated as opaque indeterminates,
/// which keeps the domain sound on impure input (and is exactly the
/// behaviour purification relies on being unnecessary for pure input).
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_AFFINE_AFFINEDOMAIN_H
#define CAI_DOMAINS_AFFINE_AFFINEDOMAIN_H

#include "linalg/AffineSystem.h"
#include "support/CanonList.h"
#include "term/ColumnSpace.h"
#include "term/LinearExpr.h"
#include "theory/LogicalLattice.h"

namespace cai {

/// The affine-equality (Karr) domain over the rationals.
class AffineDomain : public LogicalLattice {
public:
  explicit AffineDomain(TermContext &Ctx) : LogicalLattice(Ctx) {}

  std::string name() const override { return "affine"; }

  bool ownsFunction(Symbol) const override { return false; }
  bool ownsPredicate(Symbol) const override { return false; }
  bool ownsNumerals() const override { return true; }

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
  /// The affine hull commutes with linear projection, and widen is join.
  bool joinCommutesWithProjection() const override { return true; }

private:
  /// A conjunction's structured form: its column space (indeterminates in
  /// order of first occurrence) and its canonical system over it.
  struct Canon {
    Conjunction Key;
    ColumnSpace Cols;
    AffineSystem<Rational> Sys{0};
  };

  /// The structured form of the non-bottom \p E, built once and shared by
  /// every operator: the product asks unsat, VE, Alternate, entailment, Q
  /// and J of the same purified sides in turn.  Recent keeps the last
  /// eight forms (no list with memoization off).
  std::shared_ptr<const Canon> canon(const Conjunction &E) const;

  Conjunction fromSystem(const AffineSystem<Rational> &S,
                         const std::vector<Term> &Columns) const;

  mutable CanonList<Canon> Recent;
};

} // namespace cai

#endif // CAI_DOMAINS_AFFINE_AFFINEDOMAIN_H
