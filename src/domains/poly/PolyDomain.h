//===- domains/poly/PolyDomain.h - Linear-inequality domain -----*- C++ -*-===//
///
/// \file
/// The logical lattice over the full theory of linear arithmetic
/// (signature {=, <=, +, -, 0, 1}): convex polyhedra in constraint form,
/// the domain of Cousot-Halbwachs.  Join is the convex hull, existential
/// quantification is Fourier-Motzkin, entailment is an exact-simplex LP,
/// and VE_T / Alternate_T go through the affine hull (implicit equalities)
/// and Gaussian elimination -- exactly the recipe Section 4.2 sketches.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_POLY_POLYDOMAIN_H
#define CAI_DOMAINS_POLY_POLYDOMAIN_H

#include "domains/poly/Polyhedron.h"
#include "support/CanonList.h"
#include "term/ColumnSpace.h"
#include "term/LinearExpr.h"
#include "theory/LogicalLattice.h"

#include <optional>

namespace cai {

/// The convex-polyhedra domain over linear arithmetic with inequalities.
class PolyDomain : public LogicalLattice {
public:
  explicit PolyDomain(TermContext &Ctx) : LogicalLattice(Ctx) {}

  std::string name() const override { return "poly"; }

  bool ownsFunction(Symbol) const override { return false; }
  bool ownsPredicate(Symbol S) const override {
    return S == context().leSymbol();
  }
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
  Conjunction widen(const Conjunction &Old,
                    const Conjunction &New) const override;

private:
  /// A conjunction's structured form: its column space (indeterminates in
  /// order of first occurrence), its polyhedron over it, and, built on
  /// first use, one simplex pinned to those rows and the affine hull.
  struct Canon {
    Conjunction Key;
    ColumnSpace Cols;
    Polyhedron Poly{0};
    mutable std::optional<SimplexSolver> Solver;
    mutable std::optional<AffineSystem<Rational>> Eqs;

    SimplexSolver &solver() const;
    bool empty() const { return !solver().feasible(); }
    /// The affine hull as a canonical system; the polyhedron must be
    /// nonempty.
    const AffineSystem<Rational> &equalities() const;
    /// Does E entail \p R, a row over its columns (an equation when
    /// \p IsEq)?  One LP, two for an equation.
    bool entails(const LinearConstraint &R, bool IsEq) const;
  };

  /// The structured form of the non-bottom \p E, built once and shared by
  /// every operator: the product asks unsat, VE, Alternate, entailment, Q
  /// and J of the same purified sides in turn, so they pay one phase 1
  /// between them.  Recent keeps the last eight forms (no list with
  /// memoization off).
  std::shared_ptr<const Canon> canon(const Conjunction &E) const;

  /// Canonical output: the affine hull as equalities, then the irredundant
  /// inequalities.
  Conjunction fromPoly(const Polyhedron &P,
                       const std::vector<Term> &Columns) const;
  /// Emits \p P's rows verbatim (equality pairs as one equality atom), with
  /// no redundancy elimination.  Widening results go through this: the CH78
  /// operator keeps syntactic rows of the older operand, so canonicalizing
  /// a widened state can discard the very faces (for example 0 <= x made
  /// redundant by a transient equality) that the next widening round needs
  /// to see to keep them stable.  \p P must be nonempty.
  Conjunction fromRowsVerbatim(const Polyhedron &P,
                               const std::vector<Term> &Columns) const;
  /// Lhs - Rhs <= 0 as a row over \p Space; sets \p Outside if a term
  /// of the difference is not a column.
  static LinearConstraint rowOf(const LinearExpr &Lhs, const LinearExpr &Rhs,
                                const ColumnSpace &Space, bool &Outside);

  mutable CanonList<Canon> Recent;
};

} // namespace cai

#endif // CAI_DOMAINS_POLY_POLYDOMAIN_H
