//===- domains/poly/Polyhedron.h - Constraint-form polyhedra ----*- C++ -*-===//
///
/// \file
/// Convex polyhedra in constraint form over dense column indices:
/// Fourier-Motzkin projection, convex hull of two polyhedra (via the
/// lifted lambda-combination projected back down), implicit-equality
/// detection (the affine hull), entailment and redundancy removal through
/// the exact simplex.  The PolyDomain wraps this with the term <-> column
/// mapping.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_POLY_POLYHEDRON_H
#define CAI_DOMAINS_POLY_POLYHEDRON_H

#include "domains/poly/Simplex.h"
#include "linalg/AffineSystem.h"

namespace cai {

/// Row-count cap for derived constraint systems: when Fourier-Motzkin
/// projection grows an intermediate system past the cap, the weakest
/// excess rows are havocked (dropped), which soundly over-approximates
/// the projection.  This is the termination backstop behind
/// `cai-analyze --poly-max-rows`; 0 disables the cap.  Metric-counted as
/// poly.havoc.events / poly.havoc.rows_dropped.
size_t polyRowCap();
void setPolyRowCap(size_t Cap);

/// The built-in default cap (also what --poly-max-rows=0 documents as
/// "unlimited" deviates from).
constexpr size_t DefaultPolyRowCap = 2048;

/// A polyhedron {x : C x <= d} over a fixed number of columns.
class Polyhedron {
public:
  explicit Polyhedron(size_t NumVars) : NumVars(NumVars) {}

  size_t numVars() const { return NumVars; }
  const std::vector<LinearConstraint> &constraints() const { return Rows; }

  /// True when this polyhedron is known to have no row entailed by the
  /// others: it came out of minimized(), or of project() or hull(), which
  /// end with it.  Adding a row clears the mark.
  bool isMinimal() const { return Minimal; }

  /// Adds Coeffs . x <= Rhs.
  void addLe(CoeffVec Coeffs, Rational Rhs);
  /// Adds Coeffs . x = Rhs (two inequalities).
  void addEq(const CoeffVec &Coeffs, const Rational &Rhs);

  bool isEmpty() const;

  /// Existentially quantifies the columns marked true (Fourier-Motzkin,
  /// equality substitution first, light redundancy pruning).
  Polyhedron project(const std::vector<bool> &Eliminate) const;

  /// Convex hull (topological closure) of the union.  Either operand may
  /// be empty, in which case the other is returned.
  static Polyhedron hull(const Polyhedron &A, const Polyhedron &B);
  /// hull() for operands the caller knows to be nonempty: no LP checks
  /// them again.
  static Polyhedron hullOfNonEmpty(const Polyhedron &A, const Polyhedron &B);

  /// The same rows over \p NewNumVars columns, column C becoming column
  /// \p NewCol[C]; the other columns are unconstrained.
  Polyhedron embed(const std::vector<size_t> &NewCol, size_t NewNumVars) const;

  /// All implied equalities as rows (Coeffs, Rhs): the explicit ones plus
  /// every inequality that holds with equality on the whole polyhedron, in
  /// row order.  \p Solver must be pinned to this polyhedron's rows.  A
  /// row whose exact negation is also a row needs no LP, and every optimum
  /// an LP returns is a point of the polyhedron, which rules out each row
  /// it satisfies strictly.  Undefined on empty polyhedra (callers check
  /// emptiness first).
  std::vector<LinearConstraint> affineHull(SimplexSolver &Solver) const;
  /// The affine hull as a canonical system of equations.
  AffineSystem<Rational> equalities(SimplexSolver &Solver) const;

  /// Removes constraints entailed by the remaining ones (up to one LP per
  /// row; used to keep canonical output small).  A polyhedron marked
  /// minimal comes back as it is.
  Polyhedron minimized() const;

  /// The CH78 widening of two nonempty polyhedra: the constraints of this
  /// one that \p Newer still entails, and the equalities valid on both.
  /// \p OwnHull and \p NewerHull are the operands' affine hulls.
  Polyhedron widen(const Polyhedron &Newer,
                   const AffineSystem<Rational> &OwnHull,
                   const AffineSystem<Rational> &NewerHull) const;

private:
  /// Divides each row by the gcd of its coefficients (keeps FM growth in
  /// check) and drops trivial rows; returns false if a trivially
  /// unsatisfiable row (0 <= negative) was found.
  bool normalizeRow(LinearConstraint &C) const;

  /// A working row of project(): the constraint plus the set of source
  /// rows it was derived from (bit I = row I of the system Kohler
  /// tracking last started from), the input to Kohler's redundancy
  /// criterion in the Fourier-Motzkin loop.
  struct TrackedRow {
    LinearConstraint C;
    uint64_t Hist = 0;
  };

  /// If \p Work contains an equality pair (a row and its exact negation)
  /// with a nonzero coefficient at \p Col, eliminates the column exactly
  /// by Gaussian substitution -- no Fourier-Motzkin row growth -- and
  /// returns true.  This is the path that keeps the lifted convex-hull
  /// systems (mostly equality pairs) from exploding.  Histories are left
  /// stale; project() resets Kohler tracking after every substitution.
  bool eliminateByEquality(std::vector<TrackedRow> &Work, size_t Col) const;

  size_t NumVars;
  std::vector<LinearConstraint> Rows;
  bool Minimal = false;
};

} // namespace cai

#endif // CAI_DOMAINS_POLY_POLYHEDRON_H
