//===- domains/poly/Simplex.h - Exact rational LP ----------------*- C++ -*-===//
///
/// \file
/// A two-phase primal simplex over exact rationals with Bland's rule
/// (guaranteed termination), for free variables and <= constraints.  This
/// is the decision procedure behind the polyhedra domain: satisfiability,
/// entailment of inequalities, and implicit-equality detection all reduce
/// to optimization calls.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_POLY_SIMPLEX_H
#define CAI_DOMAINS_POLY_SIMPLEX_H

#include "support/Rational.h"
#include "support/SmallVec.h"

#include <memory>
#include <vector>

namespace cai {

/// Coefficient row of a constraint: one Rational per variable.  The
/// analyzed programs rarely scope more than a few numeric variables, so
/// four coefficients live inline; Fourier-Motzkin combination and simplex
/// row operations then run without touching the allocator (DESIGN.md,
/// "Three-tier exact arithmetic and small-vector rows").
using CoeffVec = SmallVec<Rational, 4>;

/// Outcome of an LP solve.
enum class LPStatus : uint8_t {
  Optimal,    ///< Bounded optimum found.
  Unbounded,  ///< Feasible but the objective is unbounded above.
  Infeasible, ///< No point satisfies the constraints.
};

/// Result of maximizing an objective over a polyhedron.
struct LPResult {
  LPStatus Status;
  Rational Value;              ///< Optimal objective value (when Optimal).
  std::vector<Rational> Point; ///< A maximizing point (when Optimal).
};

/// One linear constraint: Coeffs . x <= Rhs over free rational variables.
struct LinearConstraint {
  CoeffVec Coeffs;
  Rational Rhs;

  bool operator==(const LinearConstraint &RHS) const {
    return Rhs == RHS.Rhs && Coeffs == RHS.Coeffs;
  }
  bool operator!=(const LinearConstraint &RHS) const {
    return !(*this == RHS);
  }
  /// True if \p RHS is this row's exact negation: the two halves of the
  /// equality Coeffs . x = Rhs.
  bool negates(const LinearConstraint &RHS) const {
    if (Rhs != -RHS.Rhs)
      return false;
    for (size_t I = 0; I < Coeffs.size(); ++I)
      if (Coeffs[I] != -RHS.Coeffs[I])
        return false;
    return true;
  }
};

/// -Coeffs.
inline CoeffVec negated(const CoeffVec &Coeffs) {
  CoeffVec Neg(Coeffs.size());
  for (size_t I = 0; I < Coeffs.size(); ++I)
    Neg[I] = -Coeffs[I];
  return Neg;
}

/// Maximizes Objective . x subject to the constraints (all variables free).
/// \p NumVars fixes the dimension; every constraint and the objective must
/// have exactly that many coefficients.
LPResult maximize(const std::vector<LinearConstraint> &Constraints,
                  const CoeffVec &Objective, size_t NumVars);

/// Is the constraint system satisfiable?  Phase 1 only.
bool isFeasible(const std::vector<LinearConstraint> &Constraints,
                size_t NumVars);

/// Does \p R, the maximum of some objective, show that the objective never
/// exceeds \p Bound?  An infeasible system bounds every objective.
inline bool boundedBy(const LPResult &R, const Rational &Bound) {
  return R.Status == LPStatus::Infeasible ||
         (R.Status == LPStatus::Optimal && R.Value <= Bound);
}

/// A simplex instance pinned to one constraint system, for call sites that
/// ask it several questions (the affine hull asks one LP per row, the CH78
/// widening one entailment per kept constraint, and the polyhedra domain
/// every question about one conjunction).  Phase 1 runs once, on the first
/// question; every later maximize re-enters phase 2 from the previous basis
/// (objective changes never disturb primal feasibility), so N objectives
/// pay N phase-2 re-optimizations instead of N full two-phase solves.
/// Results are identical to cai::maximize on the same system -- the poly
/// fuzzer's warm-start oracle asserts this.
class SimplexSolver {
public:
  SimplexSolver(std::vector<LinearConstraint> Constraints, size_t NumVars);
  ~SimplexSolver();
  SimplexSolver(SimplexSolver &&) noexcept;
  SimplexSolver &operator=(SimplexSolver &&) noexcept;

  /// Is the pinned system satisfiable?
  bool feasible();

  /// Maximizes \p Objective over the pinned system, warm-starting from the
  /// previous solve's basis.
  LPResult maximize(const CoeffVec &Objective);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace cai

#endif // CAI_DOMAINS_POLY_SIMPLEX_H
