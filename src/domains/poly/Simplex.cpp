//===- domains/poly/Simplex.cpp - Exact rational LP ------------------------===//
///
/// Implementation notes.  Free variables are split x = u - v with
/// u, v >= 0; slacks turn A y <= b into equalities.  Phase 1 uses the
/// single-artificial-variable construction (Chvatal): maximize -x0 over
/// A y - x0 <= b, entering x0 against the most-negative right-hand side
/// makes the dictionary feasible immediately.  Bland's smallest-index rule
/// everywhere prevents cycling; with exact rationals this is a decision
/// procedure, not a numeric heuristic.
///
//===----------------------------------------------------------------------===//

#include "domains/poly/Simplex.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cassert>
#include <optional>

using namespace cai;

namespace {

/// Tableau row: structural u/v pairs, slacks, artificial, rhs.  Simplex
/// tableaux for the analyzed systems are narrow; eight inline entries keep
/// small solves allocation-free and cost nothing when a wide row spills.
using TabRow = SmallVec<Rational, 8>;

/// Dense simplex tableau.
///
/// Column layout: [structural u/v pairs | slacks | artificial?][rhs].
/// Row i has basic variable Basis[i] with value T[i][Cols-1].
class Tableau {
public:
  Tableau(const std::vector<LinearConstraint> &Constraints, size_t NumVars,
          bool WithArtificial)
      : NumStructural(2 * NumVars), NumSlack(Constraints.size()),
        HasArtificial(WithArtificial) {
    size_t Rows = Constraints.size();
    Cols = NumStructural + NumSlack + (HasArtificial ? 1 : 0) + 1;
    // resize-in-place rather than assign(Rows, TabRow(Cols)): a prototype
    // row would be copy-constructed once per row, and those copies showed
    // up as a double-digit share of uncached solves under gprof.
    T.resize(Rows);
    for (TabRow &R : T)
      R.resize(Cols);
    Basis.resize(Rows);
    for (size_t I = 0; I < Rows; ++I) {
      const LinearConstraint &C = Constraints[I];
      assert(C.Coeffs.size() == NumVars && "constraint dimension mismatch");
      for (size_t V = 0; V < NumVars; ++V) {
        T[I][2 * V] = C.Coeffs[V];      // u part.
        T[I][2 * V + 1] = -C.Coeffs[V]; // v part.
      }
      T[I][NumStructural + I] = Rational(1); // Slack.
      if (HasArtificial)
        T[I][artificialCol()] = Rational(-1);
      T[I][Cols - 1] = C.Rhs;
      Basis[I] = NumStructural + I;
    }
    Objective.assign(Cols, Rational());
  }

  size_t artificialCol() const { return NumStructural + NumSlack; }
  size_t rhsCol() const { return Cols - 1; }
  size_t rows() const { return T.size(); }

  /// Dst -= Factor * Src elementwise, skipping zero source entries (a
  /// zero contributes nothing) and the multiply when Factor is +-1.
  void subtractScaled(TabRow &Dst, const Rational &Factor,
                      const TabRow &Src) const {
    bool Unit = Factor.isOne();
    for (size_t J = 0; J < Cols; ++J) {
      const Rational &S = Src[J];
      if (S.isZero())
        continue;
      if (Unit)
        Dst[J] -= S;
      else
        Dst[J] -= Factor * S;
    }
  }

  /// Sets the objective to maximize sum Obj[v] * x_v over the original free
  /// variables, rewritten over the current basis.
  void setObjective(const CoeffVec &Obj) {
    Objective.assign(Cols, Rational());
    for (size_t V = 0; V < Obj.size(); ++V) {
      Objective[2 * V] = Obj[V];
      Objective[2 * V + 1] = -Obj[V];
    }
    ObjectiveConstant = Rational();
    priceOut();
  }

  /// Sets the phase-1 objective: maximize -x0.
  void setPhase1Objective() {
    Objective.assign(Cols, Rational());
    Objective[artificialCol()] = Rational(-1);
    ObjectiveConstant = Rational();
    priceOut();
  }

  /// Rewrites the objective row so basic columns have zero reduced cost.
  void priceOut() {
    for (size_t I = 0; I < rows(); ++I) {
      const Rational &C = Objective[Basis[I]];
      if (C.isZero())
        continue;
      Rational Factor = C;
      subtractScaled(Objective, Factor, T[I]);
      ObjectiveConstant += Factor * T[I][rhsCol()];
    }
  }

  void pivot(size_t Row, size_t Col) {
    // Tableau rows are sparse (slack columns, eliminated structurals), so
    // every row operation skips zero source entries; exact rational ops are
    // expensive enough that the extra branch is pure profit.
    TabRow &PivotRow = T[Row];
    if (!PivotRow[Col].isOne()) {
      Rational Inv = PivotRow[Col].inverse();
      for (size_t J = 0; J < Cols; ++J)
        if (!PivotRow[J].isZero())
          PivotRow[J] *= Inv;
    }
    for (size_t I = 0; I < rows(); ++I) {
      if (I == Row || T[I][Col].isZero())
        continue;
      Rational Factor = T[I][Col];
      subtractScaled(T[I], Factor, PivotRow);
    }
    if (!Objective[Col].isZero()) {
      Rational Factor = Objective[Col];
      subtractScaled(Objective, Factor, PivotRow);
      ObjectiveConstant += Factor * PivotRow[rhsCol()];
    }
    Basis[Row] = Col;
  }

  /// Runs Bland-rule simplex on the current objective.
  /// Returns false if unbounded.
  bool optimize() {
    size_t DecisionCols = Cols - 1; // Everything but rhs.
    while (true) {
      // Entering: smallest-index column with positive reduced cost.
      size_t Enter = DecisionCols;
      for (size_t J = 0; J < DecisionCols; ++J)
        if (Objective[J].sign() > 0) {
          Enter = J;
          break;
        }
      if (Enter == DecisionCols)
        return true; // Optimal.
      // Leaving: minimum ratio, ties broken by smallest basic index.
      size_t Leave = rows();
      Rational BestRatio;
      for (size_t I = 0; I < rows(); ++I) {
        if (T[I][Enter].sign() <= 0)
          continue;
        Rational Ratio = T[I][rhsCol()] / T[I][Enter];
        if (Leave == rows() || Ratio < BestRatio ||
            (Ratio == BestRatio && Basis[I] < Basis[Leave])) {
          Leave = I;
          BestRatio = Ratio;
        }
      }
      if (Leave == rows())
        return false; // Unbounded.
      CAI_METRIC_INC("simplex.pivots");
      pivot(Leave, Enter);
    }
  }

  Rational objectiveValue() const { return ObjectiveConstant; }

  /// Values of the original free variables at the current basic solution.
  std::vector<Rational> point(size_t NumVars) const {
    TabRow Vals(Cols - 1);
    for (size_t I = 0; I < rows(); ++I)
      Vals[Basis[I]] = T[I][rhsCol()];
    std::vector<Rational> Out(NumVars);
    for (size_t V = 0; V < NumVars; ++V)
      Out[V] = Vals[2 * V] - Vals[2 * V + 1];
    return Out;
  }

  /// Phase-1 entry: pivot x0 in against the most negative rhs.
  void enterArtificial() {
    size_t Worst = rows();
    for (size_t I = 0; I < rows(); ++I)
      if (T[I][rhsCol()].sign() < 0 &&
          (Worst == rows() || T[I][rhsCol()] < T[Worst][rhsCol()]))
        Worst = I;
    assert(Worst != rows() && "enterArtificial needs a negative rhs");
    pivot(Worst, artificialCol());
  }

  bool anyNegativeRhs() const {
    for (size_t I = 0; I < rows(); ++I)
      if (T[I][rhsCol()].sign() < 0)
        return true;
    return false;
  }

  /// After a successful phase 1, forces x0 out of the basis if it sits
  /// there at value zero.
  void evictArtificial() {
    for (size_t I = 0; I < rows(); ++I) {
      if (Basis[I] != artificialCol())
        continue;
      assert(T[I][rhsCol()].isZero() && "artificial basic at nonzero value");
      for (size_t J = 0; J + 1 < Cols; ++J) {
        if (J == artificialCol() || T[I][J].isZero())
          continue;
        pivot(I, J);
        return;
      }
      // Row is all zero: harmless degenerate row; leave it.
      return;
    }
  }

  /// Zeroes the artificial column so later pivots cannot re-enter it.
  void freezeArtificial() {
    for (size_t I = 0; I < rows(); ++I)
      T[I][artificialCol()] = Rational();
    Objective[artificialCol()] = Rational();
  }

private:
  size_t NumStructural;
  size_t NumSlack;
  bool HasArtificial;
  size_t Cols;
  std::vector<TabRow> T;
  std::vector<size_t> Basis;
  TabRow Objective;
  Rational ObjectiveConstant;
};

/// Unconstrained system: any nonzero objective is unbounded.
LPResult unconstrainedResult(const CoeffVec &Objective,
                             size_t NumVars) {
  bool Zero = true;
  for (const Rational &C : Objective)
    Zero &= C.isZero();
  if (Zero)
    return {LPStatus::Optimal, Rational(), std::vector<Rational>(NumVars)};
  return {LPStatus::Unbounded, Rational(), {}};
}

/// Phase 1 on a fresh tableau.  False if the system is infeasible;
/// otherwise the basis is feasible and the artificial column is frozen.
bool makeFeasible(Tableau &Tab) {
  if (Tab.anyNegativeRhs()) {
    Tab.setPhase1Objective();
    Tab.enterArtificial();
    bool Bounded = Tab.optimize();
    assert(Bounded && "phase-1 objective is bounded by construction");
    (void)Bounded;
    if (!Tab.objectiveValue().isZero())
      return false;
    Tab.evictArtificial();
  }
  Tab.freezeArtificial();
  return true;
}

/// Phase 2 from a feasible basis.
LPResult optimizeFrom(Tableau &Tab, const CoeffVec &Objective,
                      size_t NumVars) {
  Tab.setObjective(Objective);
  if (!Tab.optimize())
    return {LPStatus::Unbounded, Rational(), {}};
  return {LPStatus::Optimal, Tab.objectiveValue(), Tab.point(NumVars)};
}

} // namespace

LPResult cai::maximize(const std::vector<LinearConstraint> &Constraints,
                       const CoeffVec &Objective,
                       size_t NumVars) {
  assert(Objective.size() == NumVars && "objective dimension mismatch");
  CAI_TRACE_SPAN("simplex.maximize", "simplex");
  CAI_METRIC_INC("simplex.solves");
  CAI_METRIC_TIME("simplex.solve_us");
  if (Constraints.empty())
    return unconstrainedResult(Objective, NumVars);
  Tableau Tab(Constraints, NumVars, /*WithArtificial=*/true);
  if (!makeFeasible(Tab))
    return {LPStatus::Infeasible, Rational(), {}};
  return optimizeFrom(Tab, Objective, NumVars);
}

bool cai::isFeasible(const std::vector<LinearConstraint> &Constraints,
                     size_t NumVars) {
  CAI_TRACE_SPAN("simplex.maximize", "simplex");
  CAI_METRIC_INC("simplex.solves");
  CAI_METRIC_TIME("simplex.solve_us");
  if (Constraints.empty())
    return true;
  Tableau Tab(Constraints, NumVars, /*WithArtificial=*/true);
  return makeFeasible(Tab);
}

//===----------------------------------------------------------------------===//
// SimplexSolver: one system, many objectives.
//===----------------------------------------------------------------------===//

struct SimplexSolver::Impl {
  /// The system until phase 1 builds the tableau from it.
  std::vector<LinearConstraint> Constraints;
  size_t NumVars;
  /// The pinned tableau; engaged by phase 1 on a non-empty system.
  std::optional<Tableau> Tab;
  bool Prepared = false;   ///< Phase 1 has run (or was not needed).
  bool Infeasible = false; ///< Phase 1 proved the system empty.

  Impl(std::vector<LinearConstraint> Constraints, size_t NumVars)
      : Constraints(std::move(Constraints)), NumVars(NumVars) {}

  /// Phase 1, run once per system.
  void prepare() {
    Prepared = true;
    if (Constraints.empty())
      return;
    Tab.emplace(Constraints, NumVars, /*WithArtificial=*/true);
    Constraints = {};
    Infeasible = !makeFeasible(*Tab);
  }
};

SimplexSolver::SimplexSolver(std::vector<LinearConstraint> Constraints,
                             size_t NumVars)
    : I(std::make_unique<Impl>(std::move(Constraints), NumVars)) {}

SimplexSolver::~SimplexSolver() = default;
SimplexSolver::SimplexSolver(SimplexSolver &&) noexcept = default;
SimplexSolver &SimplexSolver::operator=(SimplexSolver &&) noexcept = default;

bool SimplexSolver::feasible() {
  if (!I->Prepared) {
    CAI_TRACE_SPAN("simplex.maximize", "simplex");
    CAI_METRIC_INC("simplex.solves");
    CAI_METRIC_TIME("simplex.solve_us");
    I->prepare();
  }
  return !I->Infeasible;
}

LPResult SimplexSolver::maximize(const CoeffVec &Objective) {
  assert(Objective.size() == I->NumVars && "objective dimension mismatch");
  CAI_TRACE_SPAN("simplex.maximize", "simplex");
  CAI_METRIC_INC("simplex.solves");
  CAI_METRIC_TIME("simplex.solve_us");
  const bool Warm = I->Prepared;
  if (!Warm)
    I->prepare();
  if (!I->Tab)
    return unconstrainedResult(Objective, I->NumVars);
  if (I->Infeasible)
    return {LPStatus::Infeasible, Rational(), {}};
  // Re-enter phase 2 from the previous basis: it stays primal feasible
  // under any objective change, so phase 1 does not run again.
  if (Warm) {
    CAI_METRIC_INC("simplex.warmstart");
  }
  return optimizeFrom(*I->Tab, Objective, I->NumVars);
}
