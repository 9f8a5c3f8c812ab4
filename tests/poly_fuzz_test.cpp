//===- tests/poly_fuzz_test.cpp - Property-based polyhedra fuzzer ---------===//
///
/// \file
/// Randomized lattice-law and solver-oracle properties for the polyhedra
/// backend, the other half of the tentpole's correctness bar (the
/// differential analyzer suite is in analyzer_cache_test.cpp):
///
///  * join (convex hull) commutativity and associativity up to mutual
///    entailment, and the upper-bound law;
///  * widening termination along randomized ascending chains, with the
///    widened element always containing both operands;
///  * the warm-start oracle: SimplexSolver's phase-2 re-entry must agree
///    with a fresh two-phase cai::maximize on status and optimal value,
///    and its witness point must be feasible and achieve that value;
///  * the affine hull, which decides some rows without an LP, must return
///    exactly the rows whose own fresh LP shows them tight;
///  * minimization keeps exactly the rows the plain one-LP-per-row loop
///    keeps, and is idempotent: a minimized polyhedron keeps every row
///    when minimized again.
///
/// Every iteration reseeds a private RNG from a deterministic base seed
/// and logs that seed via SCOPED_TRACE, so any failure names the exact
/// seed to replay.  CAI_POLY_FUZZ_ITERS overrides the per-property
/// iteration budget (CI runs the ASan/UBSan job with an explicit budget).
///
//===----------------------------------------------------------------------===//

#include "domains/poly/Polyhedron.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

using namespace cai;

namespace {

/// Per-property iteration budget: CAI_POLY_FUZZ_ITERS when set and
/// positive, \p Default otherwise.
size_t iterationBudget(size_t Default = 500) {
  if (const char *S = std::getenv("CAI_POLY_FUZZ_ITERS"))
    if (unsigned long N = std::strtoul(S, nullptr, 10))
      return N;
  return Default;
}

/// A random polyhedron: small dimension, small integral coefficients, a
/// sprinkling of equality rows.  Roughly half the draws are feasible,
/// which exercises both the empty and non-empty paths of every law.
Polyhedron randomPoly(std::mt19937 &Rng, size_t NumVars, size_t MaxRows) {
  std::uniform_int_distribution<int> Coeff(-3, 3);
  std::uniform_int_distribution<int> Rhs(-8, 8);
  std::uniform_int_distribution<size_t> NumRows(0, MaxRows);
  std::uniform_int_distribution<int> Kind(0, 9);

  Polyhedron P(NumVars);
  size_t Rows = NumRows(Rng);
  for (size_t R = 0; R < Rows; ++R) {
    std::vector<Rational> Coeffs(NumVars);
    for (size_t V = 0; V < NumVars; ++V)
      Coeffs[V] = Rational(Coeff(Rng));
    if (Kind(Rng) < 2)
      P.addEq(Coeffs, Rational(Rhs(Rng)));
    else
      P.addLe(std::move(Coeffs), Rational(Rhs(Rng)));
  }
  return P;
}

/// Does \p A entail every constraint of \p B?  (Set containment A <= B in
/// constraint form; trivially true when A is empty.)
bool contains(const Polyhedron &B, const Polyhedron &A) {
  if (A.isEmpty())
    return true;
  for (const LinearConstraint &C : B.constraints())
    if (!boundedBy(maximize(A.constraints(), C.Coeffs, A.numVars()), C.Rhs))
      return false;
  return true;
}

/// The rows \p P's affine hull LPs pick.
std::vector<LinearConstraint> hullRows(const Polyhedron &P) {
  SimplexSolver S(P.constraints(), P.numVars());
  return P.affineHull(S);
}

/// The CH78 widening of two nonempty polyhedra, with each operand's affine
/// hull from its own pinned solver.
Polyhedron widened(const Polyhedron &Old, const Polyhedron &New) {
  SimplexSolver OldSolver(Old.constraints(), Old.numVars());
  SimplexSolver NewSolver(New.constraints(), New.numVars());
  return Old.widen(New, Old.equalities(OldSolver), New.equalities(NewSolver));
}

/// Mutual entailment: the law-level notion of equality (the hull is only
/// canonical up to redundancy and row order).
bool equivalent(const Polyhedron &A, const Polyhedron &B) {
  if (A.isEmpty() || B.isEmpty())
    return A.isEmpty() == B.isEmpty();
  return contains(A, B) && contains(B, A);
}

std::string describe(const Polyhedron &P) {
  std::string Out = "{";
  for (const LinearConstraint &C : P.constraints()) {
    Out += " [";
    for (const Rational &Q : C.Coeffs)
      Out += Q.toString() + " ";
    Out += "<= " + C.Rhs.toString() + "]";
  }
  return Out + " }";
}

class PolyFuzzTest : public ::testing::Test {
protected:
  static constexpr unsigned BaseSeed = 0xCA1F;
  static constexpr size_t NumVars = 3;
  static constexpr size_t MaxRows = 5;
};

} // namespace

TEST_F(PolyFuzzTest, JoinCommutativeAndUpperBound) {
  for (size_t It = 0, N = iterationBudget(); It < N; ++It) {
    unsigned Seed = BaseSeed + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Polyhedron A = randomPoly(Rng, NumVars, MaxRows);
    Polyhedron B = randomPoly(Rng, NumVars, MaxRows);

    Polyhedron AB = Polyhedron::hull(A, B);
    Polyhedron BA = Polyhedron::hull(B, A);
    EXPECT_TRUE(equivalent(AB, BA))
        << "hull(A,B) = " << describe(AB) << "\nhull(B,A) = " << describe(BA);
    // Upper bound: the hull contains both operands.
    EXPECT_TRUE(contains(AB, A)) << describe(AB);
    EXPECT_TRUE(contains(AB, B)) << describe(AB);
  }
}

TEST_F(PolyFuzzTest, JoinAssociativeUpToEquivalence) {
  // Associativity costs four hulls per iteration; half the budget keeps
  // the default run in the same time envelope as the other laws.
  for (size_t It = 0, N = std::max<size_t>(1, iterationBudget() / 2); It < N;
       ++It) {
    unsigned Seed = BaseSeed + 0x10000 + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Polyhedron A = randomPoly(Rng, NumVars, MaxRows);
    Polyhedron B = randomPoly(Rng, NumVars, MaxRows);
    Polyhedron C = randomPoly(Rng, NumVars, MaxRows);

    Polyhedron L = Polyhedron::hull(Polyhedron::hull(A, B), C);
    Polyhedron R = Polyhedron::hull(A, Polyhedron::hull(B, C));
    EXPECT_TRUE(equivalent(L, R))
        << "(A|B)|C = " << describe(L) << "\nA|(B|C) = " << describe(R);
  }
}

TEST_F(PolyFuzzTest, WideningTerminatesAndCovers) {
  // An ascending chain of random contributions, widened CH78-style the
  // way the analyzer drives it: W <- W.widen(hull(W, Next)).  Termination
  // bound: each round either keeps a subset of W's syntactic rows or (the
  // equality-aware refinement) strictly drops the implicit-equality rank,
  // so NumVars + initial rows + a small constant rounds always suffice.
  for (size_t It = 0, N = iterationBudget(); It < N; ++It) {
    unsigned Seed = BaseSeed + 0x20000 + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);

    Polyhedron W = randomPoly(Rng, NumVars, MaxRows);
    const size_t Bound = 2 * (NumVars + 1) + 2 * MaxRows + 4;
    bool Stable = false;
    for (size_t Round = 0; Round < Bound && !Stable; ++Round) {
      Polyhedron Next = Polyhedron::hull(W, randomPoly(Rng, NumVars, MaxRows));
      Polyhedron Widened = W.isEmpty() ? Next : widened(W, Next);
      // Soundness: the widened element contains both operands.
      EXPECT_TRUE(contains(Widened, W)) << describe(Widened);
      EXPECT_TRUE(contains(Widened, Next)) << describe(Widened);
      Stable = equivalent(Widened, W);
      W = std::move(Widened);
    }
    // The chain must stabilize against a *repeated* contribution within
    // the bound: once no new rows arrive, widening is reductive on W.
    EXPECT_TRUE(Stable || equivalent(widened(W, Polyhedron::hull(W, W)), W))
        << "chain not stable after " << Bound << " rounds: " << describe(W);
  }
}

TEST_F(PolyFuzzTest, WarmStartOracleMatchesFreshSolve) {
  // A pinned SimplexSolver answering several objectives must agree with a
  // fresh two-phase solve on status and optimal value.  The witness point
  // may legitimately differ (multiple optima), so it is checked for
  // feasibility and for achieving the optimum instead.
  for (size_t It = 0, N = iterationBudget(); It < N; ++It) {
    unsigned Seed = BaseSeed + 0x40000 + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Polyhedron P = randomPoly(Rng, NumVars, MaxRows);
    std::uniform_int_distribution<int> Coeff(-3, 3);

    SimplexSolver Pinned(P.constraints(), NumVars);
    for (int Query = 0; Query < 4; ++Query) {
      std::vector<Rational> Objective(NumVars);
      for (size_t V = 0; V < NumVars; ++V)
        Objective[V] = Rational(Coeff(Rng));

      LPResult Fresh = maximize(P.constraints(), Objective, NumVars);
      LPResult Warm = Pinned.maximize(Objective);
      ASSERT_EQ(Fresh.Status, Warm.Status) << "objective #" << Query;
      if (Fresh.Status != LPStatus::Optimal)
        continue;
      EXPECT_EQ(Fresh.Value, Warm.Value) << "objective #" << Query;
      ASSERT_EQ(Warm.Point.size(), NumVars);
      Rational At;
      for (size_t V = 0; V < NumVars; ++V)
        At += Objective[V] * Warm.Point[V];
      EXPECT_EQ(At, Warm.Value) << "witness misses the optimum";
      for (const LinearConstraint &C : P.constraints()) {
        Rational Lhs;
        for (size_t V = 0; V < NumVars; ++V)
          Lhs += C.Coeffs[V] * Warm.Point[V];
        EXPECT_TRUE(Lhs <= C.Rhs) << "witness infeasible";
      }
    }
  }
}

TEST_F(PolyFuzzTest, AffineHullMatchesPerRowLPs) {
  // affineHull() takes equality pairs without an LP and skips every row an
  // earlier optimum satisfies strictly.  The reference asks each row its
  // own fresh LP: row C . x <= d is tight everywhere iff max -C . x = -d.
  size_t Checked = 0, WithPairs = 0;
  for (size_t It = 0, N = iterationBudget(); It < N; ++It) {
    unsigned Seed = BaseSeed + 0x50000 + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Polyhedron P = randomPoly(Rng, NumVars, MaxRows + 2);
    if (P.isEmpty())
      continue;
    std::vector<LinearConstraint> Expected;
    for (const LinearConstraint &C : P.constraints()) {
      CoeffVec Neg(NumVars);
      for (size_t V = 0; V < NumVars; ++V)
        Neg[V] = -C.Coeffs[V];
      LPResult R = maximize(P.constraints(), Neg, NumVars);
      if (R.Status == LPStatus::Optimal && R.Value == -C.Rhs)
        Expected.push_back(C);
    }
    EXPECT_TRUE(hullRows(P) == Expected) << describe(P);
    ++Checked;
    WithPairs += Expected.size() >= 2;
  }
  // The draws exercise both the pair rule and the LP path.
  EXPECT_GT(Checked, iterationBudget() / 4);
  EXPECT_GT(WithPairs, 0u);
}

TEST_F(PolyFuzzTest, MinimizedMatchesPerRowLPs) {
  // Rows that alone bound a column skip their LP; the reference runs the
  // plain loop: drop row I iff the other remaining rows bound C_I . x by
  // its rhs.
  for (size_t It = 0, N = iterationBudget(); It < N; ++It) {
    unsigned Seed = BaseSeed + 0x80000 + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Polyhedron P = randomPoly(Rng, NumVars, MaxRows + 3);
    std::vector<LinearConstraint> Kept = P.constraints();
    for (size_t I = 0; I < Kept.size();) {
      std::vector<LinearConstraint> Others = Kept;
      Others.erase(Others.begin() + I);
      if (boundedBy(maximize(Others, Kept[I].Coeffs, NumVars), Kept[I].Rhs))
        Kept.erase(Kept.begin() + I);
      else
        ++I;
    }
    EXPECT_TRUE(P.minimized().constraints() == Kept) << describe(P);
  }
}

TEST_F(PolyFuzzTest, MinimizedIsIdempotent) {
  // A row irredundant against some rows stays irredundant once others
  // leave, so minimizing twice drops nothing more.  The rebuilt copy is
  // not marked minimal, so the second pass really runs its LPs.
  for (size_t It = 0, N = iterationBudget(); It < N; ++It) {
    unsigned Seed = BaseSeed + 0x60000 + static_cast<unsigned>(It);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Polyhedron P = randomPoly(Rng, NumVars, MaxRows + 3);
    Polyhedron Min = P.minimized();
    EXPECT_TRUE(Min.isMinimal());
    EXPECT_TRUE(equivalent(Min, P)) << describe(P) << " vs " << describe(Min);
    Polyhedron Copy(NumVars);
    for (const LinearConstraint &C : Min.constraints())
      Copy.addLe(C.Coeffs, C.Rhs);
    ASSERT_TRUE(Copy.constraints() == Min.constraints()) << describe(Min);
    EXPECT_FALSE(Copy.isMinimal());
    EXPECT_TRUE(Copy.minimized().constraints() == Min.constraints())
        << describe(Min);
    // A row added to a minimal polyhedron takes the mark away.
    std::vector<Rational> Sum(NumVars, Rational(1));
    size_t Before = Min.constraints().size();
    Min.addLe(Sum, Rational(100));
    if (Min.constraints().size() > Before) {
      EXPECT_FALSE(Min.isMinimal());
    }
  }
}
