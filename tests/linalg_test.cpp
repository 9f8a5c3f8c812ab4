//===- tests/linalg_test.cpp - Row kernel and AffineSystem ----------------===//

#include "linalg/AffineSystem.h"
#include "support/GF2.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <random>

using namespace cai;

namespace {

LinRow<Rational> row(std::initializer_list<int64_t> Values) {
  LinRow<Rational> Out;
  for (int64_t V : Values)
    Out.push_back(Rational(V));
  return Out;
}

} // namespace

TEST(RowKernelTest, RrefIdentifiesPivots) {
  std::vector<LinRow<Rational>> Rows{row({1, 2, 3}), row({2, 4, 6}),
                                     row({1, 0, 1})};
  PivotList Pivots = reducedRowEchelon(Rows, {0, 1, 2});
  ASSERT_EQ(Pivots.size(), 2u);
  EXPECT_EQ(Pivots[0], 0u);
  EXPECT_EQ(Pivots[1], 1u);
  // Row 2 is all zero after reduction.
  for (size_t C = 0; C < 3; ++C)
    EXPECT_TRUE(Rows[2][C].isZero());
}

TEST(RowKernelTest, NullspaceSatisfiesSystem) {
  std::vector<LinRow<Rational>> Rows{row({1, 1, -1, 0}), row({0, 1, 1, -2})};
  std::vector<LinRow<Rational>> Copy = Rows;
  PivotList Pivots = reducedRowEchelon(Rows, {0, 1, 2, 3});
  std::vector<LinRow<Rational>> Basis = nullspaceBasis(Rows, Pivots, 4);
  EXPECT_EQ(Basis.size(), 2u); // 4 columns, rank 2.
  for (const auto &V : Basis)
    for (const LinRow<Rational> &R : Copy) {
      Rational Dot;
      for (size_t C = 0; C < R.size(); ++C)
        Dot += R[C] * V[C];
      EXPECT_TRUE(Dot.isZero());
    }
}

TEST(AffineSystemTest, InconsistencyDetected) {
  AffineSystem<Rational> S(2);
  S.addRow(row({1, 0, 1})); // x = 1
  S.addRow(row({1, 0, 2})); // x = 2
  EXPECT_TRUE(S.isInconsistent());
}

namespace {

// The queries below must see the contradiction without an isInconsistent()
// call first: each canonicalizes before it tests for inconsistency.
AffineSystem<Rational> contradictoryX() {
  AffineSystem<Rational> S(2); // Columns (x, y).
  S.addRow(row({1, 0, 1}));    // x = 1
  S.addRow(row({1, 0, 2}));    // x = 2
  return S;
}

} // namespace

TEST(AffineSystemTest, UncanonicalUnsatEntailsEverything) {
  EXPECT_TRUE(contradictoryX().entails(row({0, 1, 5}))); // y = 5
}

TEST(AffineSystemTest, UncanonicalUnsatProjectsToUnsat) {
  AffineSystem<Rational> P = contradictoryX().project({true, false});
  EXPECT_TRUE(P.isInconsistent());
  EXPECT_FALSE(P.isTrivial());
}

TEST(AffineSystemTest, UncanonicalUnsatSolvesNothing) {
  EXPECT_FALSE(contradictoryX().solveFor(1, {false, false}).has_value());
  EXPECT_TRUE(contradictoryX().solveForMany({false, true}).empty());
}

TEST(AffineSystemTest, EntailsReducesAgainstBasis) {
  AffineSystem<Rational> S(3);
  S.addRow(row({1, -1, 0, 0})); // x = y
  S.addRow(row({0, 1, -1, 0})); // y = z
  EXPECT_TRUE(S.entails(row({1, 0, -1, 0})));  // x = z
  EXPECT_TRUE(S.entails(row({2, -1, -1, 0}))); // 2x = y + z
  EXPECT_FALSE(S.entails(row({1, 0, 0, 0})));  // x = 0
}

TEST(AffineSystemTest, ProjectEliminatesBlock) {
  // x = z + 1, y = z + 2; eliminating z leaves y = x + 1.
  AffineSystem<Rational> S(3);
  S.addRow(row({1, 0, -1, 1}));
  S.addRow(row({0, 1, -1, 2}));
  AffineSystem<Rational> P = S.project({false, false, true});
  EXPECT_EQ(P.rank(), 1u);
  EXPECT_TRUE(P.entails(row({1, -1, 0, -1}))); // x - y = -1
  EXPECT_FALSE(P.entails(row({1, 0, -1, 1})));
}

TEST(AffineSystemTest, ProjectConsistencyPreserved) {
  AffineSystem<Rational> S(2);
  S.addRow(row({1, 0, 3})); // x = 3
  AffineSystem<Rational> P = S.project({true, false});
  EXPECT_TRUE(P.isTrivial()); // No facts about y.
}

TEST(AffineSystemTest, JoinIsAffineHull) {
  // {x = 0, y = 0} join {x = 1, y = 2} is the line y = 2x.
  AffineSystem<Rational> A(2), B(2);
  A.addRow(row({1, 0, 0}));
  A.addRow(row({0, 1, 0}));
  B.addRow(row({1, 0, 1}));
  B.addRow(row({0, 1, 2}));
  AffineSystem<Rational> J = AffineSystem<Rational>::join(A, B);
  EXPECT_EQ(J.rank(), 1u);
  EXPECT_TRUE(J.entails(row({2, -1, 0}))); // 2x - y = 0
}

TEST(AffineSystemTest, JoinWithInconsistentIsIdentity) {
  AffineSystem<Rational> A(2);
  A.addRow(row({1, -1, 0}));
  AffineSystem<Rational> Bot = AffineSystem<Rational>::inconsistent(2);
  EXPECT_TRUE(AffineSystem<Rational>::join(A, Bot).entails(row({1, -1, 0})));
  EXPECT_TRUE(AffineSystem<Rational>::join(Bot, A).entails(row({1, -1, 0})));
}

TEST(AffineSystemTest, JoinSoundnessRandomized) {
  // Every fact of the join must be entailed by both inputs.
  std::mt19937 Rng(7);
  std::uniform_int_distribution<int> Coeff(-3, 3);
  for (int Trial = 0; Trial < 100; ++Trial) {
    size_t N = 4;
    AffineSystem<Rational> A(N), B(N);
    for (int R = 0; R < 2; ++R) {
      std::vector<Rational> RowA, RowB;
      for (size_t C = 0; C <= N; ++C) {
        RowA.push_back(Rational(Coeff(Rng)));
        RowB.push_back(Rational(Coeff(Rng)));
      }
      A.addRow(RowA);
      B.addRow(RowB);
    }
    AffineSystem<Rational> J = AffineSystem<Rational>::join(A, B);
    if (A.isInconsistent() || B.isInconsistent())
      continue;
    for (const auto &Row : J.rows()) {
      EXPECT_TRUE(A.entails(Row)) << "trial " << Trial;
      EXPECT_TRUE(B.entails(Row)) << "trial " << Trial;
    }
  }
}

TEST(AffineSystemTest, EqualVarLeadersGroupEqualVars) {
  // x = y, z free: x and y share a class, z does not.
  AffineSystem<Rational> S(3);
  S.addRow(row({1, -1, 0, 0}));
  EXPECT_EQ(S.equalVarLeaders(), (std::vector<size_t>{0, 0, 2}));
}

TEST(AffineSystemTest, EqualVarLeadersConstants) {
  // x = 5, y = 5 implies x = y through the constant.
  AffineSystem<Rational> S(2);
  S.addRow(row({1, 0, 5}));
  S.addRow(row({0, 1, 5}));
  EXPECT_EQ(S.equalVarLeaders(), (std::vector<size_t>{0, 0}));
}

TEST(AffineSystemTest, SolveForBasic) {
  // x = y + 2z + 1: solving for x avoiding nothing gives that row back.
  AffineSystem<Rational> S(3);
  S.addRow(row({1, -1, -2, 1}));
  std::optional<LinRow<Rational>> Sol = S.solveFor(0, {false, false, false});
  ASSERT_TRUE(Sol);
  EXPECT_EQ((*Sol)[1], Rational(1));
  EXPECT_EQ((*Sol)[2], Rational(2));
  EXPECT_EQ((*Sol)[3], Rational(1));
}

TEST(AffineSystemTest, SolveForAvoidsForbiddenColumns) {
  // x = y + 1 and y = z + 1: solving x avoiding y must route through z.
  AffineSystem<Rational> S(3);
  S.addRow(row({1, -1, 0, 1}));
  S.addRow(row({0, 1, -1, 1}));
  std::optional<LinRow<Rational>> Sol = S.solveFor(0, {false, true, false});
  ASSERT_TRUE(Sol);
  EXPECT_TRUE((*Sol)[1].isZero());
  EXPECT_EQ((*Sol)[2], Rational(1)); // x = z + 2.
  EXPECT_EQ((*Sol)[3], Rational(2));
}

TEST(AffineSystemTest, SolveForUnderdetermined) {
  AffineSystem<Rational> S(2);
  S.addRow(row({1, 1, 4})); // x + y = 4: x solvable via y...
  EXPECT_TRUE(S.solveFor(0, {false, false}).has_value());
  // ...but not avoiding y.
  EXPECT_FALSE(S.solveFor(0, {false, true}).has_value());
}

TEST(AffineSystemGF2Test, ParityJoinAndProject) {
  // Over GF2: {x = 1, y = 0} join {x = 1, y = 1}: x = 1 survives, and the
  // relation x + y uninformative; {x = 1, y = 1} also implies x + y = 0.
  AffineSystem<GF2> A(2), B(2);
  A.addRow({GF2::one(), GF2(), GF2::one()});
  A.addRow({GF2(), GF2::one(), GF2()});
  B.addRow({GF2::one(), GF2(), GF2::one()});
  B.addRow({GF2(), GF2::one(), GF2::one()});
  AffineSystem<GF2> J = AffineSystem<GF2>::join(A, B);
  EXPECT_TRUE(J.entails({GF2::one(), GF2(), GF2::one()}));   // x odd.
  EXPECT_FALSE(J.entails({GF2(), GF2::one(), GF2::one()}));  // y unknown.
  EXPECT_FALSE(J.entails({GF2(), GF2::one(), GF2()}));

  // Projecting y from {x + y = 1, y = 1} leaves x = 0.
  AffineSystem<GF2> S(2);
  S.addRow({GF2::one(), GF2::one(), GF2::one()});
  S.addRow({GF2(), GF2::one(), GF2::one()});
  AffineSystem<GF2> P = S.project({false, true});
  EXPECT_TRUE(P.entails({GF2::one(), GF2(), GF2()}));
}

TEST(AffineSystemGF2Test, InconsistentParity) {
  AffineSystem<GF2> S(1);
  S.addRow({GF2::one(), GF2()});
  S.addRow({GF2::one(), GF2::one()});
  EXPECT_TRUE(S.isInconsistent());
}
