//===- tests/poly_test.cpp - Simplex and the polyhedra domain --------------===//

#include "domains/poly/PolyDomain.h"
#include "domains/poly/Simplex.h"
#include "obs/Metrics.h"

#include "TestUtil.h"

#include <algorithm>
#include <random>

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

namespace {

LinearConstraint con(std::initializer_list<int64_t> Coeffs, int64_t Rhs) {
  LinearConstraint Out;
  for (int64_t V : Coeffs)
    Out.Coeffs.push_back(Rational(V));
  Out.Rhs = Rational(Rhs);
  return Out;
}

} // namespace

TEST(SimplexTest, SimpleMaximize) {
  // max x + y s.t. x <= 3, y <= 4, x + y <= 5.
  std::vector<LinearConstraint> Cons = {con({1, 0}, 3), con({0, 1}, 4),
                                        con({1, 1}, 5)};
  LPResult R = maximize(Cons, {Rational(1), Rational(1)}, 2);
  ASSERT_EQ(R.Status, LPStatus::Optimal);
  EXPECT_EQ(R.Value, Rational(5));
}

TEST(SimplexTest, NegativeVariablesAllowed) {
  // Variables are free: max -x s.t. x >= -7 gives 7 at x = -7.
  std::vector<LinearConstraint> Cons = {con({-1}, 7)};
  LPResult R = maximize(Cons, {Rational(-1)}, 1);
  ASSERT_EQ(R.Status, LPStatus::Optimal);
  EXPECT_EQ(R.Value, Rational(7));
  EXPECT_EQ(R.Point[0], Rational(-7));
}

TEST(SimplexTest, UnboundedDetected) {
  std::vector<LinearConstraint> Cons = {con({-1, 0}, 0)}; // x >= 0.
  LPResult R = maximize(Cons, {Rational(1), Rational(0)}, 2);
  EXPECT_EQ(R.Status, LPStatus::Unbounded);
}

TEST(SimplexTest, InfeasibleDetected) {
  std::vector<LinearConstraint> Cons = {con({1}, 0), con({-1}, -1)};
  // x <= 0 and x >= 1.
  LPResult R = maximize(Cons, {Rational(1)}, 1);
  EXPECT_EQ(R.Status, LPStatus::Infeasible);
  EXPECT_FALSE(isFeasible(Cons, 1));
}

TEST(SimplexTest, PhaseOneNeededAndSolved) {
  // x >= 2, x <= 5: initial dictionary infeasible (rhs -2 < 0).
  std::vector<LinearConstraint> Cons = {con({-1}, -2), con({1}, 5)};
  LPResult R = maximize(Cons, {Rational(1)}, 1);
  ASSERT_EQ(R.Status, LPStatus::Optimal);
  EXPECT_EQ(R.Value, Rational(5));
  LPResult R2 = maximize(Cons, {Rational(-1)}, 1);
  ASSERT_EQ(R2.Status, LPStatus::Optimal);
  EXPECT_EQ(R2.Value, Rational(-2));
}

TEST(SimplexTest, WarmStartCountsOnlyPhaseTwoReentries) {
  // A pinned solver counts a warm start when a question re-enters phase 2
  // on a basis an earlier phase 1 made; an empty or unconstrained system
  // has no phase 2 to re-enter.
  auto WarmStarts = [] {
    auto Values = obs::MetricsRegistry::global().counterValues();
    auto It = Values.find("simplex.warmstart");
    return It == Values.end() ? uint64_t(0) : It->second;
  };
  uint64_t Before = WarmStarts();
  SimplexSolver Empty({con({1}, 0), con({-1}, -1)}, 1);
  EXPECT_FALSE(Empty.feasible());
  EXPECT_EQ(Empty.maximize({Rational(1)}).Status, LPStatus::Infeasible);
  SimplexSolver Free({}, 1);
  EXPECT_TRUE(Free.feasible());
  EXPECT_EQ(Free.maximize({Rational(1)}).Status, LPStatus::Unbounded);
  SimplexSolver Box({con({-1}, -2), con({1}, 5)}, 1);
  EXPECT_EQ(Box.maximize({Rational(1)}).Value, Rational(5)); // Phase 1.
  EXPECT_EQ(Box.maximize({Rational(-1)}).Value, Rational(-2));
  EXPECT_EQ(WarmStarts() - Before, 1u);
}

TEST(SimplexTest, ExactRationalOptimum) {
  // max y s.t. 3y <= 2x + 1, x <= 1: optimum y = 1 at x = 1 gives 3y <= 3.
  std::vector<LinearConstraint> Cons = {con({-2, 3}, 1), con({1, 0}, 1)};
  LPResult R = maximize(Cons, {Rational(0), Rational(1)}, 2);
  ASSERT_EQ(R.Status, LPStatus::Optimal);
  EXPECT_EQ(R.Value, Rational(1));
}

TEST(SimplexTest, DegenerateProblemsTerminate) {
  // Many redundant tight constraints; Bland's rule must not cycle.
  std::vector<LinearConstraint> Cons;
  for (int I = 1; I <= 6; ++I)
    Cons.push_back(con({I, I}, 0)); // All are x + y <= 0 scaled.
  Cons.push_back(con({-1, 0}, 0));
  Cons.push_back(con({0, -1}, 0));
  LPResult R = maximize(Cons, {Rational(1), Rational(1)}, 2);
  ASSERT_EQ(R.Status, LPStatus::Optimal);
  EXPECT_EQ(R.Value, Rational(0));
}

TEST(SimplexTest, RandomizedAgainstVertexEnumeration) {
  // Small random 2-D boxes with cuts: the LP optimum must match a brute
  // force over the (rational) intersection vertices.
  std::mt19937 Rng(4242);
  std::uniform_int_distribution<int> Coef(-4, 4);
  for (int Trial = 0; Trial < 60; ++Trial) {
    std::vector<LinearConstraint> Cons = {con({1, 0}, 5), con({-1, 0}, 5),
                                          con({0, 1}, 5), con({0, -1}, 5)};
    for (int K = 0; K < 2; ++K) {
      LinearConstraint Extra = con({Coef(Rng), Coef(Rng)}, Coef(Rng));
      Cons.push_back(Extra);
    }
    std::vector<Rational> Obj = {Rational(Coef(Rng)), Rational(Coef(Rng))};
    LPResult R = maximize(Cons, Obj, 2);
    if (R.Status != LPStatus::Optimal)
      continue;
    // The returned point must be feasible and achieve the value.
    Rational Achieved;
    for (size_t V = 0; V < 2; ++V)
      Achieved += Obj[V] * R.Point[V];
    EXPECT_EQ(Achieved, R.Value);
    for (const LinearConstraint &Con : Cons) {
      Rational Dot;
      for (size_t V = 0; V < 2; ++V)
        Dot += Con.Coeffs[V] * R.Point[V];
      EXPECT_TRUE(Dot <= Con.Rhs) << "trial " << Trial;
    }
    // Brute-force pairwise intersections for an upper-bound check.
    Rational Best;
    bool Any = false;
    for (size_t I = 0; I < Cons.size(); ++I)
      for (size_t J = I + 1; J < Cons.size(); ++J) {
        const auto &CA = Cons[I].Coeffs, &CB = Cons[J].Coeffs;
        Rational Det = CA[0] * CB[1] - CA[1] * CB[0];
        if (Det.isZero())
          continue;
        Rational X = (Cons[I].Rhs * CB[1] - CA[1] * Cons[J].Rhs) / Det;
        Rational Y = (CA[0] * Cons[J].Rhs - Cons[I].Rhs * CB[0]) / Det;
        bool Feasible = true;
        for (const LinearConstraint &Con : Cons)
          Feasible &= Con.Coeffs[0] * X + Con.Coeffs[1] * Y <= Con.Rhs;
        if (!Feasible)
          continue;
        Rational Val = Obj[0] * X + Obj[1] * Y;
        if (!Any || Best < Val)
          Best = Val;
        Any = true;
      }
    if (Any) {
      EXPECT_EQ(R.Value, Best) << "trial " << Trial;
    }
  }
}

namespace {

class PolyDomainTest : public ::testing::Test {
protected:
  TermContext Ctx;
  PolyDomain D{Ctx};
};

} // namespace

TEST_F(PolyDomainTest, EntailsInequalities) {
  Conjunction E = C(Ctx, "x <= y && y <= z");
  EXPECT_TRUE(D.entails(E, A(Ctx, "x <= z")));
  EXPECT_TRUE(D.entails(E, A(Ctx, "2*x <= 2*z")));
  EXPECT_FALSE(D.entails(E, A(Ctx, "z <= x")));
  EXPECT_FALSE(D.entails(E, A(Ctx, "x = z")));
}

TEST_F(PolyDomainTest, SqueezeImpliesEquality) {
  Conjunction E = C(Ctx, "x <= y && y <= x");
  EXPECT_TRUE(D.entails(E, A(Ctx, "x = y")));
  std::vector<std::pair<Term, Term>> Eqs = D.impliedVarEqualities(E);
  ASSERT_EQ(Eqs.size(), 1u);
}

TEST_F(PolyDomainTest, IsUnsat) {
  EXPECT_TRUE(D.isUnsat(C(Ctx, "x <= 0 && 1 <= x")));
  EXPECT_FALSE(D.isUnsat(C(Ctx, "x <= 0 && 0 <= x")));
  EXPECT_TRUE(D.isUnsat(C(Ctx, "x + y <= 1 && 2 <= x && 0 <= y")));
}

TEST_F(PolyDomainTest, JoinIsConvexHull) {
  // Points (0,0) and (2,2): hull is the segment x = y, 0 <= x <= 2.
  Conjunction E1 = C(Ctx, "x = 0 && y = 0");
  Conjunction E2 = C(Ctx, "x = 2 && y = 2");
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "x = y")));
  EXPECT_TRUE(D.entails(J, A(Ctx, "0 <= x")));
  EXPECT_TRUE(D.entails(J, A(Ctx, "x <= 2")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "x = 0")));
}

TEST_F(PolyDomainTest, JoinOfBoxes) {
  Conjunction E1 = C(Ctx, "0 <= x && x <= 1 && 0 <= y && y <= 1");
  Conjunction E2 = C(Ctx, "2 <= x && x <= 3 && 2 <= y && y <= 3");
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "0 <= x")));
  EXPECT_TRUE(D.entails(J, A(Ctx, "x <= 3")));
  // The hull's diagonal face: y <= x + 1 and x <= y + 1.
  EXPECT_TRUE(D.entails(J, A(Ctx, "y <= x + 1")));
  EXPECT_TRUE(D.entails(J, A(Ctx, "x <= y + 1")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "x <= 1")));
}

TEST_F(PolyDomainTest, ExistQuantFourierMotzkin) {
  Conjunction E = C(Ctx, "x <= y && y <= z && 0 <= y");
  Conjunction Q = D.existQuant(E, {T(Ctx, "y")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "x <= z")));
  EXPECT_TRUE(D.entails(Q, A(Ctx, "0 <= z")));
  for (Term V : Q.vars())
    EXPECT_NE(V, T(Ctx, "y"));
}

TEST_F(PolyDomainTest, ExistQuantKeepsUnrelated) {
  Conjunction E = C(Ctx, "x <= 3 && y <= 4");
  Conjunction Q = D.existQuant(E, {T(Ctx, "y")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "x <= 3")));
  EXPECT_FALSE(D.entails(Q, A(Ctx, "y <= 4")));
}

TEST_F(PolyDomainTest, ExistQuantDropsRedundantRows) {
  // x <= z follows from the other two rows; the canonical output, here of
  // a projection that eliminates nothing, leaves it out.
  Conjunction E = C(Ctx, "x <= y && y <= z && x <= z");
  Conjunction Q = D.existQuant(E, {T(Ctx, "w")});
  EXPECT_EQ(Q.atoms().size(), 2u);
  EXPECT_TRUE(D.equivalent(Q, E));
}

TEST_F(PolyDomainTest, AlternateViaAffineHull) {
  Conjunction E = C(Ctx, "x <= y + 1 && y + 1 <= x && y <= z && z <= y");
  // x = y + 1 (implicit) and y = z: alternate for x avoiding y gives z + 1.
  std::optional<Term> Alt = D.alternate(E, T(Ctx, "x"), {T(Ctx, "y")});
  ASSERT_TRUE(Alt);
  EXPECT_FALSE(occursIn(T(Ctx, "y"), *Alt));
  EXPECT_TRUE(D.entails(E, Atom::mkEq(Ctx, T(Ctx, "x"), *Alt)));
}

TEST_F(PolyDomainTest, WidenDropsUnstableBounds) {
  Conjunction Old = C(Ctx, "0 <= x && x <= 1");
  Conjunction New = C(Ctx, "0 <= x && x <= 2");
  Conjunction W = D.widen(Old, New);
  EXPECT_TRUE(D.entails(W, A(Ctx, "0 <= x")));
  EXPECT_FALSE(D.entails(W, A(Ctx, "x <= 2")));
  EXPECT_FALSE(D.entails(W, A(Ctx, "x <= 100")));
}

TEST_F(PolyDomainTest, MixedEqualitiesAndInequalities) {
  Conjunction E = C(Ctx, "x = 2*y && 1 <= y && y <= 3");
  EXPECT_TRUE(D.entails(E, A(Ctx, "2 <= x")));
  EXPECT_TRUE(D.entails(E, A(Ctx, "x <= 6")));
  Conjunction Q = D.existQuant(E, {T(Ctx, "y")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "2 <= x")));
  EXPECT_TRUE(D.entails(Q, A(Ctx, "x <= 6")));
}

TEST_F(PolyDomainTest, OpaqueTermsAreTracked) {
  // F(y) is a single opaque cell for the polyhedra domain.
  Conjunction E = C(Ctx, "x <= F(y) && F(y) <= z");
  EXPECT_TRUE(D.entails(E, A(Ctx, "x <= z")));
  Conjunction Q = D.existQuant(E, {T(Ctx, "y")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "x <= z")));
  EXPECT_FALSE(D.entails(Q, A(Ctx, "x <= F(y)")));
}

TEST_F(PolyDomainTest, CanonListAgreesWithMemoOff) {
  PolyDomain Cold(Ctx);
  Cold.setMemoization(false);
  const char *Texts[] = {
      "x <= y && y <= z",           "x = 2*y && 1 <= y && y <= 3",
      "x <= 0 && 1 <= x",           "x + y <= 4 && 0 <= x && 0 <= y",
      "x <= F(y) && F(y) <= z",     "x <= y && y <= x && z <= 5",
      "w = 1 && x + w <= 3",        "x + y <= 1 && 2 <= x && 0 <= y",
      "x = y + 1 && y = z",         "0 <= x && x <= w && w <= 10",
      "x - z <= 2 && z - x <= -2",  "y <= 7 && z = y + 1 && x <= z"};
  std::vector<Conjunction> Es;
  for (const char *Text : Texts)
    Es.push_back(C(Ctx, Text));
  // "x <= q + 1" mentions a column no E has; in "x + q <= q + 6" it
  // cancels.
  std::vector<Atom> Queries = {A(Ctx, "x <= z"), A(Ctx, "x = z + 1"),
                               A(Ctx, "w <= 1"), A(Ctx, "x <= q + 1"),
                               A(Ctx, "x = q"), A(Ctx, "x + q <= q + 6")};
  Term X = T(Ctx, "x"), Y = T(Ctx, "y"), Z = T(Ctx, "z"), W = T(Ctx, "w");

  struct Answers {
    std::vector<bool> Bools;
    std::vector<Conjunction> Conjs;
    std::vector<std::vector<std::pair<Term, Term>>> Pairs;
    std::vector<std::optional<Term>> Terms;
  };
  // Four shuffled rounds over all twelve, every operator on each.
  auto Run = [&](const PolyDomain &Dom) {
    Answers Out;
    std::mt19937 Rng(5);
    std::vector<size_t> Order(Es.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (int Round = 0; Round < 4; ++Round) {
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t K = 0; K < Order.size(); ++K) {
        const Conjunction &E = Es[Order[K]];
        const Conjunction &Next = Es[Order[(K + 1) % Order.size()]];
        Out.Bools.push_back(Dom.isUnsat(E));
        Out.Pairs.push_back(Dom.impliedVarEqualities(E));
        for (const Atom &Q : Queries)
          Out.Bools.push_back(Dom.entails(E, Q));
        Out.Conjs.push_back(Dom.existQuant(E, {X}));
        Out.Conjs.push_back(Dom.existQuant(E, {Y, Z}));
        Out.Terms.push_back(Dom.alternate(E, X, {Y}));
        Out.Terms.push_back(Dom.alternate(E, W, {}));
        Out.Pairs.push_back(Dom.alternateBatch(E, {X, Y}));
        Out.Conjs.push_back(Dom.join(E, Next));
        Out.Conjs.push_back(Dom.join(Next, E));
        Out.Conjs.push_back(Dom.widen(E, Next));
      }
    }
    return Out;
  };
  auto Counter = [](const char *Name) -> uint64_t {
    auto Values = obs::MetricsRegistry::global().counterValues();
    auto It = Values.find(Name);
    return It == Values.end() ? 0 : It->second;
  };

  uint64_t Hits0 = Counter("domain.poly.canon_hits");
  uint64_t Misses0 = Counter("domain.poly.canon_misses");
  Answers Warm = Run(D);
  uint64_t Hits = Counter("domain.poly.canon_hits") - Hits0;
  uint64_t Misses = Counter("domain.poly.canon_misses") - Misses0;
  Answers Reference = Run(Cold);
  uint64_t ColdBuilds = Counter("domain.poly.canon_misses") - Misses0 - Misses;

  EXPECT_EQ(Warm.Bools, Reference.Bools);
  EXPECT_EQ(Warm.Conjs, Reference.Conjs);
  EXPECT_EQ(Warm.Pairs, Reference.Pairs);
  EXPECT_EQ(Warm.Terms, Reference.Terms);
  // Both kinds of E are in the mix, and the foreign column decides by
  // emptiness: entailed by the empty E only.
  EXPECT_TRUE(D.isUnsat(Es[2]));
  EXPECT_TRUE(D.entails(Es[2], Queries[3]));
  EXPECT_FALSE(D.isUnsat(Es[0]));
  EXPECT_FALSE(D.entails(Es[0], Queries[3]));
  EXPECT_TRUE(D.entails(Es[1], Queries[5]));

  // Both runs ask for the same structured forms; with memoization off each
  // is built anew.  The list answers some, and the shuffled rounds bring
  // back conjunctions it has evicted, which are built a second time.
  EXPECT_EQ(Hits + Misses, ColdBuilds);
  EXPECT_GT(Hits, 0u);
  EXPECT_GT(Misses, Es.size());
}

// Property sweep: the hull is an upper bound and is commutative.
class PolyJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolyJoinProperty, HullUpperBound) {
  TermContext Ctx;
  PolyDomain D(Ctx);
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> Coef(-3, 3);
  const char *Vars[] = {"x", "y", "z"};
  auto RandomConj = [&]() {
    Conjunction Out;
    for (int R = 0; R < 3; ++R) {
      LinearExpr E;
      for (const char *V : Vars)
        E.addTerm(Ctx.mkVar(V), Rational(Coef(Rng)));
      Out.add(Atom::mkLe(Ctx, E.toTerm(Ctx), Ctx.mkNum(Coef(Rng))));
    }
    return Out;
  };
  for (int Trial = 0; Trial < 20; ++Trial) {
    Conjunction E1 = RandomConj(), E2 = RandomConj();
    if (D.isUnsat(E1) || D.isUnsat(E2))
      continue;
    Conjunction J = D.join(E1, E2);
    for (const Atom &At : J.atoms()) {
      EXPECT_TRUE(D.entails(E1, At)) << toString(Ctx, At);
      EXPECT_TRUE(D.entails(E2, At)) << toString(Ctx, At);
    }
    Conjunction J2 = D.join(E2, E1);
    EXPECT_TRUE(D.entailsAll(J, J2));
    EXPECT_TRUE(D.entailsAll(J2, J));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolyJoinProperty, ::testing::Values(7, 8, 9));
