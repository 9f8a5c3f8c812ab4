//===- tests/theory_test.cpp - Purify, NOSaturation, entailment ------------===//
///
/// Reproduces the Figure 2 worked example (AlienTerms, Purify,
/// NOSaturation over linear arithmetic + uninterpreted functions) and
/// exercises combined entailment through the logical product.
///
//===----------------------------------------------------------------------===//

#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "product/LogicalProduct.h"
#include "theory/NelsonOppen.h"
#include "theory/Purify.h"

#include "TestUtil.h"

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

namespace {

class TheoryTest : public ::testing::Test {
protected:
  TermContext Ctx;
  PolyDomain LA{Ctx}; // Linear arithmetic with inequalities (Figure 2).
  AffineDomain LAeq{Ctx};
  UFDomain UF{Ctx};
  LogicalProduct LAUF{Ctx, LA, UF};
  LogicalProduct LAeqUF{Ctx, LAeq, UF};
};

} // namespace

TEST_F(TheoryTest, AlienTermsOfFigure2) {
  // E = x3 <= F(2x2 - x1) && x1 <= x3 && x1 = F(x1) && x2 = F(F(x1)).
  Conjunction E = C(Ctx, "x3 <= F(2*x2 - x1) && x1 <= x3 && x1 = F(x1) && "
                         "x2 = F(F(x1))");
  std::vector<Term> Aliens = alienTerms(Ctx, LA, UF, E);
  // The paper lists {2x2 - x1, F(2x2 - x1)}.
  EXPECT_EQ(Aliens.size(), 2u);
  Term Inner = T(Ctx, "2*x2 - x1");
  Term Outer = T(Ctx, "F(2*x2 - x1)");
  EXPECT_NE(std::find(Aliens.begin(), Aliens.end(), Inner), Aliens.end());
  EXPECT_NE(std::find(Aliens.begin(), Aliens.end(), Outer), Aliens.end());
}

TEST_F(TheoryTest, PurifyFigure2Shape) {
  Conjunction E = C(Ctx, "x3 <= F(2*x2 - x1) && x1 <= x3 && x1 = F(x1) && "
                         "x2 = F(F(x1))");
  PurifyResult P = purify(Ctx, LA, UF, E);
  // Two fresh variables: t1 = 2x2 - x1 (arith side), t2 = F(t1) (UF side).
  EXPECT_EQ(P.FreshVars.size(), 2u);
  // Side 1 speaks only arithmetic; side 2 only uninterpreted functions.
  for (const Atom &At : P.Side1.atoms())
    for (Term Arg : At.args()) {
      std::optional<LinearExpr> L = LinearExpr::fromTerm(Ctx, Arg);
      ASSERT_TRUE(L);
      EXPECT_TRUE(L->allVars()) << toString(Ctx, At);
    }
  bool SawF = false;
  for (const Atom &At : P.Side2.atoms())
    for (Term Arg : At.args())
      SawF |= Arg->isApp();
  EXPECT_TRUE(SawF);
  // Conservative extension: conjunction of both sides still implies E's
  // pure atoms.
  Conjunction Everything = P.Side1.meet(P.Side2);
  EXPECT_TRUE(UF.entails(Everything, A(Ctx, "x1 = F(x1)")));
}

TEST_F(TheoryTest, NoSaturationFigure2) {
  // After purification: E1 = t1 = 2x2 - x1 && x3 <= t2 && x1 <= x3,
  //                     E2 = t2 = F(t1) && x1 = F(x1) && x2 = F(F(x1)).
  Conjunction E1 = C(Ctx, "t1 = 2*x2 - x1 && x3 <= t2 && x1 <= x3");
  Conjunction E2 = C(Ctx, "t2 = F(t1) && x1 = F(x1) && x2 = F(F(x1))");
  SaturationResult S = noSaturate(Ctx, LA, UF, E1, E2);
  ASSERT_FALSE(S.Bottom);
  // The paper's E': x1 = x2, x1 = t1, x1 = t2, x1 = x3 on both sides.
  const char *Expected[] = {"x1 = x2", "x1 = t1", "x1 = t2", "x1 = x3"};
  for (const char *Fact : Expected) {
    EXPECT_TRUE(LA.entails(S.Side1, A(Ctx, Fact))) << Fact;
    EXPECT_TRUE(UF.entails(S.Side2, A(Ctx, Fact))) << Fact;
  }
  EXPECT_GE(S.Rounds, 2u); // Equalities genuinely ping-pong.
}

TEST_F(TheoryTest, NoSaturationDetectsCombinedUnsat) {
  // x = y forced by UF, x = y + 1 forced by arithmetic.
  Conjunction E1 = C(Ctx, "x = y + 1");
  Conjunction E2 = C(Ctx, "F(x) = a && F(y) = b && x = y");
  SaturationResult S = noSaturate(Ctx, LAeq, UF, E1, E2);
  EXPECT_TRUE(S.Bottom);
}

TEST_F(TheoryTest, NoSaturationNoFalsePropagation) {
  Conjunction E1 = C(Ctx, "x = y + 1");
  Conjunction E2 = C(Ctx, "a = F(x)");
  SaturationResult S = noSaturate(Ctx, LAeq, UF, E1, E2);
  ASSERT_FALSE(S.Bottom);
  EXPECT_FALSE(UF.entails(S.Side2, A(Ctx, "x = y")));
}

TEST_F(TheoryTest, CombinedEntailmentPureFacts) {
  Conjunction E = C(Ctx, "x = y && a = F(x) && b = F(y)");
  EXPECT_TRUE(LAeqUF.entails(E, A(Ctx, "a = b")));
  EXPECT_TRUE(LAeqUF.entails(E, A(Ctx, "x = y")));
  EXPECT_FALSE(LAeqUF.entails(E, A(Ctx, "a = x")));
}

TEST_F(TheoryTest, CombinedEntailmentMixedFacts) {
  // The Figure 1 assertion pattern: d2 = F(d1 + 1).
  Conjunction E = C(Ctx, "d2 = F(w) && w = d1 + 1");
  EXPECT_TRUE(LAeqUF.entails(E, A(Ctx, "d2 = F(d1 + 1)")));
  EXPECT_FALSE(LAeqUF.entails(E, A(Ctx, "d2 = F(d1)")));
}

TEST_F(TheoryTest, CombinedEntailmentCrossTheoryChain) {
  // Arithmetic forces u = v; congruence then forces F(u) = F(v); then
  // arithmetic again: F(u) + 1 = F(v) + 1.
  Conjunction E = C(Ctx, "u = w + 1 && v = w + 1 && a = F(u) && b = F(v)");
  EXPECT_TRUE(LAeqUF.entails(E, A(Ctx, "a = b")));
  EXPECT_TRUE(LAeqUF.entails(E, A(Ctx, "F(u) + 1 = F(v) + 1")));
}

TEST_F(TheoryTest, CombinedUnsat) {
  EXPECT_TRUE(LAeqUF.isUnsat(C(Ctx, "x = y && F(x) = 1 + z && F(y) = z - 1")));
  EXPECT_FALSE(
      LAeqUF.isUnsat(C(Ctx, "x = y && F(x) = 1 + z && F(y) = z + 1")));
}

TEST_F(TheoryTest, CombinedEntailmentWithInequalities) {
  // Figure 2's squeeze: x3 <= t2, x1 <= x3, x1 = t2 forces x1 = x3.
  Conjunction E = C(Ctx, "x3 <= F(x1) && x1 <= x3 && x1 = F(x1)");
  EXPECT_TRUE(LAUF.entails(E, A(Ctx, "x1 = x3")));
  EXPECT_TRUE(LAUF.entails(E, A(Ctx, "x3 = F(x1)")));
}

TEST_F(TheoryTest, DroppedPredicatesAreConservative) {
  // A predicate neither side owns cannot be entailed (and must not crash).
  Ctx.getPredicate("mystery", 1);
  Conjunction E = C(Ctx, "x = y");
  EXPECT_FALSE(LAeqUF.entails(E, A(Ctx, "mystery(x)")));
}
