//===- tests/purify_edge_test.cpp - Purification corner cases --------------===//
///
/// Edge semantics of the Nelson-Oppen plumbing that the worked examples
/// do not reach: numeral aliens, shared var=var facts, symbols neither
/// theory owns, alien memoization, non-disjoint signatures, and the
/// conservative-extension property.
///
//===----------------------------------------------------------------------===//

#include "domains/affine/AffineDomain.h"
#include "domains/parity/ParityDomain.h"
#include "domains/sign/SignDomain.h"
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

class PurifyEdgeTest : public ::testing::Test {
protected:
  TermContext Ctx;
  AffineDomain LA{Ctx};
  UFDomain UF{Ctx};
  LogicalProduct LAUF{Ctx, LA, UF};
};

} // namespace

TEST_F(PurifyEdgeTest, NumeralUnderUFIsAlien) {
  // F(1): the numeral belongs to arithmetic, so it is named with a fresh
  // variable whose definition lands on the arithmetic side.
  Conjunction E = C(Ctx, "x = F(1)");
  PurifyResult P = purify(Ctx, LA, UF, E);
  ASSERT_EQ(P.FreshVars.size(), 1u);
  Term Fresh = P.FreshVars[0];
  EXPECT_TRUE(LA.entails(P.Side1, Atom::mkEq(Ctx, Fresh, Ctx.mkNum(1))));
  // The UF side sees x = F($fresh).
  bool SawApp = false;
  for (const Atom &At : P.Side2.atoms())
    for (Term Arg : At.args())
      SawApp |= Arg->isApp() && occursIn(Fresh, Arg);
  EXPECT_TRUE(SawApp);
}

TEST_F(PurifyEdgeTest, AlienTermsAreMemoized) {
  // The same alien occurring three times gets ONE fresh variable.
  Conjunction E = C(Ctx, "x = F(a + 1) && y = F(a + 1) && z = F(a + 1) + 2");
  PurifyResult P = purify(Ctx, LA, UF, E);
  // Aliens: a+1 (arith under F) and F(a+1) (UF under +): two fresh vars.
  EXPECT_EQ(P.FreshVars.size(), 2u);
}

TEST_F(PurifyEdgeTest, VarVarEqualityGoesToBothSides) {
  Conjunction E = C(Ctx, "x = y");
  PurifyResult P = purify(Ctx, LA, UF, E);
  EXPECT_TRUE(LA.entails(P.Side1, A(Ctx, "x = y")));
  EXPECT_TRUE(UF.entails(P.Side2, A(Ctx, "x = y")));
  EXPECT_TRUE(P.FreshVars.empty());
}

TEST_F(PurifyEdgeTest, ConservativeExtension) {
  // E1 ∧ E2 must imply everything E implied (over the original variables).
  Conjunction E = C(Ctx, "x3 <= F(2*x2 - x1) && x1 = F(x1)");
  PurifyResult P = purify(Ctx, LA, UF, E);
  Conjunction Both = P.Side1.meet(P.Side2);
  EXPECT_TRUE(LAUF.entails(Both, A(Ctx, "x1 = F(x1)")));
  EXPECT_TRUE(LAUF.entails(Both, A(Ctx, "F(x1) = F(F(x1))")));
}

TEST_F(PurifyEdgeTest, UnownedFunctionSymbolHavocs) {
  // A lattice pair that owns neither 'mystery' nor numerals on the UF
  // side: the subterm becomes an unconstrained fresh variable (sound).
  TermContext Ctx2;
  AffineDomain LA2(Ctx2);
  UFDomain UF2(Ctx2, {Ctx2.getFunction("mystery", 1)});
  Conjunction E = cai::test::C(Ctx2, "x = mystery(y) + 1");
  PurifyResult P = purify(Ctx2, LA2, UF2, E);
  // x = $h + 1 with $h unconstrained: x - 1 = $h derivable, nothing else.
  EXPECT_FALSE(LogicalProduct(Ctx2, LA2, UF2)
                   .entails(P.Side1.meet(P.Side2),
                            cai::test::A(Ctx2, "x = y + 1")));
}

TEST_F(PurifyEdgeTest, BothArithmeticOwnersShareEqualities) {
  // Parity and sign both own numerals (non-disjoint): pure arithmetic
  // equalities must reach BOTH sides, which is what makes the Figure 8
  // reproduction produce odd(x) at all.
  TermContext Ctx2;
  ParityDomain Parity(Ctx2);
  SignDomain Sign(Ctx2);
  Conjunction E = cai::test::C(Ctx2, "even(x0) && positive(x0) && x = x0 - 1");
  PurifyResult P = purify(Ctx2, Parity, Sign, E);
  EXPECT_TRUE(Parity.entails(P.Side1, cai::test::A(Ctx2, "x = x0 - 1")));
  EXPECT_TRUE(Sign.entails(P.Side2, cai::test::A(Ctx2, "x = x0 - 1")));
}

TEST_F(PurifyEdgeTest, AlienTermsOrderAndDedup) {
  Conjunction E = C(Ctx, "x = F(y + 1) && z = F(y + 1)");
  std::vector<Term> Aliens = alienTerms(Ctx, LA, UF, E);
  // y+1 once, despite two occurrences; F-terms are not alien here (they
  // occur under '=', whose side is decided by the F application itself).
  ASSERT_EQ(Aliens.size(), 1u);
  EXPECT_EQ(Aliens[0], T(Ctx, "y + 1"));
}

TEST_F(PurifyEdgeTest, SaturationSharesThroughConstants) {
  // Equal constants force a variable equality across theories:
  // LA: x = 3 && y = 3 implies x = y, which UF needs for congruence.
  Conjunction E1 = C(Ctx, "x = 3 && y = 3");
  Conjunction E2 = C(Ctx, "a = F(x) && b = F(y)");
  SaturationResult S = noSaturate(Ctx, LA, UF, E1, E2);
  ASSERT_FALSE(S.Bottom);
  EXPECT_TRUE(UF.entails(S.Side2, A(Ctx, "a = b")));
}

TEST_F(PurifyEdgeTest, SaturationIsIdempotent) {
  Conjunction E1 = C(Ctx, "x = y + 1 && z = y + 1");
  Conjunction E2 = C(Ctx, "a = F(x) && b = F(z)");
  SaturationResult S1 = noSaturate(Ctx, LA, UF, E1, E2);
  ASSERT_FALSE(S1.Bottom);
  SaturationResult S2 = noSaturate(Ctx, LA, UF, S1.Side1, S1.Side2);
  ASSERT_FALSE(S2.Bottom);
  // A re-run may spend one round writing down equalities that were only
  // *derivable* before (transitive pairs), but nothing semantic changes.
  EXPECT_LE(S2.Rounds, 2u);
  EXPECT_TRUE(LA.entailsAll(S1.Side1, S2.Side1));
  EXPECT_TRUE(UF.entailsAll(S1.Side2, S2.Side2));
}

TEST_F(PurifyEdgeTest, EntailmentOfFreshMixedAtom) {
  // The queried fact introduces an alien the left-hand side never
  // mentions; the shared purification pass must extend conservatively.
  Conjunction E = C(Ctx, "x = y + 2 && u = F(y + 2)");
  EXPECT_TRUE(LAUF.entails(E, A(Ctx, "u = F(x)")));
  EXPECT_FALSE(LAUF.entails(E, A(Ctx, "u = F(x + 1)")));
}

TEST_F(PurifyEdgeTest, BottomInputsShortCircuit) {
  PurifyResult P = purify(Ctx, LA, UF, Conjunction::bottom());
  EXPECT_TRUE(P.Side1.isBottom());
  EXPECT_TRUE(P.Side2.isBottom());
  SaturationResult S =
      noSaturate(Ctx, LA, UF, Conjunction::bottom(), Conjunction::top());
  EXPECT_TRUE(S.Bottom);
}
