//===- tests/product_join_test.cpp - The Figure 6 join algorithm -----------===//

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "obs/Metrics.h"
#include "product/DirectProduct.h"
#include "product/LogicalProduct.h"

#include "TestUtil.h"

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

namespace {

class ProductJoinTest : public ::testing::Test {
protected:
  TermContext Ctx;
  AffineDomain LA{Ctx};
  UFDomain UF{Ctx};
  LogicalProduct Logical{Ctx, LA, UF};
  LogicalProduct Reduced{Ctx, LA, UF, LogicalProduct::Mode::Reduced};
  DirectProduct Direct{Ctx, LA, UF};
};

} // namespace

TEST_F(ProductJoinTest, Figure6WorkedExample) {
  // E_l = (u = F(w)) && (w = v + 1),  E_r = (u = F(u)) && (v = F(u) - 1).
  Conjunction El = C(Ctx, "u = F(w) && w = v + 1");
  Conjunction Er = C(Ctx, "u = F(u) && v = F(u) - 1");
  Conjunction J = Logical.join(El, Er);
  // The paper's result: u = F(v + 1).
  EXPECT_TRUE(Logical.entails(J, A(Ctx, "u = F(v + 1)")))
      << toString(Ctx, J);
  // And the result is sound: implied by both inputs.
  EXPECT_TRUE(Logical.entails(El, A(Ctx, "u = F(v + 1)")));
  EXPECT_TRUE(Logical.entails(Er, A(Ctx, "u = F(v + 1)")));
  // Nothing one-sided leaks through.
  EXPECT_FALSE(Logical.entails(J, A(Ctx, "w = v + 1")));
  EXPECT_FALSE(Logical.entails(J, A(Ctx, "u = F(u)")));
}

TEST_F(ProductJoinTest, Figure6ReducedProductMissesMixedFact) {
  Conjunction El = C(Ctx, "u = F(w) && w = v + 1");
  Conjunction Er = C(Ctx, "u = F(u) && v = F(u) - 1");
  Conjunction J = Reduced.join(El, Er);
  // The reduced product cannot represent the mixed fact u = F(v + 1).
  EXPECT_FALSE(Reduced.entails(J, A(Ctx, "u = F(v + 1)")))
      << toString(Ctx, J);
}

TEST_F(ProductJoinTest, Figure3SwapJoin) {
  // E1 = (x = a && y = b), E2 = (x = b && y = a): the LA part of the join
  // is x + y = a + b and the UF part is empty; the logical product must
  // produce a finite element that still entails the LA fact.
  Conjunction E1 = C(Ctx, "x = a && y = b");
  Conjunction E2 = C(Ctx, "x = b && y = a");
  Conjunction J = Logical.join(E1, E2);
  EXPECT_TRUE(Logical.entails(J, A(Ctx, "x + y = a + b")));
  EXPECT_FALSE(Logical.entails(J, A(Ctx, "x = a")));
  // The infinite family F(x+c) + F(y+c) = F(a+c) + F(b+c) is implied by
  // both sides but not atomic/representable; spot-check soundness of the
  // claim for c = 0 on the inputs (not on J).
  Conjunction WithF1 = E1;
  Conjunction WithF2 = E2;
  EXPECT_TRUE(
      Logical.entails(WithF1, A(Ctx, "F(x) + F(y) = F(a) + F(b)")));
  EXPECT_TRUE(
      Logical.entails(WithF2, A(Ctx, "F(x) + F(y) = F(a) + F(b)")));
}

TEST_F(ProductJoinTest, Figure4JoinSemanticAlienNaming) {
  // E1 = x = F(a+1) && y = a, E2 = x = F(b+1) && y = b.
  // The join is x = F(y + 1): the alien y+1 occurs only *semantically*
  // (via y = a resp. y = b), which is exactly what the dummy-variable
  // block of Figure 6 recovers.
  Conjunction E1 = C(Ctx, "x = F(a + 1) && y = a");
  Conjunction E2 = C(Ctx, "x = F(b + 1) && y = b");
  Conjunction J = Logical.join(E1, E2);
  EXPECT_TRUE(Logical.entails(J, A(Ctx, "x = F(y + 1)")))
      << toString(Ctx, J);
  EXPECT_FALSE(Logical.entails(J, A(Ctx, "y = a")));
}

TEST_F(ProductJoinTest, PrecisionOrderingOnFigure1Snapshots) {
  // States after one iteration of the Figure 1 loop on the two c-tracks.
  Conjunction E1 = C(Ctx, "c1 = 2 && c2 = 2");
  Conjunction E2 = C(Ctx, "c1 = F(c2a) && c2 = F(c2a) && c2a = 2");
  Conjunction JL = Logical.join(E1, E2);
  Conjunction JD = Direct.join(E1, E2);
  // Both keep c1 = c2; the ordering direct <= reduced <= logical is
  // checked via entailment of everything direct found.
  EXPECT_TRUE(Logical.entails(JL, A(Ctx, "c1 = c2")));
  if (!JD.isBottom()) {
    for (const Atom &At : JD.atoms())
      EXPECT_TRUE(Logical.entails(JL, At)) << toString(Ctx, At);
  }
}

TEST_F(ProductJoinTest, JoinWithBottomAndTop) {
  Conjunction E = C(Ctx, "x = F(y) && y = 3");
  EXPECT_TRUE(
      Logical.entails(Logical.join(E, Conjunction::bottom()), A(Ctx, "y = 3")));
  EXPECT_TRUE(
      Logical.entails(Logical.join(Conjunction::bottom(), E), A(Ctx, "y = 3")));
  EXPECT_TRUE(Logical.join(E, Conjunction::top()).isTop());
}

TEST_F(ProductJoinTest, JoinSoundnessRandomized) {
  std::mt19937 Rng(99);
  std::uniform_int_distribution<int> Pick(0, 5);
  const char *Menu[] = {"x = y + 1", "x = F(y)",     "y = F(F(z))",
                        "z = 2",     "x = F(y) + 1", "y = z"};
  for (int Trial = 0; Trial < 25; ++Trial) {
    Conjunction E1, E2;
    for (int K = 0; K < 3; ++K) {
      E1.add(A(Ctx, Menu[Pick(Rng)]));
      E2.add(A(Ctx, Menu[Pick(Rng)]));
    }
    if (Logical.isUnsat(E1) || Logical.isUnsat(E2))
      continue;
    Conjunction J = Logical.join(E1, E2);
    ASSERT_FALSE(J.isBottom());
    for (const Atom &At : J.atoms()) {
      EXPECT_TRUE(Logical.entails(E1, At))
          << "trial " << Trial << ": " << toString(Ctx, At);
      EXPECT_TRUE(Logical.entails(E2, At))
          << "trial " << Trial << ": " << toString(Ctx, At);
    }
  }
}

TEST_F(ProductJoinTest, JoinIdempotentUpToEquivalence) {
  // A self-join purifies its right side afresh, without the table, so the
  // two sides' purification names stay disjoint.  Shared names would
  // survive the component joins: the first input's alien y + 1 would
  // reach the result as a purification variable, which the vars check
  // catches (the product's own entailment reuses E's cached naming and
  // cannot).  The second input is alien-free, so its pruned dummy-pair
  // set is empty and the join rests on the two purifications alone.
  for (const char *Src : {"x = F(y + 1) && y = 2 && z = F(x)",
                          "x = y + 1 && y = 2 && z = x + y"}) {
    Conjunction E = C(Ctx, Src);
    Conjunction J = Logical.join(E, E);
    EXPECT_TRUE(Logical.entailsAll(E, J)) << Src;
    EXPECT_TRUE(Logical.entailsAll(J, E)) << Src;
    std::vector<Term> EV = E.vars(), JV = J.vars();
    EXPECT_TRUE(std::includes(EV.begin(), EV.end(), JV.begin(), JV.end(),
                              TermStructLess()))
        << Src << " joined to " << toString(Ctx, J);
  }
}

TEST_F(ProductJoinTest, ProductVEAndAlternate) {
  Conjunction E = C(Ctx, "x = F(w) && y = F(w) && w = z + 1");
  // VE: x = y via the UF side.
  std::vector<std::pair<Term, Term>> Eqs = Logical.impliedVarEqualities(E);
  bool Found = false;
  for (const auto &[L, R] : Eqs)
    Found |= (L == T(Ctx, "x") && R == T(Ctx, "y")) ||
             (L == T(Ctx, "y") && R == T(Ctx, "x"));
  EXPECT_TRUE(Found);
  // Alternate for x avoiding w routes through the mixed term F(z + 1).
  std::optional<Term> Alt = Logical.alternate(E, T(Ctx, "x"), {T(Ctx, "w")});
  ASSERT_TRUE(Alt);
  EXPECT_FALSE(occursIn(T(Ctx, "w"), *Alt));
  EXPECT_TRUE(Logical.entails(E, Atom::mkEq(Ctx, T(Ctx, "x"), *Alt)));
}

TEST_F(ProductJoinTest, DirectProductIsComponentwise) {
  Conjunction E1 = C(Ctx, "a2 = 2 && a1 = 1");
  Conjunction E2 = C(Ctx, "a2 = 4 && a1 = 2");
  Conjunction J = Direct.join(E1, E2);
  EXPECT_TRUE(Direct.entails(J, A(Ctx, "a2 = 2*a1")));
  EXPECT_FALSE(Direct.entails(J, A(Ctx, "a1 = 1")));
}

TEST_F(ProductJoinTest, WidenIsUpperBound) {
  Conjunction E1 = C(Ctx, "x = F(y) && y = 1");
  Conjunction E2 = C(Ctx, "x = F(y) && y = 2");
  Conjunction W = Logical.widen(E1, E2);
  for (const Atom &At : W.atoms()) {
    EXPECT_TRUE(Logical.entails(E1, At));
    EXPECT_TRUE(Logical.entails(E2, At));
  }
  EXPECT_TRUE(Logical.entails(W, A(Ctx, "x = F(y)")));
}

// The affine side of the default (pruned) product sees only the dummy
// pairs the UF join keeps.  On the Figure 1 program that is fewer than
// Figure 6 offers, and the verdicts equal the literal scheme's: all four
// assertions verified.
TEST_F(ProductJoinTest, Figure1AffineSideGetsOnlyKeptPairs) {
  std::ifstream In(CAI_TESTDATA_DIR "/fig1.imp");
  ASSERT_TRUE(In);
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, Text.str(), &Error);
  ASSERT_TRUE(P) << Error;

  LogicalProduct Full{Ctx, LA, UF, LogicalProduct::Mode::Logical,
                      LogicalProduct::DummyPairs::Full};
  auto Verdicts = [&](const LogicalLattice &L) {
    AnalysisResult R = Analyzer(L).run(*P);
    EXPECT_TRUE(R.Converged) << L.name();
    std::vector<bool> Out;
    for (const AssertionVerdict &V : R.Assertions)
      Out.push_back(V.Verified);
    return Out;
  };
  auto Counter = [](const char *Name) -> uint64_t {
    auto Values = obs::MetricsRegistry::global().counterValues();
    auto It = Values.find(Name);
    return It == Values.end() ? 0 : It->second;
  };

  uint64_t Offered0 = Counter("product.pairs.offered");
  uint64_t Kept0 = Counter("product.pairs.kept");
  std::vector<bool> Pruned = Verdicts(Logical);
  uint64_t Offered = Counter("product.pairs.offered") - Offered0;
  uint64_t Kept = Counter("product.pairs.kept") - Kept0;
  EXPECT_EQ(Pruned, std::vector<bool>(4, true));
  EXPECT_EQ(Verdicts(Full), Pruned);
  EXPECT_GT(Kept, 0u);
  EXPECT_LT(Kept, Offered);
}

// Entailment reuses E's saturated sides: once E's purification and
// saturation are cached, a fact that names no new alien term runs no
// Nelson-Oppen saturation; a fact that does still saturates, and is found.
TEST_F(ProductJoinTest, EntailmentSaturatesOnlyForNewAliens) {
  auto Rounds = [&] {
    LatticeStats S;
    Logical.collectStats(S);
    return S.SaturationRounds;
  };
  Conjunction E = C(Ctx, "y = F(z) && z = x + 1 && w = G(y, x)");
  ASSERT_FALSE(Logical.isUnsat(E)); // Caches E's entry.
  unsigned long Before = Rounds();
  EXPECT_TRUE(Logical.entailsAll(E, E));
  EXPECT_EQ(Rounds() - Before, 0u);
  Before = Rounds();
  EXPECT_TRUE(Logical.entails(E, A(Ctx, "y = F(x + 1)")));
  EXPECT_GT(Rounds() - Before, 0u);
}

// Substituting QSaturation's definitions at once, each resolved against
// the earlier ones, gives what substituting them one at a time, most
// recent first, gives: definition I mentions only variables defined
// before it.
TEST_F(ProductJoinTest, OnePassBackSubstitutionMatchesSequential) {
  std::mt19937 Rng(53);
  Symbol F = Ctx.getFunction("F", 1);
  Symbol G = Ctx.getFunction("G", 2);
  std::vector<Term> Base = {Ctx.mkVar("a"), Ctx.mkVar("b"), Ctx.mkVar("c")};
  for (int Trial = 0; Trial < 200; ++Trial) {
    // A chain x0 .. x(n-1): definition I over the base variables and
    // x0 .. x(I-1).
    size_t N = 1 + Rng() % 6;
    std::vector<Term> Defined;
    std::vector<std::pair<Term, Term>> Defs;
    for (size_t I = 0; I < N; ++I) {
      std::vector<Term> Allowed = Base;
      Allowed.insert(Allowed.end(), Defined.begin(), Defined.end());
      auto Pick = [&] { return Allowed[Rng() % Allowed.size()]; };
      Term Def;
      switch (Rng() % 3) {
      case 0:
        Def = Ctx.mkApp(F, {Pick()});
        break;
      case 1:
        Def = Ctx.mkApp(G, {Pick(), Ctx.mkAdd(Pick(), Ctx.mkNum(1))});
        break;
      default:
        Def = Ctx.mkAdd(Ctx.mkMul(Rational(2), Pick()),
                        Ctx.mkSub(Pick(), Ctx.mkNum(3)));
        break;
      }
      Term X = Ctx.mkVar(std::string("x").append(std::to_string(I)));
      Defs.emplace_back(X, Def);
      Defined.push_back(X);
    }
    // E mentions the defined variables in equalities, sums and under F.
    Conjunction::AtomList Atoms;
    for (size_t K = 0; K < 4; ++K) {
      Term L = Defined[Rng() % N], R = Defined[Rng() % N];
      Atoms.push_back(Atom::mkEq(Ctx, Ctx.mkAdd(L, Base[K % 3]),
                                 Ctx.mkApp(F, {R})));
      Atoms.push_back(Atom::mkEq(Ctx, L, R));
    }
    Conjunction E = Conjunction::of(std::move(Atoms));
    Conjunction Sequential = E;
    for (auto It = Defs.rbegin(); It != Defs.rend(); ++It) {
      Substitution S;
      S.emplace(It->first, It->second);
      Sequential = Sequential.substitute(Ctx, S);
    }
    Conjunction OnePass = Logical.backSubstitute(E, Defs);
    EXPECT_EQ(OnePass, Sequential) << toString(Ctx, OnePass) << " vs "
                                   << toString(Ctx, Sequential);
    EXPECT_EQ(OnePass.fingerprint(), Sequential.fingerprint());
  }
  EXPECT_EQ(Logical.backSubstitute(C(Ctx, "x = F(y)"), {}),
            C(Ctx, "x = F(y)"));
}
