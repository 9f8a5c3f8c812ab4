//===- tests/uf_test.cpp - Congruence closure and the UF domain ------------===//

#include "domains/uf/CongruenceClosure.h"
#include "domains/uf/UFDomain.h"

#include "TestUtil.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

namespace {

class UFTest : public ::testing::Test {
protected:
  TermContext Ctx;
  UFDomain D{Ctx};
};

/// The congruence closure of \p Eqs over the terms \p U (closed under
/// subterms), by the textbook quadratic fixpoint: the label of each term
/// is the smallest index of its class.
std::vector<unsigned>
naiveClosure(const std::vector<Term> &U,
             const std::vector<std::pair<Term, Term>> &Eqs) {
  std::vector<unsigned> Label(U.size());
  std::iota(Label.begin(), Label.end(), 0);
  auto IndexOf = [&](Term T) {
    return static_cast<unsigned>(std::find(U.begin(), U.end(), T) - U.begin());
  };
  auto Merge = [&](unsigned A, unsigned B) {
    unsigned Lo = std::min(Label[A], Label[B]);
    unsigned Hi = std::max(Label[A], Label[B]);
    if (Lo == Hi)
      return false;
    for (unsigned &L : Label)
      if (L == Hi)
        L = Lo;
    return true;
  };
  for (const auto &[A, B] : Eqs)
    Merge(IndexOf(A), IndexOf(B));
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned I = 0; I < U.size(); ++I)
      for (unsigned J = I + 1; J < U.size(); ++J) {
        if (!U[I]->isApp() || !U[J]->isApp() ||
            U[I]->symbol() != U[J]->symbol() ||
            U[I]->args().size() != U[J]->args().size())
          continue;
        bool Congruent = true;
        for (size_t K = 0; K < U[I]->args().size() && Congruent; ++K)
          Congruent = Label[IndexOf(U[I]->args()[K])] ==
                      Label[IndexOf(U[J]->args()[K])];
        if (Congruent)
          Changed |= Merge(I, J);
      }
  }
  return Label;
}

} // namespace

TEST_F(UFTest, CongruenceClosureBasics) {
  CongruenceClosure CC(Ctx);
  CC.addEquality(T(Ctx, "x"), T(Ctx, "y"));
  EXPECT_TRUE(CC.areEqual(T(Ctx, "F(x)"), T(Ctx, "F(y)")));
  EXPECT_FALSE(CC.areEqual(T(Ctx, "F(x)"), T(Ctx, "G(y)")));
  EXPECT_TRUE(CC.areEqual(T(Ctx, "F(F(x))"), T(Ctx, "F(F(y))")));
}

TEST_F(UFTest, CongruencePropagatesUpward) {
  CongruenceClosure CC(Ctx);
  CC.addTerm(T(Ctx, "G(F(x), F(y))"));
  CC.addTerm(T(Ctx, "G(F(y), F(x))"));
  EXPECT_FALSE(CC.areEqual(T(Ctx, "G(F(x), F(y))"), T(Ctx, "G(F(y), F(x))")));
  CC.addEquality(T(Ctx, "x"), T(Ctx, "y"));
  EXPECT_TRUE(CC.areEqual(T(Ctx, "G(F(x), F(y))"), T(Ctx, "G(F(y), F(x))")));
}

TEST_F(UFTest, CongruenceTransitiveChains) {
  CongruenceClosure CC(Ctx);
  CC.addEquality(T(Ctx, "a"), T(Ctx, "F(b)"));
  CC.addEquality(T(Ctx, "b"), T(Ctx, "F(c)"));
  CC.addEquality(T(Ctx, "c"), T(Ctx, "d"));
  EXPECT_TRUE(CC.areEqual(T(Ctx, "a"), T(Ctx, "F(F(d))")));
}

TEST_F(UFTest, CyclicEqualitiesAreFine) {
  // u = F(u) is satisfiable in UF; closure must terminate and answer.
  CongruenceClosure CC(Ctx);
  CC.addEquality(T(Ctx, "u"), T(Ctx, "F(u)"));
  EXPECT_TRUE(CC.areEqual(T(Ctx, "u"), T(Ctx, "F(F(u))")));
}

TEST_F(UFTest, EntailsCongruenceFacts) {
  Conjunction E = C(Ctx, "x = y && a = F(x)");
  EXPECT_TRUE(D.entails(E, A(Ctx, "a = F(y)")));
  EXPECT_TRUE(D.entails(E, A(Ctx, "F(a) = F(F(y))")));
  EXPECT_FALSE(D.entails(E, A(Ctx, "a = x")));
}

TEST_F(UFTest, JoinKeepsCommonCongruences) {
  // Common fact b2 = F(b1) (the Figure 1 pattern).
  Conjunction E1 = C(Ctx, "b1 = 1 && b2 = F(1)");
  Conjunction E2 = C(Ctx, "b1 = F(1) && b2 = F(F(1))");
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "b2 = F(b1)")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "b1 = 1")));
}

TEST_F(UFTest, JoinOfSwapIsEmptyInUF) {
  // Figure 3's UF side: no atomic UF fact is implied by both.
  Conjunction E1 = C(Ctx, "x = a && y = b");
  Conjunction E2 = C(Ctx, "x = b && y = a");
  Conjunction J = D.join(E1, E2);
  EXPECT_FALSE(D.entails(J, A(Ctx, "x = a")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "x = y")));
  EXPECT_TRUE(J.isTop()) << toString(Ctx, J);
}

TEST_F(UFTest, JoinWithCycles) {
  // u = F(w), w = v+1 side vs u = F(u), v = F(u)-1: over pure UF terms.
  // Here test a pure-UF cyclic join: {u = F(u)} join {u = F(F(u))}:
  // both imply u = F(F(F(...)))? No finite common fact except none.
  Conjunction E1 = C(Ctx, "u = F(u)");
  Conjunction E2 = C(Ctx, "u = F(F(u))");
  Conjunction J = D.join(E1, E2);
  // u = F(u) is not implied by E2 (F(u) differs from u there).
  EXPECT_FALSE(D.entails(E2, A(Ctx, "u = F(u)")));
  for (const Atom &At : J.atoms()) {
    EXPECT_TRUE(D.entails(E1, At)) << toString(Ctx, At);
    EXPECT_TRUE(D.entails(E2, At)) << toString(Ctx, At);
  }
}

TEST_F(UFTest, JoinEmitsNonVariableEqualities) {
  // Neither side names the class with a variable, yet F(x) = G(y) is
  // common to both.
  Conjunction E1 = C(Ctx, "F(x) = G(y)");
  Conjunction E2 = C(Ctx, "F(x) = G(y)");
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "F(x) = G(y)")));
}

TEST_F(UFTest, ExistQuantDropsAndRewrites) {
  Conjunction E = C(Ctx, "y = F(x) && z = F(x)");
  Conjunction Q = D.existQuant(E, {T(Ctx, "x")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "y = z")));
  for (Term V : Q.vars())
    EXPECT_NE(V, T(Ctx, "x"));
}

TEST_F(UFTest, ExistQuantRewritesThroughClassRep) {
  Conjunction E = C(Ctx, "a = F(x) && b = G(F(x))");
  Conjunction Q = D.existQuant(E, {T(Ctx, "x")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "b = G(a)")));
}

TEST_F(UFTest, ExistQuantEmitsTermTermEqualities) {
  Conjunction E = C(Ctx, "x = F(a) && x = G(b)");
  Conjunction Q = D.existQuant(E, {T(Ctx, "x")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "F(a) = G(b)")));
}

TEST_F(UFTest, ExistQuantLosesUnrecoverableFacts) {
  Conjunction E = C(Ctx, "a = F(x) && b = G(x)");
  Conjunction Q = D.existQuant(E, {T(Ctx, "x")});
  EXPECT_TRUE(Q.isTop()) << toString(Ctx, Q);
}

TEST_F(UFTest, ImpliedVarEqualities) {
  Conjunction E = C(Ctx, "x = F(a) && y = F(b) && a = b");
  std::vector<std::pair<Term, Term>> Eqs = D.impliedVarEqualities(E);
  // Classes: {a, b} and {x, y, F(a), F(b)}: two variable pairs.
  ASSERT_EQ(Eqs.size(), 2u);
  for (const auto &[L, R] : Eqs)
    EXPECT_TRUE(D.entails(E, Atom::mkEq(Ctx, L, R)));
}

TEST_F(UFTest, AlternateUsesCongruence) {
  Conjunction E = C(Ctx, "y = F(x) && z = x");
  std::optional<Term> Alt = D.alternate(E, T(Ctx, "y"), {T(Ctx, "x")});
  ASSERT_TRUE(Alt);
  EXPECT_EQ(*Alt, T(Ctx, "F(z)"));
  // Avoiding both x and z leaves nothing.
  EXPECT_FALSE(D.alternate(E, T(Ctx, "y"), {T(Ctx, "x"), T(Ctx, "z")}));
}

TEST_F(UFTest, WidenCapsDepth) {
  UFDomain Shallow(Ctx, {}, /*WidenDepthCap=*/2);
  Conjunction E1 = C(Ctx, "x = F(F(F(F(a))))");
  Conjunction E2 = C(Ctx, "x = F(F(F(F(a))))");
  Conjunction W = Shallow.widen(E1, E2);
  for (const Atom &At : W.atoms())
    for (Term Arg : At.args())
      EXPECT_LE(termDepth(Arg), 2u);
  // Join keeps it; widen drops it.
  EXPECT_TRUE(D.entails(D.join(E1, E2), A(Ctx, "x = F(F(F(F(a))))")));
}

TEST_F(UFTest, NumbersActAsSharedConstants) {
  Conjunction E1 = C(Ctx, "x = F(1)");
  Conjunction E2 = C(Ctx, "x = F(1)");
  EXPECT_TRUE(D.entails(D.join(E1, E2), A(Ctx, "x = F(1)")));
  // But 1 and 2 are never conflated.
  Conjunction E3 = C(Ctx, "x = F(1) && y = F(2)");
  EXPECT_FALSE(D.entails(E3, A(Ctx, "x = y")));
}

// A seeded differential of the congruence closure against the quadratic
// one above: random equalities among F/G terms of depth at most 3, then
// areEqual queries, some on new applications congruent to existing nodes.
// Every find, every query and allClasses must agree with the naive
// partition over the closure's own nodes.
TEST_F(UFTest, CongruenceClosureMatchesNaiveClosure) {
  std::mt19937 Rng(31);
  Symbol F = Ctx.getFunction("F", 1), G = Ctx.getFunction("G", 2);
  std::vector<Term> Leaves = {T(Ctx, "a"), T(Ctx, "b"), T(Ctx, "c"),
                              T(Ctx, "d")};
  std::function<Term(int)> Draw = [&](int Depth) -> Term {
    if (Depth == 1 || Rng() % 3 == 0)
      return Leaves[Rng() % Leaves.size()];
    if (Rng() % 2)
      return Ctx.mkApp(F, {Draw(Depth - 1)});
    return Ctx.mkApp(G, {Draw(Depth - 1), Draw(Depth - 1)});
  };
  for (int Trial = 0; Trial < 300; ++Trial) {
    CongruenceClosure CC(Ctx);
    std::vector<std::pair<Term, Term>> Eqs;
    auto Nodes = [&] {
      std::vector<Term> U;
      for (unsigned N = 0; N < CC.numNodes(); ++N)
        U.push_back(CC.termOf(N));
      return U;
    };
    auto Check = [&] {
      std::vector<Term> U = Nodes();
      std::vector<unsigned> Label = naiveClosure(U, Eqs);
      std::vector<std::vector<unsigned>> Expected;
      for (unsigned N = 0; N < U.size(); ++N) {
        ASSERT_EQ(CC.find(N), Label[N]) << "trial " << Trial << " node " << N;
        if (Label[N] == N)
          Expected.push_back({});
        auto Class = std::find_if(Expected.begin(), Expected.end(),
                                  [&](const std::vector<unsigned> &C) {
                                    return C.empty() || C[0] == Label[N];
                                  });
        Class->push_back(N);
      }
      ASSERT_EQ(CC.allClasses(), Expected) << "trial " << Trial;
    };
    for (int I = 0, Count = 1 + Rng() % 6; I < Count; ++I) {
      Term L = Draw(3), R = Draw(3);
      Eqs.emplace_back(L, R);
      if (Rng() % 2) {
        CC.addEquality(L, R);
      } else {
        Conjunction E;
        E.add(Atom::mkEq(Ctx, L, R));
        CC.addConjunction(E);
      }
      Check();
    }
    for (int I = 0; I < 6; ++I) {
      // Half the queries wrap an existing node in a new application.
      Term L = Rng() % 2 ? Ctx.mkApp(F, {CC.termOf(Rng() % CC.numNodes())})
                         : Draw(3);
      Term R = Rng() % 2 ? Ctx.mkApp(F, {CC.termOf(Rng() % CC.numNodes())})
                         : Draw(3);
      bool Equal = CC.areEqual(L, R);
      std::vector<Term> U = Nodes();
      std::vector<unsigned> Label = naiveClosure(U, Eqs);
      auto IndexOf = [&](Term X) {
        return std::find(U.begin(), U.end(), X) - U.begin();
      };
      EXPECT_EQ(Equal, Label[IndexOf(L)] == Label[IndexOf(R)])
          << "trial " << Trial;
      Check();
    }
  }
}
