//===- tests/stress_test.cpp - Coefficient blow-up and robustness ----------===//
///
/// Stress scenarios: programs and systems engineered to overflow 64-bit
/// arithmetic (the reason every numeric domain sits on BigInt), deep
/// E-graphs, adversarial control flow, and empty/degenerate inputs.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramBuilder.h"
#include "ir/ProgramParser.h"
#include "product/LogicalProduct.h"

#include "TestUtil.h"

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

TEST(StressTest, AffineCoefficientsBeyond64Bits) {
  // x_{i+1} = 3 x_i + 1 composed 50 times: the closed form's coefficient
  // 3^50 ~ 7e23 exceeds uint64; entailment must still be exact.
  TermContext Ctx;
  AffineDomain D(Ctx);
  Conjunction E;
  for (int I = 0; I < 50; ++I) {
    Term Cur = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Term Next = Ctx.mkVar(std::string("x").append(std::to_string(I + 1)));
    E.add(Atom::mkEq(Ctx, Next,
                     Ctx.mkAdd(Ctx.mkMul(Rational(3), Cur), Ctx.mkNum(1))));
  }
  // Closed form: x50 = 3^50 x0 + (3^50 - 1)/2.
  BigInt P = BigInt::pow(BigInt(3), 50);
  Rational Coeff(P);
  Rational Const = Rational(P - BigInt(1)) / Rational(2);
  LinearExpr Rhs;
  Rhs.addTerm(Ctx.mkVar("x0"), Coeff);
  Rhs.addConstant(Const);
  Atom Closed = Atom::mkEq(Ctx, Ctx.mkVar("x50"), Rhs.toTerm(Ctx));
  EXPECT_TRUE(D.entails(E, Closed));
  // And the off-by-one variant must fail.
  LinearExpr Wrong = Rhs;
  Wrong.addConstant(Rational(1));
  EXPECT_FALSE(
      D.entails(E, Atom::mkEq(Ctx, Ctx.mkVar("x50"), Wrong.toTerm(Ctx))));
}

TEST(StressTest, AffineJoinWithHugeConstants) {
  TermContext Ctx;
  AffineDomain D(Ctx);
  std::string Big = BigInt::pow(BigInt(2), 100).toString();
  Conjunction E1 = C(Ctx, "x = " + Big + " && y = 0");
  Conjunction E2 = C(Ctx, "x = 0 && y = " + Big);
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "x + y = " + Big)));
  EXPECT_FALSE(D.entails(J, A(Ctx, "x = 0")));
}

TEST(StressTest, PolySimplexWithWideRange) {
  TermContext Ctx;
  PolyDomain D(Ctx);
  std::string Big = BigInt::pow(BigInt(10), 30).toString();
  Conjunction E = C(Ctx, "x <= " + Big + " && 0 - " + Big + " <= x && "
                        "y = 2*x + 1");
  EXPECT_TRUE(D.entails(E, A(Ctx, "y <= 2*" + Big + " + 1")));
  EXPECT_FALSE(D.entails(E, A(Ctx, "y <= " + Big)));
  EXPECT_FALSE(D.isUnsat(E));
}

TEST(StressTest, DeepCongruenceChains) {
  TermContext Ctx;
  UFDomain D(Ctx);
  // x = F^100(a), y = F^100(b), a = b.
  Term TA = T(Ctx, "a"), TB = T(Ctx, "b");
  Symbol F = Ctx.getFunction("F", 1);
  for (int I = 0; I < 100; ++I) {
    TA = Ctx.mkApp(F, {TA});
    TB = Ctx.mkApp(F, {TB});
  }
  Conjunction E;
  E.add(Atom::mkEq(Ctx, T(Ctx, "x"), TA));
  E.add(Atom::mkEq(Ctx, T(Ctx, "y"), TB));
  E.add(Atom::mkEq(Ctx, T(Ctx, "a"), T(Ctx, "b")));
  EXPECT_TRUE(D.entails(E, A(Ctx, "x = y")));
  // Projection of the base still keeps the derived equality.
  Conjunction Q = D.existQuant(E, {T(Ctx, "a"), T(Ctx, "b")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "x = y")));
}

TEST(StressTest, ManyBranchesStayPrecise) {
  TermContext Ctx;
  AffineDomain D(Ctx);
  ProgramBuilder B(Ctx);
  B.assign("x", "0");
  B.assign("y", "0");
  // 8 sequential branches, each adding the same delta to both in lockstep
  // with different constants per arm: y = 2x survives all joins.
  for (int I = 0; I < 8; ++I) {
    B.ifElse(std::nullopt,
             [&]() {
               B.assign("x", "x + 1");
               B.assign("y", "y + 2");
             },
             [&]() {
               B.assign("x", "x + 3");
               B.assign("y", "y + 6");
             });
  }
  B.assertFact("y = 2*x", "lockstep");
  Program P = B.take();
  AnalysisResult R = Analyzer(D).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST(StressTest, WideningConvergesOnDivergingCounter) {
  TermContext Ctx;
  PolyDomain D(Ctx);
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := 0; y := 0;
    while (*) {
      x := x + 1;
      y := y + x;   // Parabolic growth in the concrete; poly must widen.
    }
    assert(0 <= x);
    assert(0 <= y);
  )", &Error);
  ASSERT_TRUE(P) << Error;
  // A known CH78 behaviour: with a long widening delay the accumulated
  // hull's faces rotate every iteration (x-y <= 0, 2x-y <= 1, 3x-y <= 3,
  // ...), none is stable, and the widened head degrades to top.  Widening
  // early keeps the stable faces 0 <= x and 0 <= y.  Both must converge.
  AnalyzerOptions Early;
  Early.WideningDelay = 1;
  AnalysisResult R = Analyzer(D, Early).run(*P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
  EXPECT_TRUE(R.Assertions[1].Verified);

  AnalysisResult RDelayed = Analyzer(D).run(*P);
  EXPECT_TRUE(RDelayed.Converged); // Termination regardless of precision.
}

TEST(StressTest, ProductOnLongStraightLineProgram) {
  TermContext Ctx;
  AffineDomain LA(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct D(Ctx, LA, UF);
  ProgramBuilder B(Ctx);
  B.assign("acc", "seed");
  for (int I = 0; I < 30; ++I)
    B.assign("acc", "F(acc + 1)");
  B.assign("acc2", "seed");
  for (int I = 0; I < 30; ++I)
    B.assign("acc2", "F(acc2 + 1)");
  B.assertFact("acc = acc2", "same-fold");
  Program P = B.take();
  AnalysisResult R = Analyzer(D).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST(StressTest, DegenerateProgramsDoNotCrash) {
  TermContext Ctx;
  AffineDomain D(Ctx);
  // Empty program.
  {
    Program P;
    AnalysisResult R = Analyzer(D).run(P);
    EXPECT_TRUE(R.Converged);
  }
  // Single node, assertion at entry.
  {
    Program P;
    NodeId N = P.addNode();
    P.setEntry(N);
    P.addAssertion(N, cai::test::A(Ctx, "x = x"), "trivial");
    AnalysisResult R = Analyzer(D).run(P);
    ASSERT_EQ(R.Assertions.size(), 1u);
    EXPECT_TRUE(R.Assertions[0].Verified);
  }
  // Loop with an empty body.
  {
    std::optional<Program> P = parseProgram(Ctx, "while (*) { }");
    ASSERT_TRUE(P);
    AnalysisResult R = Analyzer(D).run(*P);
    EXPECT_TRUE(R.Converged);
  }
}

TEST(StressTest, UnreachableCodeIsBottom) {
  TermContext Ctx;
  PolyDomain D(Ctx);
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := 1;
    assume(x <= 0);
    assert(x = 99);
  )");
  ASSERT_TRUE(P);
  AnalysisResult R = Analyzer(D).run(*P);
  // Vacuously verified: the assertion point is unreachable.
  EXPECT_TRUE(R.Assertions[0].Verified);
}
