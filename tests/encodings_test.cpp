//===- tests/encodings_test.cpp - Section 5 domain reductions --------------===//

#include "encodings/Encodings.h"

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "product/LogicalProduct.h"

#include "TestUtil.h"

#include <random>

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

namespace {

class EncodingsTest : public ::testing::Test {
protected:
  TermContext Ctx;
  AffineDomain LA{Ctx};
  UFDomain UF{Ctx};
  LogicalProduct Product{Ctx, LA, UF};
};

} // namespace

TEST_F(EncodingsTest, CommutativeShape) {
  TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
  Term In = T(Ctx, "G(x, y)");
  Term Out = Enc.encode(In);
  // F(1 + x + y) for the first symbol G.
  ASSERT_TRUE(Out->isApp());
  EXPECT_EQ(Out->symbol(), Enc.target());
  std::optional<LinearExpr> Arg = LinearExpr::fromTerm(Ctx, Out->args()[0]);
  ASSERT_TRUE(Arg);
  EXPECT_EQ(Arg->coeff(T(Ctx, "x")), Rational(1));
  EXPECT_EQ(Arg->coeff(T(Ctx, "y")), Rational(1));
  EXPECT_EQ(Arg->constant(), Rational(1));
}

TEST_F(EncodingsTest, CommutativityBecomesTheorem) {
  TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
  Term AB = Enc.encode(T(Ctx, "G(a, b)"));
  Term BA = Enc.encode(T(Ctx, "G(b, a)"));
  // Identical after encoding: the sum normalizes argument order away.
  EXPECT_EQ(AB, BA);
  // And nested occurrences too.
  Term Nested1 = Enc.encode(T(Ctx, "G(G(a, b), c)"));
  Term Nested2 = Enc.encode(T(Ctx, "G(c, G(b, a))"));
  EXPECT_EQ(Nested1, Nested2);
}

TEST_F(EncodingsTest, DistinctSymbolsStayDistinct) {
  TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
  Term G1 = Enc.encode(T(Ctx, "G(x, y)"));
  Term H1 = Enc.encode(T(Ctx, "H(x, y)"));
  EXPECT_NE(G1, H1);
  // Claim 2 (completeness direction): the encodings are not equal under
  // the combined theory either.
  Conjunction Top;
  EXPECT_FALSE(Product.entails(Top, Atom::mkEq(Ctx, G1, H1)));
}

TEST_F(EncodingsTest, ArityReductionShape) {
  TermEncoder Enc(Ctx, TermEncoder::Scheme::ArityReduction);
  Term Out = Enc.encode(T(Ctx, "G(x, y, z)"));
  ASSERT_TRUE(Out->isApp());
  std::optional<LinearExpr> Arg = LinearExpr::fromTerm(Ctx, Out->args()[0]);
  ASSERT_TRUE(Arg);
  EXPECT_EQ(Arg->coeff(T(Ctx, "x")), Rational(2));
  EXPECT_EQ(Arg->coeff(T(Ctx, "y")), Rational(4));
  EXPECT_EQ(Arg->coeff(T(Ctx, "z")), Rational(8));
}

TEST_F(EncodingsTest, ArityReductionKeepsOrderSignificant) {
  TermEncoder Enc(Ctx, TermEncoder::Scheme::ArityReduction);
  EXPECT_NE(Enc.encode(T(Ctx, "G(x, y)")), Enc.encode(T(Ctx, "G(y, x)")));
}

TEST_F(EncodingsTest, Claim2EquivalencePreservation) {
  // t1 = t2 iff M(t1) = M(t2), checked by randomized structural pairs:
  // syntactically equal terms encode equal; random distinct term-algebra
  // terms encode distinct (and not provably equal).
  TermEncoder Enc(Ctx, TermEncoder::Scheme::ArityReduction);
  std::mt19937 Rng(5);
  const char *Vars[] = {"a", "b", "c"};
  std::function<Term(int)> RandomTerm = [&](int Depth) -> Term {
    if (Depth == 0 || Rng() % 3 == 0)
      return Ctx.mkVar(Vars[Rng() % 3]);
    Symbol G = Ctx.getFunction(Rng() % 2 ? "G" : "H", 2);
    return Ctx.mkApp(G, {RandomTerm(Depth - 1), RandomTerm(Depth - 1)});
  };
  Conjunction Top;
  for (int Trial = 0; Trial < 100; ++Trial) {
    Term T1 = RandomTerm(3), T2 = RandomTerm(3);
    Term E1 = Enc.encode(T1), E2 = Enc.encode(T2);
    if (T1 == T2) {
      EXPECT_EQ(E1, E2);
    } else {
      EXPECT_NE(E1, E2) << toString(Ctx, T1) << " vs " << toString(Ctx, T2);
      EXPECT_FALSE(Product.entails(Top, Atom::mkEq(Ctx, E1, E2)));
    }
  }
}

TEST_F(EncodingsTest, EncodedConjunctionEntailment) {
  // Reasoning about commutative G through the encoding: G(x,y) = G(y,x)
  // becomes a tautology, and congruence facts transfer.
  TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
  Conjunction E = Enc.encode(C(Ctx, "u = G(x, y) && v = G(y, x)"));
  EXPECT_TRUE(Product.entails(E, Atom::mkEq(Ctx, T(Ctx, "u"), T(Ctx, "v"))));
}

TEST_F(EncodingsTest, ProgramEncodingEndToEnd) {
  // A program using a commutative operator: u := G(a, b); v := G(b, a);
  // the encoded program proves u = v over affine >< uf.
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, R"(
    u := G(a, b);
    v := G(b, a);
    assert(u = v);
  )", &Error);
  ASSERT_TRUE(P) << Error;

  // Unencoded, plain UF congruence cannot prove it (G is uninterpreted).
  AnalysisResult Plain = Analyzer(Product).run(*P);
  EXPECT_FALSE(Plain.Assertions[0].Verified);

  TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
  Program Encoded = Enc.encode(*P);
  AnalysisResult R = Analyzer(Product).run(Encoded);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(EncodingsTest, ArityReductionProgramEndToEnd) {
  // Ternary uninterpreted functions reduced to the single unary F.
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := K(a, b, c);
    y := K(a, b, c);
    z := K(b, a, c);
    assert(x = y);
  )", &Error);
  ASSERT_TRUE(P) << Error;
  TermEncoder Enc(Ctx, TermEncoder::Scheme::ArityReduction);
  Program Encoded = Enc.encode(*P);
  AnalysisResult R = Analyzer(Product).run(Encoded);
  ASSERT_EQ(R.Assertions.size(), 1u);
  EXPECT_TRUE(R.Assertions[0].Verified);
  // Argument order still matters: x = z must NOT be provable.
  Conjunction Final;
  for (const Conjunction &Inv : R.Invariants)
    if (!Inv.isBottom())
      Final = Inv; // Last reachable state.
  EXPECT_FALSE(Product.entails(
      Final, Atom::mkEq(Ctx, T(Ctx, "x"), T(Ctx, "z"))));
}

TEST_F(EncodingsTest, LoopWithCommutativeOperator) {
  // Floating-point-style accumulation: s1 := G(s1, t); s2 := G(t, s2)
  // starting equal stays equal under commutativity-aware reasoning.
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, R"(
    s1 := a; s2 := a;
    while (*) { s1 := G(s1, t); s2 := G(t, s2); }
    assert(s1 = s2);
  )", &Error);
  ASSERT_TRUE(P) << Error;
  AnalysisResult Plain = Analyzer(Product).run(*P);
  EXPECT_FALSE(Plain.Assertions[0].Verified);

  TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
  Program Encoded = Enc.encode(*P);
  AnalysisResult R = Analyzer(Product).run(Encoded);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
}
