//===- tests/interp_test.cpp - Concrete interpreter & generator tests -----===//
///
/// \file
/// Unit tests for the reference concrete interpreter (the oracle's ground
/// truth): model-theoretic properties of the lazy first-order model
/// (function consistency, list projection, read-over-write), deterministic
/// replay of traces from a seed, and the random program generator's
/// parse-always guarantee.
///
//===----------------------------------------------------------------------===//

#include "interp/ConcreteInterp.h"
#include "interp/ProgramGen.h"
#include "ir/ProgramParser.h"
#include "term/Parser.h"

#include <gtest/gtest.h>

using namespace cai;
using namespace cai::interp;

namespace {

TEST(SplitMix64Test, DeterministicAndRangeRespecting) {
  SplitMix64 A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  SplitMix64 A2(42);
  for (int I = 0; I < 100; ++I)
    Differs |= A2.next() != C.next();
  EXPECT_TRUE(Differs);

  SplitMix64 R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.intIn(-8, 8);
    EXPECT_GE(V, -8);
    EXPECT_LE(V, 8);
  }
}

TEST(ConcreteModelTest, UninterpretedFunctionsAreFunctions) {
  TermContext Ctx;
  ConcreteModel M(Ctx, 1);
  Env E;
  E.emplace(Ctx.mkVar("x"), Rational(3));

  bool Ok = true;
  Term Fx = *parseTerm(Ctx, "F(x)");
  Term Fthree = *parseTerm(Ctx, "F(3)");
  Term Ffour = *parseTerm(Ctx, "F(4)");
  Rational A = M.evalTerm(Fx, E, Ok);
  Rational B = M.evalTerm(Fthree, E, Ok);
  Rational C = M.evalTerm(Ffour, E, Ok);
  ASSERT_TRUE(Ok);
  // Congruence: x = 3, so F(x) and F(3) must agree; F(4) must be sampled
  // independently (freshOpaque makes collisions with F(3) astronomically
  // unlikely, and the test seed is fixed).
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  // Memoized: asking again returns the identical value.
  EXPECT_EQ(M.evalTerm(Fx, E, Ok), A);
}

TEST(ConcreteModelTest, ListAxiomsHold) {
  TermContext Ctx;
  ConcreteModel M(Ctx, 2);
  Env E;
  E.emplace(Ctx.mkVar("a"), Rational(5));
  E.emplace(Ctx.mkVar("b"), Rational(-1));

  bool Ok = true;
  Rational CarV = M.evalTerm(*parseTerm(Ctx, "car(cons(a, b))"), E, Ok);
  Rational CdrV = M.evalTerm(*parseTerm(Ctx, "cdr(cons(a, b))"), E, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(CarV, Rational(5));
  EXPECT_EQ(CdrV, Rational(-1));
  // cons is interned: equal parts, equal address.
  EXPECT_EQ(M.evalTerm(*parseTerm(Ctx, "cons(5, b)"), E, Ok),
            M.evalTerm(*parseTerm(Ctx, "cons(a, -1)"), E, Ok));
}

TEST(ConcreteModelTest, ReadOverWriteHolds) {
  TermContext Ctx;
  ConcreteModel M(Ctx, 3);
  Env E;
  E.emplace(Ctx.mkVar("m"), Rational(77)); // Opaque base array.
  E.emplace(Ctx.mkVar("i"), Rational(2));

  bool Ok = true;
  // select(update(m, i, 9), i) = 9.
  EXPECT_EQ(M.evalTerm(*parseTerm(Ctx, "select(update(m, i, 9), i)"), E, Ok),
            Rational(9));
  // Distinct index falls through to the base: equal to select(m, 4).
  Rational Through =
      M.evalTerm(*parseTerm(Ctx, "select(update(m, i, 9), 4)"), E, Ok);
  Rational BaseRead = M.evalTerm(*parseTerm(Ctx, "select(m, 4)"), E, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Through, BaseRead);
  // Nested overlays: the nearest write wins.
  EXPECT_EQ(M.evalTerm(
                *parseTerm(Ctx, "select(update(update(m, i, 9), i, 1), i)"), E,
                Ok),
            Rational(1));
}

TEST(ConcreteModelTest, TheoryPredicateSemantics) {
  TermContext Ctx;
  ConcreteModel M(Ctx, 4);
  Env E;
  E.emplace(Ctx.mkVar("x"), Rational(4));
  E.emplace(Ctx.mkVar("y"), Rational(-3));

  bool Ok = true;
  EXPECT_TRUE(M.evalAtom(*parseAtom(Ctx, "even(x)"), E, Ok));
  EXPECT_FALSE(M.evalAtom(*parseAtom(Ctx, "odd(x)"), E, Ok));
  EXPECT_TRUE(M.evalAtom(*parseAtom(Ctx, "odd(y)"), E, Ok));
  EXPECT_TRUE(M.evalAtom(*parseAtom(Ctx, "positive(x)"), E, Ok));
  EXPECT_FALSE(M.evalAtom(*parseAtom(Ctx, "positive(y)"), E, Ok));
  EXPECT_TRUE(M.evalAtom(*parseAtom(Ctx, "negative(y)"), E, Ok));
  // Integer semantics at the boundary: positive means >= 1, so 0 is
  // neither positive nor negative.
  E[Ctx.mkVar("x")] = Rational(0);
  EXPECT_FALSE(M.evalAtom(*parseAtom(Ctx, "positive(x)"), E, Ok));
  EXPECT_FALSE(M.evalAtom(*parseAtom(Ctx, "negative(x)"), E, Ok));
  EXPECT_TRUE(M.evalAtom(*parseAtom(Ctx, "even(x)"), E, Ok));
  ASSERT_TRUE(Ok);

  // Unbound variable clears Ok.
  bool Ok2 = true;
  M.evalAtom(*parseAtom(Ctx, "even(zz)"), E, Ok2);
  EXPECT_FALSE(Ok2);
}

TEST(RunTraceTest, DeterministicReplayAndAssumeRespect) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := 0;
    while (x <= 3) {
      x := x + 1;
    }
    assert(4 <= x);
  )");
  ASSERT_TRUE(P);

  Term X = Ctx.mkVar("x");
  auto Run = [&](uint64_t Seed) {
    std::vector<std::pair<NodeId, Rational>> States;
    runTrace(Ctx, *P, Seed, TraceOptions(),
             [&](NodeId N, const Env &E, ConcreteModel &) {
               States.emplace_back(N, E.at(X));
               return true;
             });
    return States;
  };

  auto S1 = Run(11), S2 = Run(11);
  EXPECT_EQ(S1, S2) << "same seed must replay identically";
  ASSERT_GT(S1.size(), 4u);
  // The loop guard is deterministic here, so the trace always exits with
  // x = 4 (the first value failing x <= 3).
  EXPECT_EQ(S1.back().second, Rational(4));
  // x never exceeds 4: assume edges must gate the walk.
  for (const auto &[N, V] : S1)
    EXPECT_LE(V, Rational(4));
}

TEST(RunTraceTest, VisitorCanStopEarly) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := 0;
    while (*) {
      x := x + 1;
    }
  )");
  ASSERT_TRUE(P);
  unsigned Calls = 0;
  unsigned Visits = runTrace(Ctx, *P, 5, TraceOptions(),
                             [&](NodeId, const Env &, ConcreteModel &) {
                               return ++Calls < 3;
                             });
  EXPECT_EQ(Calls, 3u);
  EXPECT_EQ(Visits, 3u);
}

TEST(ProgramGenTest, GeneratedProgramsAlwaysParse) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    std::string Text = generateProgram(Opts);
    TermContext Ctx;
    std::string Error;
    std::optional<Program> P = parseProgram(Ctx, Text, &Error);
    ASSERT_TRUE(P) << "seed " << Seed << ": " << Error << "\n" << Text;
    EXPECT_GT(P->numNodes(), 1u);
  }
}

TEST(ProgramGenTest, DeterministicInSeed) {
  GenOptions Opts;
  Opts.Seed = 99;
  EXPECT_EQ(generateProgram(Opts), generateProgram(Opts));
  GenOptions Other = Opts;
  Other.Seed = 100;
  EXPECT_NE(generateProgram(Opts), generateProgram(Other));
}

TEST(ProgramGenTest, ArrayKnobEmitsSelectAndUpdate) {
  // With the knob on, select/update traffic appears across a small seed
  // range, every program still parses, and the array variable never
  // leaks into scalar positions (it is multi-character by construction).
  unsigned Selects = 0, Updates = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.Arrays = true;
    std::string Text = generateProgram(Opts);
    if (Text.find("select(mem, ") != std::string::npos)
      ++Selects;
    if (Text.find("mem := update(mem, ") != std::string::npos)
      ++Updates;
    TermContext Ctx;
    std::string Error;
    std::optional<Program> P = parseProgram(Ctx, Text, &Error);
    ASSERT_TRUE(P) << "seed " << Seed << ": " << Error << "\n" << Text;
  }
  EXPECT_GT(Selects, 0u);
  EXPECT_GT(Updates, 0u);
  // The knob defaults off and pre-knob corpora must stay byte-identical:
  // no array syntax without opting in.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    std::string Text = generateProgram(Opts);
    EXPECT_EQ(Text.find("select("), std::string::npos) << Text;
    EXPECT_EQ(Text.find("update("), std::string::npos) << Text;
  }
}

TEST(ProgramGenTest, KnobsAreHonored) {
  GenOptions Opts;
  Opts.Seed = 3;
  Opts.Functions = false;
  Opts.TheoryPreds = false;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Opts.Seed = Seed;
    std::string Text = generateProgram(Opts);
    EXPECT_EQ(Text.find("F("), std::string::npos) << Text;
    EXPECT_EQ(Text.find("G("), std::string::npos) << Text;
    EXPECT_EQ(Text.find("even("), std::string::npos) << Text;
    EXPECT_EQ(Text.find("positive("), std::string::npos) << Text;
  }
}

} // namespace
