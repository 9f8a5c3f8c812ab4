//===- tests/ir_test.cpp - Program IR and builder structure ----------------===//

#include "ir/ProgramBuilder.h"
#include "ir/ProgramParser.h"

#include "TestUtil.h"

using namespace cai;
using cai::test::A;

namespace {

class IRTest : public ::testing::Test {
protected:
  TermContext Ctx;
};

unsigned countEdges(const Program &P, ActionKind K) {
  unsigned N = 0;
  for (const Edge &E : P.edges())
    N += E.Act.Kind == K;
  return N;
}

} // namespace

TEST_F(IRTest, StraightLineShape) {
  ProgramBuilder B(Ctx);
  B.assign("x", "1");
  B.assign("y", "x + 1");
  Program P = B.take();
  EXPECT_EQ(P.numNodes(), 3u);
  EXPECT_EQ(P.edges().size(), 2u);
  EXPECT_EQ(countEdges(P, ActionKind::Assign), 2u);
  EXPECT_EQ(P.entry(), 0u);
}

TEST_F(IRTest, IfElseShape) {
  ProgramBuilder B(Ctx);
  B.ifElse(A(Ctx, "x <= 0"), [&]() { B.assign("y", "1"); },
           [&]() { B.assign("y", "2"); });
  Program P = B.take();
  // Two assume edges out of the branch node, two skip edges into the join.
  EXPECT_EQ(countEdges(P, ActionKind::Assume), 2u);
  EXPECT_EQ(countEdges(P, ActionKind::Skip), 2u);
  // Exactly one join point (two predecessors).
  std::vector<bool> Joins = P.joinPoints();
  unsigned NumJoins = 0;
  for (bool J : Joins)
    NumJoins += J;
  EXPECT_EQ(NumJoins, 1u);
}

TEST_F(IRTest, LoopShape) {
  ProgramBuilder B(Ctx);
  B.loop(A(Ctx, "x <= 9"), [&]() { B.assign("x", "x + 1"); });
  Program P = B.take();
  // Loop head has two predecessors: the entry skip and the back edge.
  std::vector<bool> Joins = P.joinPoints();
  unsigned NumJoins = 0;
  for (bool J : Joins)
    NumJoins += J;
  EXPECT_EQ(NumJoins, 1u);
  // Enter and exit assume edges carry the condition and its negation.
  unsigned Assumes = countEdges(P, ActionKind::Assume);
  EXPECT_EQ(Assumes, 2u);
}

TEST_F(IRTest, NondeterministicBranchHasEmptyAssumes) {
  ProgramBuilder B(Ctx);
  B.ifElse(std::nullopt, [&]() { B.assign("x", "1"); });
  Program P = B.take();
  for (const Edge &E : P.edges()) {
    if (E.Act.Kind == ActionKind::Assume) {
      EXPECT_TRUE(E.Act.Cond.isTop());
    }
  }
}

TEST_F(IRTest, VariablesCollectsEverything) {
  ProgramBuilder B(Ctx);
  B.assign("x", "y + 1");
  B.havoc("z");
  B.assume("w <= x");
  B.assertFact("x = y + 1", "lbl");
  Program P = B.take();
  std::vector<Term> Vars = P.variables();
  EXPECT_EQ(Vars.size(), 4u); // x, y, z, w.
}

TEST_F(IRTest, SuccessorsIndexIsConsistent) {
  ProgramBuilder B(Ctx);
  B.ifElse(std::nullopt, [&]() { B.assign("x", "1"); },
           [&]() { B.assign("x", "2"); });
  Program P = B.take();
  const auto &Succ = P.successors();
  ASSERT_EQ(Succ.size(), P.numNodes());
  size_t Total = 0;
  for (const auto &S : Succ) {
    for (size_t EdgeIdx : S)
      EXPECT_LT(EdgeIdx, P.edges().size());
    Total += S.size();
  }
  EXPECT_EQ(Total, P.edges().size());
}

TEST_F(IRTest, AssertionsKeepSourceOrder) {
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := 1;
    assert(x = 1);
    x := 2;
    assert(x = 2);
  )");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->assertions().size(), 2u);
  EXPECT_LT(P->assertions()[0].Node, P->assertions()[1].Node);
}

TEST(ParserTheoryPredicates, FreshContextParsesTheoryAtoms) {
  // No domain and no caller has interned a predicate: the context alone
  // must make even(x) an atom rather than an application of a function.
  const char *Programs[] = {"assert(even(x));", "assert(odd(x));",
                            "assert(positive(x));", "assert(negative(x));"};
  const char *Names[] = {"even", "odd", "positive", "negative"};
  for (size_t I = 0; I < 4; ++I) {
    TermContext Fresh;
    std::string Error;
    std::optional<Program> P = parseProgram(Fresh, Programs[I], &Error);
    ASSERT_TRUE(P) << Programs[I] << ": " << Error;
    ASSERT_EQ(P->assertions().size(), 1u);
    const Atom &Fact = P->assertions()[0].Fact;
    EXPECT_EQ(Fact.predicate(), Fresh.findSymbol(Names[I]));
    EXPECT_EQ(Fresh.info(Fact.predicate()).Kind, SymbolKind::Predicate);
    ASSERT_EQ(Fact.args().size(), 1u);
    EXPECT_EQ(Fact.args()[0], Fresh.mkVar("x"));
  }
}

TEST(ParserTheoryPredicates, InternedRightAfterTheCorePredicates) {
  // Atoms order by predicate index, so the theory predicates keep indices
  // 4-7, right after the core ones: atom order and output bytes depend on
  // it.
  TermContext Fresh;
  const char *Names[] = {"+", "*", "=", "<=", "even", "odd", "positive",
                         "negative"};
  for (uint32_t I = 0; I < 8; ++I)
    EXPECT_EQ(Fresh.findSymbol(Names[I]).index(), I) << Names[I];
  EXPECT_EQ(Fresh.getPredicate("even", 1), Fresh.findSymbol("even"));
}

TEST_F(IRTest, ParserWhileNegatedParenCondition) {
  std::optional<Program> P =
      parseProgram(Ctx, "x := 0; while (!(x >= 3)) { x := x + 1; }");
  ASSERT_TRUE(P);
  // The enter edge assumes x + 1 <= 3 (integer negation of x >= 3).
  bool Found = false;
  for (const Edge &E : P->edges())
    if (E.Act.Kind == ActionKind::Assume && !E.Act.Cond.isTop())
      Found = true;
  EXPECT_TRUE(Found);
}

TEST_F(IRTest, ActionFactories) {
  Term X = Ctx.mkVar("x");
  Action S = Action::skip();
  EXPECT_EQ(S.Kind, ActionKind::Skip);
  Action H = Action::havoc(X);
  EXPECT_EQ(H.Kind, ActionKind::Havoc);
  EXPECT_EQ(H.Var, X);
  Action Asn = Action::assign(X, Ctx.mkNum(1));
  EXPECT_EQ(Asn.Kind, ActionKind::Assign);
  EXPECT_EQ(Asn.Value, Ctx.mkNum(1));
  Conjunction C;
  C.add(Atom::mkEq(Ctx, X, Ctx.mkNum(0)));
  Action Asm = Action::assume(C);
  EXPECT_EQ(Asm.Kind, ActionKind::Assume);
  EXPECT_EQ(Asm.Cond.size(), 1u);
}
