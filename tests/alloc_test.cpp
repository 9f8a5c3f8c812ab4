//===- tests/alloc_test.cpp - Small term-layer objects stay off the heap ---===//
//
// Every join and quantification of the logical product copies atoms and
// conjunctions, rebuilds terms it has built before and fills per-call term
// tables.  This binary replaces the global operator new and delete with
// counting versions and checks that those copies and rebuilds allocate
// nothing, and that the tables cost one allocation each.
//
//===----------------------------------------------------------------------===//

#include "domains/uf/CongruenceClosure.h"
#include "term/Conjunction.h"
#include "term/TermMap.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {
size_t Allocations = 0;
} // namespace

void *operator new(size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

using namespace cai;

namespace {

/// Keeps the optimizer from proving \p Value unused and eliding the
/// allocations made to build it.
template <typename T> void keep(const T &Value) {
  asm volatile("" : : "r"(&Value) : "memory");
}

/// Heap allocations made while running \p F.
template <typename Fn> size_t allocationsIn(Fn &&F) {
  size_t Before = Allocations;
  F();
  return Allocations - Before;
}

class AllocTest : public ::testing::Test {
protected:
  TermContext Ctx;
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y"), Z = Ctx.mkVar("z");
  Symbol F = Ctx.getFunction("F", 1);
  Symbol G = Ctx.getFunction("G", 2);
  Term FY = Ctx.mkApp(F, {Y});
  Atom Eq = Atom::mkEq(Ctx, X, FY);
  Atom Le = Atom::mkLe(Ctx, Ctx.mkAdd(X, Ctx.mkNum(1)), Y);
  Atom Even = Atom(Ctx.findSymbol("even"), {Z});
};

} // namespace

TEST_F(AllocTest, CountingOperatorNewIsLive) {
  // The probe itself: a std::vector of terms does allocate.
  EXPECT_GT(allocationsIn([&] {
              std::vector<Term> V{X, Y};
              keep(V);
            }),
            0u);
}

TEST_F(AllocTest, AtomCopyAndDestroy) {
  for (const Atom &A : {Eq, Le, Even}) {
    EXPECT_EQ(allocationsIn([&] {
                Atom Copy = A;
                keep(Copy);
                Atom Moved = std::move(Copy);
                keep(Moved);
              }),
              0u);
  }
}

TEST_F(AllocTest, ConjunctionCopy) {
  Conjunction One, Two;
  One.add(Eq);
  Two.add(Eq);
  Two.add(Even);
  for (const Conjunction &C : {Conjunction::top(), One, Two}) {
    bool Same = false;
    EXPECT_EQ(allocationsIn([&] {
                Conjunction Copy = C;
                keep(Copy);
                Same = Copy == C;
              }),
              0u);
    EXPECT_TRUE(Same);
  }
}

TEST_F(AllocTest, RebuildingInternedTerms) {
  Term Args[] = {X, FY};
  Term App = Ctx.mkApp(G, Args, 2);
  Term Sum = Ctx.mkAdd(Ctx.mkAdd(X, Ctx.mkMul(Rational(2), FY)), Ctx.mkNum(3));
  Term Scaled = Ctx.mkMul(Rational(-3), Sum);
  Term Diff = Ctx.mkSub(Sum, X);
  EXPECT_EQ(allocationsIn([&] { keep(Ctx.mkApp(G, Args, 2)); }), 0u);
  EXPECT_EQ(allocationsIn([&] {
              keep(Ctx.mkAdd(Ctx.mkAdd(X, Ctx.mkMul(Rational(2), FY)),
                             Ctx.mkNum(3)));
            }),
            0u);
  EXPECT_EQ(allocationsIn([&] { keep(Ctx.mkMul(Rational(-3), Sum)); }), 0u);
  EXPECT_EQ(allocationsIn([&] { keep(Ctx.mkSub(Sum, X)); }), 0u);
  // Rebuilding returned the interned nodes, not new ones.
  EXPECT_EQ(Ctx.mkApp(G, Args, 2), App);
  EXPECT_EQ(Ctx.mkMul(Rational(-3), Sum), Scaled);
  EXPECT_EQ(Ctx.mkSub(Sum, X), Diff);
}

TEST_F(AllocTest, SubstituteThatChangesNothing) {
  Term W = Ctx.mkVar("w");
  Substitution S{{W, Z}};
  Term Args[] = {Ctx.mkAdd(X, FY), Y};
  Term Deep = Ctx.mkApp(G, Args, 2);
  Conjunction C;
  C.add(Eq);
  C.add(Le);
  EXPECT_EQ(allocationsIn([&] { keep(Ctx.substitute(Deep, S)); }), 0u);
  EXPECT_EQ(allocationsIn([&] { keep(Eq.substitute(Ctx, S)); }), 0u);
  EXPECT_EQ(allocationsIn([&] { keep(C.substitute(Ctx, S)); }), 0u);
  EXPECT_EQ(Ctx.substitute(Deep, S), Deep);
  EXPECT_TRUE(C.substitute(Ctx, S) == C);
}

TEST_F(AllocTest, CongruenceClosureLookups) {
  Term Args[] = {X, FY};
  Term App = Ctx.mkApp(G, Args, 2);
  CongruenceClosure CC(Ctx);
  CC.addEquality(X, FY);
  CC.addTerm(App);
  bool Equal = false, Has = false;
  EXPECT_EQ(allocationsIn([&] {
              keep(CC.addTerm(FY));
              keep(CC.addTerm(App));
              Has = CC.hasTerm(Y);
              Equal = CC.areEqual(X, FY);
            }),
            0u);
  EXPECT_TRUE(Has);
  EXPECT_TRUE(Equal);
}

TEST_F(AllocTest, TermMapCopyIsOneAllocation) {
  TermMap<size_t> Map;
  for (size_t I = 0; I < 100; ++I)
    Map.insert(Ctx.mkVar(std::string("m").append(std::to_string(I))), I);
  size_t Size = 0;
  EXPECT_EQ(allocationsIn([&] {
              TermMap<size_t> Copy = Map;
              keep(Copy);
              Size = Copy.size();
            }),
            1u);
  EXPECT_EQ(Size, 100u);
}

TEST_F(AllocTest, ConjunctionVarsAllocatesResultAndTable) {
  Term W = Ctx.mkVar("w");
  Conjunction C;
  C.add(Eq);                      // x = F(y)
  C.add(Atom::mkLe(Ctx, Z, W));   // z <= w
  std::vector<Term> Vars;
  EXPECT_LE(allocationsIn([&] { Vars = C.vars(); }), 2u);
  EXPECT_EQ(Vars, (std::vector<Term>{W, X, Y, Z}));
}
