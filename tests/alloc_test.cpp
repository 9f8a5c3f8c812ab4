//===- tests/alloc_test.cpp - Small term-layer objects stay off the heap ---===//
//
// Every join and quantification of the logical product copies atoms and
// conjunctions, rebuilds terms it has built before, fills per-call term
// tables, canonicalizes small equality systems and renders their rows back
// into atoms.  This binary replaces the global operator new and delete
// with counting versions and checks that those copies, rebuilds,
// eliminations and renderings allocate nothing, and that the tables and
// merges cost one allocation each.
//
//===----------------------------------------------------------------------===//

#include "domains/affine/EqualityKit.h"
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
// Out of line, as the library's own are: inlined into a caller, the free()
// would sit beside the operator new call that made the pointer, which
// GCC 12's -Wmismatched-new-delete reports as a mismatch.
__attribute__((noinline)) void operator delete(void *P) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete(void *P, size_t) noexcept {
  std::free(P);
}

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

namespace {

/// Seven columns: a row with its constant is eight entries, all inline.
constexpr size_t SmallCols = 7;

LinRow<Rational> smallRow(size_t Seed) {
  LinRow<Rational> Row(SmallCols + 1);
  for (size_t C = 0; C <= SmallCols; ++C)
    Row[C] = Rational(BigInt(static_cast<int64_t>((Seed * 5 + C * 3) % 7) - 3),
                      BigInt(static_cast<int64_t>(1 + (Seed + C) % 2)));
  return Row;
}

} // namespace

TEST_F(AllocTest, CanonicalizingASmallSystem) {
  AffineSystem<Rational> Sys(SmallCols);
  for (size_t R = 0; R < 5; ++R)
    Sys.addRow(smallRow(R));
  size_t Rank = 0;
  EXPECT_EQ(allocationsIn([&] { Rank = Sys.rank(); }), 0u);
  EXPECT_GT(Rank, 0u);
}

TEST_F(AllocTest, RenderingARowWhoseTermsExist) {
  std::vector<Term> Columns;
  for (size_t C = 0; C < SmallCols; ++C)
    Columns.push_back(Ctx.mkVar(std::string("c").append(std::to_string(C))));
  Columns[2] = FY; // One opaque column.
  LinRow<Rational> Row = smallRow(3);
  const Rational &Rhs = Row[SmallCols];
  Atom FirstEq = eqAtom(Ctx, Row.data(), Rhs, Columns);
  Atom FirstLe = leAtom(Ctx, Row.data(), Rhs, Columns);
  Term FirstTerm = rowTerm(Ctx, Row, Columns);
  Atom Eq2, Le2;
  Term Term2 = nullptr;
  EXPECT_EQ(allocationsIn([&] {
              Eq2 = eqAtom(Ctx, Row.data(), Rhs, Columns);
              Le2 = leAtom(Ctx, Row.data(), Rhs, Columns);
              Term2 = rowTerm(Ctx, Row, Columns);
            }),
            0u);
  EXPECT_EQ(Eq2, FirstEq);
  EXPECT_EQ(Le2, FirstLe);
  EXPECT_EQ(Term2, FirstTerm);
}

TEST_F(AllocTest, MeetOfThreeAtomConjunctionsIsOneAllocation) {
  Term W = Ctx.mkVar("w");
  Conjunction A, B;
  A.add(Eq);
  A.add(Le);
  A.add(Even);
  B.add(Atom::mkEq(Ctx, W, Ctx.mkNum(1)));
  B.add(Atom::mkLe(Ctx, W, X));
  B.add(Atom(Ctx.findSymbol("even"), {W}));
  Conjunction M;
  EXPECT_EQ(allocationsIn([&] { M = A.meet(B); }), 1u);
  EXPECT_EQ(M.size(), 6u);
}
