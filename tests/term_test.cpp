//===- tests/term_test.cpp - Terms, atoms, conjunctions, parser ------------===//

#include "domains/uf/CongruenceClosure.h"
#include "term/Conjunction.h"
#include "term/LinearExpr.h"
#include "term/Parser.h"
#include "term/Printer.h"
#include "term/TermMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <unordered_map>

using namespace cai;

namespace {

class TermTest : public ::testing::Test {
protected:
  TermContext Ctx;
};

} // namespace

TEST_F(TermTest, HashConsingGivesPointerIdentity) {
  Term X1 = Ctx.mkVar("x"), X2 = Ctx.mkVar("x");
  EXPECT_EQ(X1, X2);
  Term N1 = Ctx.mkNum(5), N2 = Ctx.mkNum(5);
  EXPECT_EQ(N1, N2);
  Symbol F = Ctx.getFunction("F", 1);
  EXPECT_EQ(Ctx.mkApp(F, {X1}), Ctx.mkApp(F, {X2}));
  EXPECT_NE(Ctx.mkApp(F, {X1}), Ctx.mkApp(F, {N1}));
}

TEST_F(TermTest, FreshVarsAreDistinctAndReserved) {
  Term A = Ctx.freshVar("t"), B = Ctx.freshVar("t");
  EXPECT_NE(A, B);
  EXPECT_EQ(A->varName()[0], '$');
}

TEST_F(TermTest, AddFoldsConstantsAndFlattens) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Term Sum = Ctx.mkAdd(Ctx.mkAdd(X, Ctx.mkNum(2)), Ctx.mkAdd(Y, Ctx.mkNum(3)));
  // x + 2 + y + 3 == x + y + 5, flattened into one n-ary sum.
  ASSERT_TRUE(Sum->isApp());
  EXPECT_EQ(Sum->symbol(), Ctx.addSymbol());
  EXPECT_EQ(Sum->args().size(), 3u);
  EXPECT_EQ(toString(Ctx, Sum), "x + y + 5");
}

TEST_F(TermTest, MulNormalizations) {
  Term X = Ctx.mkVar("x");
  EXPECT_EQ(Ctx.mkMul(Rational(0), X), Ctx.mkNum(0));
  EXPECT_EQ(Ctx.mkMul(Rational(1), X), X);
  EXPECT_EQ(Ctx.mkMul(Rational(3), Ctx.mkNum(2)), Ctx.mkNum(6));
  Term TwoX = Ctx.mkMul(Rational(2), X);
  EXPECT_EQ(Ctx.mkMul(Rational(3), TwoX), Ctx.mkMul(Rational(6), X));
}

TEST_F(TermTest, SubBuildsNegatedAddend) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Term D = Ctx.mkSub(X, Y);
  EXPECT_EQ(toString(Ctx, D), "x - y");
  EXPECT_EQ(Ctx.mkSub(X, X), Ctx.mkNum(0));
}

TEST_F(TermTest, SubstituteRebuildsNormalized) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Symbol F = Ctx.getFunction("F", 1);
  Term T = Ctx.mkAdd(Ctx.mkApp(F, {X}), X);
  Substitution S;
  S.emplace(X, Ctx.mkAdd(Y, Ctx.mkNum(1)));
  Term R = Ctx.substitute(T, S);
  // Addends are in canonical (term-id) order: y was interned before the
  // F-application, so it prints first.
  EXPECT_EQ(toString(Ctx, R), "y + F(y + 1) + 1");
  // Substituting a variable not present is the identity (same pointer).
  Substitution None;
  None.emplace(Ctx.mkVar("zz"), Y);
  EXPECT_EQ(Ctx.substitute(T, None), T);
}

TEST_F(TermTest, OccursAndDepthAndSize) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Symbol F = Ctx.getFunction("F", 1);
  Term T = Ctx.mkApp(F, {Ctx.mkApp(F, {X})});
  EXPECT_TRUE(occursIn(X, T));
  EXPECT_FALSE(occursIn(Y, T));
  EXPECT_EQ(termDepth(T), 3u);
  EXPECT_EQ(termSize(T), 3u);
  EXPECT_EQ(termDepth(X), 1u);
}

TEST_F(TermTest, CollectVarsDedupsAndOrders) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Symbol G = Ctx.getFunction("G", 2);
  Term T = Ctx.mkApp(G, {Ctx.mkAdd(X, Y), X});
  std::vector<Term> Vars;
  collectVars(T, Vars);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0], X);
  EXPECT_EQ(Vars[1], Y);
}

// Atom::collectVars and Conjunction::vars gather in one pass and sort once.
// They must give exactly what collecting one argument at a time gives
// (collectVars per argument, sorting after each, then a final dedup for
// vars()), also when the output vector already holds entries, unsorted and
// with duplicates, which both ways keep.
TEST_F(TermTest, OnePassVarCollectionMatchesPerArgument) {
  std::mt19937 Rng(17);
  Symbol F = Ctx.getFunction("F", 1), G = Ctx.getFunction("G", 2);
  std::vector<Term> Pool = {Ctx.mkVar("x"), Ctx.mkVar("y"), Ctx.mkVar("z"),
                            Ctx.mkVar("w"), Ctx.freshVar("a"),
                            Ctx.freshVar("p")};
  std::function<Term(int)> Random = [&](int Depth) -> Term {
    switch (Depth == 0 ? Rng() % 2 : Rng() % 5) {
    case 0:
      return Pool[Rng() % Pool.size()];
    case 1:
      return Ctx.mkNum(static_cast<int64_t>(Rng() % 3));
    case 2:
      return Ctx.mkApp(F, {Random(Depth - 1)});
    case 3:
      return Ctx.mkApp(G, {Random(Depth - 1), Random(Depth - 1)});
    default:
      return Ctx.mkAdd(Random(Depth - 1), Random(Depth - 1));
    }
  };
  auto PerArgument = [](const Atom &A, std::vector<Term> Out) {
    for (Term Arg : A.args())
      collectVars(Arg, Out);
    return Out;
  };
  for (int Trial = 0; Trial < 200; ++Trial) {
    Conjunction E;
    for (int K = Rng() % 4; K >= 0; --K)
      E.add(Atom::mkEq(Ctx, Random(3), Random(3)));
    std::vector<Term> Expected;
    for (const Atom &A : E.atoms())
      Expected = PerArgument(A, Expected);
    std::sort(Expected.begin(), Expected.end(), TermStructLess());
    Expected.erase(std::unique(Expected.begin(), Expected.end()),
                   Expected.end());
    EXPECT_EQ(E.vars(), Expected) << toString(Ctx, E);

    std::vector<Term> Prefilled = {Pool[Rng() % Pool.size()],
                                   Pool[Rng() % Pool.size()],
                                   Pool[Rng() % Pool.size()]};
    for (const Atom &A : E.atoms()) {
      std::vector<Term> Got = Prefilled;
      A.collectVars(Got);
      EXPECT_EQ(Got, PerArgument(A, Prefilled)) << toString(Ctx, A);
    }
  }
}

TEST_F(TermTest, AtomCanonicalizesEquality) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  EXPECT_EQ(Atom::mkEq(Ctx, X, Y), Atom::mkEq(Ctx, Y, X));
  EXPECT_NE(Atom::mkLe(Ctx, X, Y), Atom::mkLe(Ctx, Y, X));
}

TEST_F(TermTest, AtomTriviality) {
  Term X = Ctx.mkVar("x");
  EXPECT_TRUE(Atom::mkEq(Ctx, X, X).isTrivial(Ctx));
  EXPECT_TRUE(Atom::mkLe(Ctx, Ctx.mkNum(1), Ctx.mkNum(2)).isTrivial(Ctx));
  EXPECT_FALSE(Atom::mkLe(Ctx, Ctx.mkNum(2), Ctx.mkNum(1)).isTrivial(Ctx));
  EXPECT_FALSE(Atom::mkEq(Ctx, X, Ctx.mkNum(0)).isTrivial(Ctx));
}

TEST_F(TermTest, ConjunctionSortedDedup) {
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Conjunction C;
  C.add(Atom::mkEq(Ctx, X, Y));
  C.add(Atom::mkEq(Ctx, Y, X)); // Same canonical atom.
  C.add(Atom::mkEq(Ctx, X, Ctx.mkNum(1)));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_TRUE(C.contains(Atom::mkEq(Ctx, Y, X)));
}

TEST_F(TermTest, ConjunctionBottomAbsorbs) {
  Conjunction B = Conjunction::bottom();
  Conjunction T = Conjunction::top();
  EXPECT_TRUE(B.meet(T).isBottom());
  EXPECT_TRUE(T.meet(B).isBottom());
  EXPECT_TRUE(T.isTop());
  B.add(Atom::mkEq(Ctx, Ctx.mkVar("x"), Ctx.mkNum(1)));
  EXPECT_TRUE(B.isBottom());
}

TEST_F(TermTest, LinearExprDecomposition) {
  std::optional<Term> T = parseTerm(Ctx, "2*x - 3*y + 4 + x");
  ASSERT_TRUE(T);
  std::optional<LinearExpr> L = LinearExpr::fromTerm(Ctx, *T);
  ASSERT_TRUE(L);
  EXPECT_EQ(L->coeff(Ctx.mkVar("x")), Rational(3));
  EXPECT_EQ(L->coeff(Ctx.mkVar("y")), Rational(-3));
  EXPECT_EQ(L->constant(), Rational(4));
  EXPECT_TRUE(L->allVars());
}

TEST_F(TermTest, LinearExprOpaqueIndeterminates) {
  std::optional<Term> T = parseTerm(Ctx, "2*F(x) + y");
  ASSERT_TRUE(T);
  std::optional<LinearExpr> L = LinearExpr::fromTerm(Ctx, *T);
  ASSERT_TRUE(L);
  EXPECT_FALSE(L->allVars());
  Symbol F = Ctx.findSymbol("F");
  EXPECT_EQ(L->coeff(Ctx.mkApp(F, {Ctx.mkVar("x")})), Rational(2));
}

TEST_F(TermTest, LinearExprRejectsNonLinear) {
  // x*y cannot be parsed (parser enforces a numeral factor), so build it.
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  Term Bad = Ctx.mkApp(Ctx.mulSymbol(), {X, Y});
  EXPECT_FALSE(LinearExpr::fromTerm(Ctx, Bad).has_value());
}

TEST_F(TermTest, LinearExprNormalizeIntegral) {
  LinearExpr E;
  E.addTerm(Ctx.mkVar("x"), Rational(BigInt(1), BigInt(2)));
  E.addTerm(Ctx.mkVar("y"), Rational(BigInt(-1), BigInt(3)));
  E.addConstant(Rational(BigInt(1), BigInt(6)));
  E.normalizeIntegral(/*NormalizeSign=*/true);
  EXPECT_EQ(E.coeff(Ctx.mkVar("x")), Rational(3));
  EXPECT_EQ(E.coeff(Ctx.mkVar("y")), Rational(-2));
  EXPECT_EQ(E.constant(), Rational(1));
}

TEST_F(TermTest, ParsePrintRoundTrip) {
  const char *Terms[] = {"x",       "42",          "x + y + 5", "x - y",
                         "2*x",     "F(x + 1)",    "G(x, y)",   "F(F(x))",
                         "x - 2*y", "F(2*x - y)"};
  for (const char *Text : Terms) {
    std::optional<Term> T = parseTerm(Ctx, Text);
    ASSERT_TRUE(T) << Text;
    std::optional<Term> Again = parseTerm(Ctx, toString(Ctx, *T));
    ASSERT_TRUE(Again) << toString(Ctx, *T);
    EXPECT_EQ(*T, *Again) << Text << " vs " << toString(Ctx, *T);
  }
}

TEST_F(TermTest, ParseAtoms) {
  std::optional<Atom> A = parseAtom(Ctx, "x + 1 <= F(y)");
  ASSERT_TRUE(A);
  EXPECT_TRUE(A->isLe(Ctx));
  // Strict < desugars with integer semantics.
  std::optional<Atom> Lt = parseAtom(Ctx, "x < y");
  ASSERT_TRUE(Lt);
  EXPECT_EQ(toString(Ctx, *Lt), "x + 1 <= y");
  std::optional<Atom> Ge = parseAtom(Ctx, "x >= y");
  ASSERT_TRUE(Ge);
  EXPECT_EQ(toString(Ctx, *Ge), "y <= x");
}

TEST_F(TermTest, ParsePredicateAtoms) {
  Ctx.getPredicate("even", 1);
  std::optional<Atom> A = parseAtom(Ctx, "even(x + 1)");
  ASSERT_TRUE(A);
  EXPECT_EQ(Ctx.info(A->predicate()).Name, "even");
  ASSERT_EQ(A->args().size(), 1u);
}

TEST_F(TermTest, ParseConjunctions) {
  std::optional<Conjunction> C = parseConjunction(Ctx, "x = 1 && y <= x + 2");
  ASSERT_TRUE(C);
  EXPECT_EQ(C->size(), 2u);
  EXPECT_TRUE(parseConjunction(Ctx, "true")->isTop());
  EXPECT_TRUE(parseConjunction(Ctx, "false")->isBottom());
}

TEST_F(TermTest, ParseErrorsAreReported) {
  std::string Error;
  EXPECT_FALSE(parseTerm(Ctx, "x +", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseTerm(Ctx, "x y", &Error)); // Trailing input.
  EXPECT_FALSE(parseAtom(Ctx, "x != y", &Error));
  EXPECT_FALSE(parseTerm(Ctx, "x * y", &Error)); // Non-linear.
  EXPECT_FALSE(parseConjunction(Ctx, "x = 1 &&", &Error));
}

TEST_F(TermTest, NegateAtomForms) {
  std::optional<Atom> Le = parseAtom(Ctx, "x <= y");
  std::optional<Atom> NotLe = negateAtom(Ctx, *Le);
  ASSERT_TRUE(NotLe);
  EXPECT_EQ(toString(Ctx, *NotLe), "y + 1 <= x");

  std::optional<Atom> Eq = parseAtom(Ctx, "x = y");
  EXPECT_FALSE(negateAtom(Ctx, *Eq)); // Disequality is not atomic.

  Ctx.getPredicate("even", 1);
  Ctx.getPredicate("odd", 1);
  std::optional<Atom> Even = parseAtom(Ctx, "even(x)");
  std::optional<Atom> NotEven = negateAtom(Ctx, *Even);
  ASSERT_TRUE(NotEven);
  EXPECT_EQ(Ctx.info(NotEven->predicate()).Name, "odd");

  Ctx.getPredicate("positive", 1);
  Ctx.getPredicate("negative", 1);
  std::optional<Atom> Pos = parseAtom(Ctx, "positive(x)");
  std::optional<Atom> NotPos = negateAtom(Ctx, *Pos);
  ASSERT_TRUE(NotPos);
  EXPECT_EQ(toString(Ctx, *NotPos), "negative(x - 1)");
}

TEST_F(TermTest, PrinterNegativeCoefficients) {
  std::optional<Term> T = parseTerm(Ctx, "0 - x + 2*y - 3");
  ASSERT_TRUE(T);
  std::optional<Term> Again = parseTerm(Ctx, toString(Ctx, *T));
  ASSERT_TRUE(Again);
  EXPECT_EQ(*T, *Again);
}

// Every node records its depth when it is interned; termDepth reads it.
TEST_F(TermTest, StoredDepthMatchesRecursiveReference) {
  std::mt19937 Rng(23);
  Symbol F = Ctx.getFunction("F", 1), G = Ctx.getFunction("G", 2);
  std::vector<Term> Pool = {Ctx.mkVar("x"), Ctx.mkVar("y"), Ctx.mkNum(2)};
  std::function<unsigned(Term)> Reference = [&](Term T) -> unsigned {
    unsigned Max = 0;
    if (T->isApp())
      for (Term Arg : T->args())
        Max = std::max(Max, Reference(Arg));
    return Max + 1;
  };
  for (int Step = 0; Step < 400; ++Step) {
    Term A = Pool[Rng() % Pool.size()], B = Pool[Rng() % Pool.size()];
    Term T;
    switch (Rng() % 4) {
    case 0:
      T = Ctx.mkApp(F, {A});
      break;
    case 1:
      T = Ctx.mkApp(G, {A, B});
      break;
    case 2:
      T = Ctx.mkAdd(A, B);
      break;
    default:
      T = Ctx.mkMul(Rational(static_cast<int64_t>(Rng() % 5) - 2), A);
      break;
    }
    ASSERT_EQ(termDepth(T), Reference(T)) << toString(Ctx, T);
    Pool.push_back(T);
  }
}

namespace {

/// A seeded random linear combination over a fixed pool of indeterminates
/// (variables and F(...) terms), and the builders that must all agree on
/// its one hash-consed node.
struct SumFixture {
  TermContext &Ctx;
  std::mt19937 &Rng;
  std::vector<Term> Pool;
  std::vector<int64_t> Coeffs;
  int64_t Constant = 0;

  SumFixture(TermContext &Ctx, std::mt19937 &Rng) : Ctx(Ctx), Rng(Rng) {
    Symbol F = Ctx.getFunction("F", 1);
    Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y"), Z = Ctx.mkVar("z");
    Pool = {X, Y, Z, Ctx.freshVar("a"), Ctx.mkApp(F, {X}),
            Ctx.mkApp(F, {Ctx.mkAdd(Y, Ctx.mkNum(1))})};
  }

  void draw() {
    Coeffs.clear();
    for (size_t I = 0; I < Pool.size(); ++I)
      Coeffs.push_back(static_cast<int64_t>(Rng() % 7) - 3);
    Constant = static_cast<int64_t>(Rng() % 5) - 2;
  }

  /// The addends c_i * P_i, each coefficient split in two pieces so like
  /// terms must combine, plus the constant, in a shuffled order.
  std::vector<Term> pieces() {
    std::vector<Term> Out;
    for (size_t I = 0; I < Pool.size(); ++I) {
      int64_t Part = static_cast<int64_t>(Rng() % 5) - 2;
      Out.push_back(Ctx.mkMul(Rational(Part), Pool[I]));
      Out.push_back(Ctx.mkMul(Rational(Coeffs[I] - Part), Pool[I]));
    }
    Out.push_back(Ctx.mkNum(Constant));
    std::shuffle(Out.begin(), Out.end(), Rng);
    return Out;
  }

  /// Sums \p Pieces[Lo, Hi) under a random association.
  Term associate(const std::vector<Term> &Pieces, size_t Lo, size_t Hi) {
    if (Hi - Lo == 1)
      return Pieces[Lo];
    size_t Mid = Lo + 1 + Rng() % (Hi - Lo - 1);
    return Ctx.mkAdd(associate(Pieces, Lo, Mid), associate(Pieces, Mid, Hi));
  }
};

} // namespace

// Any order, association and mix of builders yields the same node.
TEST_F(TermTest, SumsHashConsToOneNode) {
  std::mt19937 Rng(29);
  SumFixture S(Ctx, Rng);
  Term Hole = Ctx.mkVar("hole");
  for (int Trial = 0; Trial < 150; ++Trial) {
    S.draw();
    Term Left = Ctx.mkNum(S.Constant);
    for (size_t I = 0; I < S.Pool.size(); ++I)
      Left = Ctx.mkAdd(Left, Ctx.mkMul(Rational(S.Coeffs[I]), S.Pool[I]));

    std::vector<Term> Pieces = S.pieces();
    EXPECT_EQ(S.associate(Pieces, 0, Pieces.size()), Left);

    Term Right = Ctx.mkNum(0);
    for (Term P : S.pieces())
      Right = Ctx.mkAdd(P, Right);
    EXPECT_EQ(Right, Left);

    // Subtracting negated pieces, and scaling there and back.
    Term Sub = Ctx.mkNum(0);
    for (Term P : S.pieces())
      Sub = Ctx.mkSub(Sub, Ctx.mkNeg(P));
    EXPECT_EQ(Sub, Left);
    EXPECT_EQ(Ctx.mkMul(Rational(BigInt(1), BigInt(6)),
                        Ctx.mkMul(Rational(6), Left)),
              Left);

    // One indeterminate built through a placeholder, then substituted.
    size_t J = Rng() % S.Pool.size();
    Term WithHole = Ctx.mkNum(S.Constant);
    for (size_t I = 0; I < S.Pool.size(); ++I)
      WithHole = Ctx.mkAdd(
          WithHole, Ctx.mkMul(Rational(S.Coeffs[I]), I == J ? Hole : S.Pool[I]));
    EXPECT_EQ(Ctx.substitute(WithHole, {{Hole, S.Pool[J]}}), Left);
  }
}

// LinearExpr entries are strictly increasing under TermStructLess, and a
// canonical term round-trips through its view.
TEST_F(TermTest, LinearViewsAreSortedAndRoundTrip) {
  std::mt19937 Rng(31);
  SumFixture S(Ctx, Rng);
  for (int Trial = 0; Trial < 150; ++Trial) {
    S.draw();
    std::vector<Term> Pieces = S.pieces();
    Term T = S.associate(Pieces, 0, Pieces.size());
    std::optional<LinearExpr> L = LinearExpr::fromTerm(Ctx, T);
    ASSERT_TRUE(L) << toString(Ctx, T);
    const LinearExpr::TermList &Entries = L->terms();
    for (size_t I = 0; I < Entries.size(); ++I) {
      EXPECT_FALSE(Entries[I].second.isZero());
      if (I > 0) {
        EXPECT_TRUE(TermStructLess()(Entries[I - 1].first, Entries[I].first))
            << toString(Ctx, T);
      }
    }
    size_t NonZero = 0;
    for (int64_t C : S.Coeffs)
      NonZero += C != 0;
    EXPECT_EQ(Entries.size(), NonZero);
    EXPECT_EQ(L->toTerm(Ctx), T) << toString(Ctx, T);
    LinearExpr Cancelled = *L;
    for (const auto &[Ind, C] : Entries)
      Cancelled.addTerm(Ind, -C);
    EXPECT_EQ(Cancelled.terms().size(), 0u);
  }
}

// The hash-consing table tells argument lists apart by order and length.
TEST_F(TermTest, MkAppDistinguishesArgumentLists) {
  std::mt19937 Rng(37);
  Symbol Sum = Ctx.addSymbol(); // The one variadic symbol.
  Symbol G = Ctx.getFunction("G", 2);
  std::vector<Term> Pool = {Ctx.mkVar("x"), Ctx.mkVar("y"), Ctx.mkNum(1),
                            Ctx.mkApp(Ctx.getFunction("F", 1), {Ctx.mkVar("x")})};
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::vector<Term> Args;
    for (size_t N = 1 + Rng() % 4; N > 0; --N)
      Args.push_back(Pool[Rng() % Pool.size()]);
    Term T = Ctx.mkApp(Sum, Args);
    EXPECT_EQ(Ctx.mkApp(Sum, Args.data(), Args.size()), T);

    std::vector<Term> Permuted = Args;
    std::shuffle(Permuted.begin(), Permuted.end(), Rng);
    if (Permuted != Args) {
      EXPECT_NE(Ctx.mkApp(Sum, Permuted), T);
    }
    if (Args.size() > 1) {
      EXPECT_NE(Ctx.mkApp(Sum, Args.data(), Args.size() - 1), T);
    }
    std::vector<Term> Longer = Args;
    Longer.push_back(Pool[Rng() % Pool.size()]);
    EXPECT_NE(Ctx.mkApp(Sum, Longer), T);

    Term A = Pool[Rng() % Pool.size()], B = Pool[Rng() % Pool.size()];
    if (A != B) {
      EXPECT_NE(Ctx.mkApp(G, {A, B}), Ctx.mkApp(G, {B, A}));
    }
  }
}

// allClasses lists classes by ascending representative, members ascending,
// and partitions the nodes exactly as find does.
TEST_F(TermTest, CongruenceClassesAscending) {
  std::mt19937 Rng(41);
  Symbol F = Ctx.getFunction("F", 1), G = Ctx.getFunction("G", 2);
  std::vector<Term> Leaves = {Ctx.mkVar("a"), Ctx.mkVar("b"), Ctx.mkVar("c"),
                              Ctx.mkVar("d"), Ctx.mkNum(0)};
  for (int Trial = 0; Trial < 100; ++Trial) {
    CongruenceClosure CC(Ctx);
    std::vector<Term> Terms = Leaves;
    for (int I = 0; I < 8; ++I) {
      Term A = Terms[Rng() % Terms.size()], B = Terms[Rng() % Terms.size()];
      Terms.push_back(Rng() % 2 ? Ctx.mkApp(F, {A}) : Ctx.mkApp(G, {A, B}));
    }
    std::shuffle(Terms.begin(), Terms.end(), Rng);
    for (Term T : Terms)
      CC.addTerm(T);
    for (int I = 0; I < 3; ++I)
      CC.addEquality(Terms[Rng() % Terms.size()], Terms[Rng() % Terms.size()]);

    std::vector<std::vector<unsigned>> Classes = CC.allClasses();
    std::vector<unsigned> Seen(CC.numNodes(), 0);
    for (size_t I = 0; I < Classes.size(); ++I) {
      const std::vector<unsigned> &Members = Classes[I];
      ASSERT_FALSE(Members.empty());
      if (I > 0) {
        EXPECT_LT(Classes[I - 1].front(), Members.front());
      }
      EXPECT_EQ(CC.find(Members.front()), Members.front());
      for (size_t K = 0; K < Members.size(); ++K) {
        if (K > 0) {
          EXPECT_LT(Members[K - 1], Members[K]);
        }
        EXPECT_EQ(CC.find(Members[K]), Members.front());
        ++Seen[Members[K]];
      }
    }
    for (unsigned N = 0; N < CC.numNodes(); ++N)
      EXPECT_EQ(Seen[N], 1u) << "node " << N;
  }
}

// TermMap against std::unordered_map, seeded: a repeated insert keeps the
// first value, absent keys are not found, values stay put while the table
// doubles from 16 to 4096 slots, and a copy is independent of its original.
// The keys are variables of a fresh context, so their ids are consecutive.
TEST_F(TermTest, TermMapMatchesUnorderedMap) {
  std::mt19937 Rng(25);
  std::vector<Term> Keys;
  for (int I = 0; I < 1500; ++I)
    Keys.push_back(Ctx.mkVar(std::string("k").append(std::to_string(I))));
  for (size_t I = 1; I < Keys.size(); ++I)
    ASSERT_EQ(Keys[I]->id(), Keys[I - 1]->id() + 1);
  TermMap<int> Map;
  std::unordered_map<Term, int> Ref;
  for (int Step = 0; Step < 6000; ++Step) {
    Term K = Keys[Rng() % Keys.size()];
    int V = static_cast<int>(Rng() % 1000);
    if (Rng() % 4 == 0) {
      // Overwrite through find, as the union-find does.
      int *Found = Map.find(K);
      auto It = Ref.find(K);
      ASSERT_EQ(Found != nullptr, It != Ref.end());
      if (Found) {
        *Found = V;
        It->second = V;
      }
      continue;
    }
    auto [Slot, Inserted] = Map.insert(K, V);
    auto [It, RefInserted] = Ref.emplace(K, V);
    ASSERT_EQ(Inserted, RefInserted) << "step " << Step;
    ASSERT_EQ(*Slot, It->second) << "step " << Step;
    ASSERT_EQ(Map.size(), Ref.size());
  }
  ASSERT_GT(Map.size(), 1024u); // Past five doublings of the 16 slots.
  for (Term K : Keys) {
    const int *Found = std::as_const(Map).find(K);
    auto It = Ref.find(K);
    ASSERT_EQ(Found != nullptr, It != Ref.end());
    if (Found) {
      EXPECT_EQ(*Found, It->second);
    }
  }
  // Terms that are not variables, and an empty map, are absent.
  EXPECT_EQ(Map.find(Ctx.mkNum(7)), nullptr);
  EXPECT_EQ(TermMap<int>().find(Keys[0]), nullptr);

  TermMap<int> Copy = Map;
  for (Term K : Keys)
    if (int *V = Copy.find(K))
      *V = -1;
  Copy.insert(Ctx.mkVar("only_in_copy"), 5);
  EXPECT_EQ(Copy.size(), Map.size() + 1);
  EXPECT_EQ(Map.find(Ctx.mkVar("only_in_copy")), nullptr);
  for (const auto &[K, V] : Ref) {
    ASSERT_NE(Map.find(K), nullptr);
    EXPECT_EQ(*Map.find(K), V);
  }
}

// mkSum over any list of addends interns the node a left fold of mkAdd
// reaches: flattening, merging and the structural sort do not depend on how
// the addends are grouped.
TEST_F(TermTest, MkSumMatchesFoldOfMkAdd) {
  std::mt19937 Rng(41);
  Symbol F = Ctx.getFunction("F", 1);
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y"), Z = Ctx.mkVar("z");
  std::vector<Term> Leaves = {X, Y, Z, Ctx.freshVar("a"), Ctx.mkApp(F, {X}),
                              Ctx.mkApp(F, {Ctx.mkAdd(Y, Ctx.mkNum(2))})};
  auto Coeff = [&] {
    int64_t Num = static_cast<int64_t>(Rng() % 9) - 4;
    int64_t Den = 1 + static_cast<int64_t>(Rng() % 3);
    return Rational(BigInt(Num), BigInt(Den));
  };
  // One addend: a leaf, a numeral (zero and fractions included), a scaled
  // leaf or a nested sum of scaled leaves.
  auto Addend = [&]() -> Term {
    Term Leaf = Leaves[Rng() % Leaves.size()];
    switch (Rng() % 4) {
    case 0:
      return Leaf;
    case 1:
      return Ctx.mkNum(Coeff());
    case 2:
      return Ctx.mkMul(Coeff(), Leaf);
    default: {
      Term Other = Leaves[Rng() % Leaves.size()];
      Term Rest = Ctx.mkAdd(Ctx.mkMul(Coeff(), Other), Ctx.mkNum(Coeff()));
      return Ctx.mkAdd(Ctx.mkMul(Coeff(), Leaf), Rest);
    }
    }
  };
  for (int Trial = 0; Trial < 400; ++Trial) {
    std::vector<Term> Addends;
    size_t N = Rng() % 13;
    for (size_t I = 0; I < N; ++I)
      Addends.push_back(Addend());
    // Pieces that cancel: some addend and its negation.
    if (N > 0 && Rng() % 3 == 0)
      Addends.push_back(Ctx.mkNeg(Addends[Rng() % N]));
    std::shuffle(Addends.begin(), Addends.end(), Rng);
    Term Fold = Ctx.mkNum(0);
    for (Term A : Addends)
      Fold = Ctx.mkAdd(Fold, A);
    EXPECT_EQ(Ctx.mkSum(Addends.data(), Addends.size()), Fold)
        << toString(Ctx, Fold);
  }
  EXPECT_EQ(Ctx.mkSum(nullptr, 0), Ctx.mkNum(0));
  EXPECT_EQ(Ctx.mkSum(&X, 1), X);
}

namespace {

/// The conjunction of \p Atoms, one add() at a time: the reference for
/// the batch builders.
Conjunction addAll(const std::vector<Atom> &Atoms) {
  Conjunction C;
  for (const Atom &A : Atoms)
    C.add(A);
  return C;
}

void expectSameConjunction(const Conjunction &Got, const Conjunction &Want) {
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(Got.isBottom(), Want.isBottom());
  EXPECT_EQ(Got.fingerprint(), Want.fingerprint());
  if (!Got.isBottom() && !Want.isBottom()) {
    ASSERT_EQ(Got.size(), Want.size());
    EXPECT_TRUE(std::equal(Got.begin(), Got.end(), Want.begin()));
  }
}

} // namespace

// of, meet, substitute and simplified build the list add() would, with one
// sort, one merge or one in-order filter.
TEST_F(TermTest, ConjunctionBatchBuildersMatchAddLoops) {
  std::mt19937 Rng(43);
  Symbol F = Ctx.getFunction("F", 1);
  Symbol Even = Ctx.findSymbol("even");
  std::vector<Term> Vars;
  for (const char *Name : {"u", "v", "w", "x", "y"})
    Vars.push_back(Ctx.mkVar(Name));
  auto Var = [&] { return Vars[Rng() % Vars.size()]; };
  auto Side = [&]() -> Term {
    switch (Rng() % 4) {
    case 0:
      return Var();
    case 1:
      return Ctx.mkApp(F, {Var()});
    case 2:
      return Ctx.mkAdd(Var(), Ctx.mkNum(static_cast<int64_t>(Rng() % 3)));
    default:
      return Ctx.mkNum(static_cast<int64_t>(Rng() % 3));
    }
  };
  auto RandomAtom = [&]() -> Atom {
    switch (Rng() % 3) {
    case 0:
      return Atom::mkEq(Ctx, Side(), Side());
    case 1:
      return Atom::mkLe(Ctx, Side(), Side());
    default:
      return Atom(Even, {Side()});
    }
  };
  auto RandomList = [&](size_t Max) {
    std::vector<Atom> Out;
    size_t N = Rng() % (Max + 1);
    for (size_t I = 0; I < N; ++I)
      Out.push_back(RandomAtom());
    // Duplicates, then a shuffle.
    for (size_t I = 0, Dups = N / 3; I < Dups; ++I)
      Out.push_back(Out[Rng() % N]);
    std::shuffle(Out.begin(), Out.end(), Rng);
    return Out;
  };
  auto Of = [](const std::vector<Atom> &Atoms) {
    return Conjunction::of(Conjunction::AtomList(Atoms.begin(), Atoms.end()));
  };

  for (int Trial = 0; Trial < 300; ++Trial) {
    std::vector<Atom> ListA = RandomList(9), ListB = RandomList(9);
    // Overlapping and equal operands.
    if (Trial % 5 == 1 && !ListA.empty())
      ListB.insert(ListB.end(), ListA.begin(),
                   ListA.begin() + 1 + Rng() % ListA.size());
    if (Trial % 5 == 2)
      ListB = ListA;
    Conjunction A = addAll(ListA), B = addAll(ListB);
    expectSameConjunction(Of(ListA), A);
    expectSameConjunction(Of(ListB), B);

    std::vector<Atom> Both = ListA;
    Both.insert(Both.end(), ListB.begin(), ListB.end());
    expectSameConjunction(A.meet(B), addAll(Both));
    expectSameConjunction(B.meet(A), addAll(Both));
    expectSameConjunction(A.meet(Conjunction::top()), A);
    expectSameConjunction(Conjunction::top().meet(A), A);
    expectSameConjunction(A.meet(Conjunction::bottom()), Conjunction::bottom());
    expectSameConjunction(Conjunction::bottom().meet(A), Conjunction::bottom());

    // A substitution that can make atoms coincide (x and y to one term).
    Substitution S;
    Term To = Rng() % 2 ? Vars[0] : Ctx.mkApp(F, {Vars[1]});
    S.emplace(Vars[3], To);
    S.emplace(Vars[4], To);
    Conjunction Substituted;
    for (const Atom &At : A)
      Substituted.add(At.substitute(Ctx, S));
    expectSameConjunction(A.substitute(Ctx, S), Substituted);

    Conjunction Simplified;
    for (const Atom &At : A)
      if (!At.isTrivial(Ctx))
        Simplified.add(At);
    expectSameConjunction(A.simplified(Ctx), Simplified);
    expectSameConjunction(A.substitute(Ctx, S).simplified(Ctx),
                          [&] {
                            Conjunction R;
                            for (const Atom &At : Substituted)
                              if (!At.isTrivial(Ctx))
                                R.add(At);
                            return R;
                          }());
  }
  // Two distinct atoms that one substitution makes equal collapse to one.
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y"), U = Ctx.mkVar("u");
  Conjunction Two = addAll({Atom::mkEq(Ctx, X, U), Atom::mkEq(Ctx, Y, U)});
  Substitution S;
  S.emplace(Y, X);
  Conjunction One = Two.substitute(Ctx, S);
  EXPECT_EQ(One.size(), 1u);
  expectSameConjunction(One, addAll({Atom::mkEq(Ctx, X, U)}));
  expectSameConjunction(Conjunction::bottom().substitute(Ctx, S),
                        Conjunction::bottom());
  expectSameConjunction(Conjunction::bottom().simplified(Ctx),
                        Conjunction::bottom());
  expectSameConjunction(Of({}), Conjunction::top());
}
