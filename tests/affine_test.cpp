//===- tests/affine_test.cpp - The Karr affine-equality domain -------------===//

#include "domains/affine/AffineDomain.h"
#include "domains/affine/EqualityKit.h"
#include "obs/Metrics.h"
#include "service/DomainFactory.h"

#include "TestUtil.h"

#include <algorithm>
#include <random>

using namespace cai;
using cai::test::A;
using cai::test::C;
using cai::test::T;

namespace {

class AffineTest : public ::testing::Test {
protected:
  TermContext Ctx;
  AffineDomain D{Ctx};
};

} // namespace

TEST_F(AffineTest, EntailsBasics) {
  Conjunction E = C(Ctx, "x = y + 1 && y = z");
  EXPECT_TRUE(D.entails(E, A(Ctx, "x = z + 1")));
  EXPECT_TRUE(D.entails(E, A(Ctx, "2*x = 2*z + 2")));
  EXPECT_FALSE(D.entails(E, A(Ctx, "x = z")));
  EXPECT_TRUE(D.entails(Conjunction::bottom(), A(Ctx, "x = z")));
}

TEST_F(AffineTest, IsUnsat) {
  EXPECT_TRUE(D.isUnsat(C(Ctx, "x = 1 && x = 2")));
  EXPECT_FALSE(D.isUnsat(C(Ctx, "x = 1 && y = 2")));
  EXPECT_TRUE(D.isUnsat(C(Ctx, "x = y && x = y + 1")));
}

TEST_F(AffineTest, JoinIsLeastUpperBoundOnLines) {
  // Figure 3's LA part: {x=a, y=b} join {x=b, y=a} gives x+y = a+b.
  Conjunction E1 = C(Ctx, "x = a && y = b");
  Conjunction E2 = C(Ctx, "x = b && y = a");
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "x + y = a + b")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "x = a")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "x = b")));
}

TEST_F(AffineTest, JoinWithBottom) {
  Conjunction E = C(Ctx, "x = 1");
  EXPECT_TRUE(D.entails(D.join(E, Conjunction::bottom()), A(Ctx, "x = 1")));
  EXPECT_TRUE(D.entails(D.join(Conjunction::bottom(), E), A(Ctx, "x = 1")));
}

TEST_F(AffineTest, JoinSoundAndCompleteSpotCheck) {
  Conjunction E1 = C(Ctx, "a = 0 && b = 0");
  Conjunction E2 = C(Ctx, "a = 1 && b = 2");
  Conjunction J = D.join(E1, E2);
  EXPECT_TRUE(D.entails(J, A(Ctx, "b = 2*a")));
  EXPECT_FALSE(D.entails(J, A(Ctx, "a = 0")));
}

TEST_F(AffineTest, ExistQuantProjects) {
  Conjunction E = C(Ctx, "x = z + 1 && y = z + 2");
  Conjunction Q = D.existQuant(E, {T(Ctx, "z")});
  EXPECT_TRUE(D.entails(Q, A(Ctx, "y = x + 1")));
  EXPECT_FALSE(D.entails(Q, A(Ctx, "x = z + 1")));
  // The result must not mention z at all.
  for (Term V : Q.vars())
    EXPECT_NE(V, T(Ctx, "z"));
}

TEST_F(AffineTest, ExistQuantKillsOpaqueTermsContainingVar) {
  // F(z) must die with z even though F is not arithmetic.
  Conjunction E = C(Ctx, "x = F(z) && y = F(z)");
  Conjunction Q = D.existQuant(E, {T(Ctx, "z")});
  // x = y survives (both equal the same opaque column).
  EXPECT_TRUE(D.entails(Q, A(Ctx, "x = y")));
  for (Term V : Q.vars())
    EXPECT_NE(V, T(Ctx, "z"));
}

TEST_F(AffineTest, ImpliedVarEqualities) {
  Conjunction E = C(Ctx, "x = y && y = z + 0 && w = 5");
  std::vector<std::pair<Term, Term>> Eqs = D.impliedVarEqualities(E);
  // x = y = z forms one class: two pairs from the leader.
  ASSERT_EQ(Eqs.size(), 2u);
  EXPECT_TRUE(D.entails(E, Atom::mkEq(Ctx, Eqs[0].first, Eqs[0].second)));
  EXPECT_TRUE(D.entails(E, Atom::mkEq(Ctx, Eqs[1].first, Eqs[1].second)));
}

TEST_F(AffineTest, ImpliedVarEqualitiesThroughConstants) {
  Conjunction E = C(Ctx, "x = 5 && y = 5");
  std::vector<std::pair<Term, Term>> Eqs = D.impliedVarEqualities(E);
  ASSERT_EQ(Eqs.size(), 1u);
}

TEST_F(AffineTest, AlternateFindsRewriting) {
  Conjunction E = C(Ctx, "x = y + 1 && y = z + 1");
  // Avoiding nothing: x = y + 1 is fine.
  std::optional<Term> T1 = D.alternate(E, T(Ctx, "x"), {});
  ASSERT_TRUE(T1);
  EXPECT_TRUE(D.entails(E, Atom::mkEq(Ctx, T(Ctx, "x"), *T1)));
  // Avoiding y: must route through z.
  std::optional<Term> T2 = D.alternate(E, T(Ctx, "x"), {T(Ctx, "y")});
  ASSERT_TRUE(T2);
  EXPECT_FALSE(occursIn(T(Ctx, "y"), *T2));
  EXPECT_TRUE(D.entails(E, Atom::mkEq(Ctx, T(Ctx, "x"), *T2)));
  // Avoiding both: no alternative exists.
  EXPECT_FALSE(D.alternate(E, T(Ctx, "x"), {T(Ctx, "y"), T(Ctx, "z")}));
}

TEST_F(AffineTest, AlternateRejectsTermsContainingTarget) {
  Conjunction E = C(Ctx, "x = x + 0"); // Trivial; no real definition.
  EXPECT_FALSE(D.alternate(E, T(Ctx, "x"), {}));
}

TEST_F(AffineTest, MeetDetectsBottom) {
  Conjunction E1 = C(Ctx, "x = 1");
  Conjunction E2 = C(Ctx, "x = 2");
  EXPECT_TRUE(D.meet(E1, E2).isBottom());
  EXPECT_FALSE(D.meet(E1, C(Ctx, "y = 2")).isBottom());
}

TEST_F(AffineTest, RationalCoefficientsNormalizeToIntegers) {
  // Join of (x=0,y=0) and (x=2,y=1): the hull is x = 2y; coefficients in
  // the rendered atoms must be integral.
  Conjunction J = D.join(C(Ctx, "x = 0 && y = 0"), C(Ctx, "x = 2 && y = 1"));
  EXPECT_TRUE(D.entails(J, A(Ctx, "x = 2*y")));
  for (const Atom &At : J.atoms())
    for (Term Arg : At.args()) {
      std::optional<LinearExpr> L = LinearExpr::fromTerm(Ctx, Arg);
      ASSERT_TRUE(L);
      for (const auto &[Col, Coef] : L->terms())
        EXPECT_TRUE(Coef.isInteger()) << toString(Ctx, At);
    }
}

// Property: join is an upper bound and is associative-ish on random affine
// inputs (upper-bound checks only; LUB uniqueness is exercised above).
class AffineJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(AffineJoinProperty, UpperBoundAndMonotone) {
  TermContext Ctx;
  AffineDomain D(Ctx);
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> Coeff(-2, 2);
  const char *Vars[] = {"x", "y", "z", "w"};
  auto RandomConj = [&]() {
    Conjunction Out;
    for (int R = 0; R < 2; ++R) {
      LinearExpr E;
      for (const char *V : Vars)
        E.addTerm(Ctx.mkVar(V), Rational(Coeff(Rng)));
      E.addConstant(Rational(Coeff(Rng)));
      Out.add(Atom::mkEq(Ctx, E.toTerm(Ctx), Ctx.mkNum(0)));
    }
    return Out;
  };
  for (int Trial = 0; Trial < 50; ++Trial) {
    Conjunction E1 = RandomConj(), E2 = RandomConj();
    if (D.isUnsat(E1) || D.isUnsat(E2))
      continue;
    Conjunction J = D.join(E1, E2);
    for (const Atom &At : J.atoms()) {
      EXPECT_TRUE(D.entails(E1, At));
      EXPECT_TRUE(D.entails(E2, At));
    }
    // Join with self is equivalent to self.
    EXPECT_TRUE(D.equivalent(D.join(E1, E1), E1));
    // Join is commutative up to equivalence.
    EXPECT_TRUE(D.equivalent(J, D.join(E2, E1)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineJoinProperty,
                         ::testing::Values(11, 22, 33, 44));

// Property behind the logical product's pair pruning: for a lattice whose
// joinCommutesWithProjection() is true, joining (or widening) with every
// dummy definition and then projecting out the dropped dummies is
// equivalent to joining with the kept definitions only.  Each dummy is a
// fresh variable defined once per side, p = x on the left and p = y on the
// right, as in Figure 6.  Runs for every domain that answers true.
class ProjectionCommutesProperty : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionCommutesProperty, DroppedDummiesProjectAway) {
  unsigned Checked = 0;
  for (const char *Spec :
       {"affine", "poly", "uf", "parity", "sign", "lists", "arrays",
        "logical:affine,uf", "reduced:affine,uf", "direct:affine,uf"}) {
    TermContext Ctx;
    service::DomainFactory Factory(Ctx);
    const LogicalLattice *L = Factory.build(Spec);
    ASSERT_TRUE(L) << Spec;
    if (!L->joinCommutesWithProjection())
      continue;
    std::mt19937 Rng(GetParam());
    std::uniform_int_distribution<int> Coeff(-2, 2);
    std::bernoulli_distribution Keep(0.5);
    std::vector<Term> Vars = {Ctx.mkVar("x"), Ctx.mkVar("y"), Ctx.mkVar("z"),
                              Ctx.mkVar("w")};
    auto RandomConj = [&]() {
      Conjunction Out;
      for (int R = 0; R < 2; ++R) {
        LinearExpr E;
        for (Term V : Vars)
          E.addTerm(V, Rational(Coeff(Rng)));
        E.addConstant(Rational(Coeff(Rng)));
        Out.add(Atom::mkEq(Ctx, E.toTerm(Ctx), Ctx.mkNum(0)));
      }
      return Out;
    };
    for (int Trial = 0; Trial < 30; ++Trial) {
      Conjunction A = RandomConj(), B = RandomConj();
      if (L->isUnsat(A) || L->isUnsat(B))
        continue;
      Conjunction AllA = A, AllB = B, KeptA = A, KeptB = B;
      std::vector<Term> Dropped;
      for (Term X : Vars)
        for (Term Y : Vars) {
          if (X == Y)
            continue;
          Term P = Ctx.freshVar("p");
          Atom Left = Atom::mkEq(Ctx, X, P), Right = Atom::mkEq(Ctx, Y, P);
          AllA.add(Left);
          AllB.add(Right);
          if (Keep(Rng)) {
            KeptA.add(Left);
            KeptB.add(Right);
          } else {
            Dropped.push_back(P);
          }
        }
      std::string Where = std::string(Spec) + " trial " +
                          std::to_string(Trial) + ": " + toString(Ctx, A) +
                          " | " + toString(Ctx, B);
      Conjunction Full = L->existQuant(L->join(AllA, AllB), Dropped);
      EXPECT_TRUE(L->equivalent(Full, L->join(KeptA, KeptB))) << Where;
      Conjunction FullW = L->existQuant(L->widen(AllA, AllB), Dropped);
      EXPECT_TRUE(L->equivalent(FullW, L->widen(KeptA, KeptB))) << Where;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionCommutesProperty,
                         ::testing::Values(7, 19, 31, 43));

// The structured-form list keeps the last 8 conjunctions.  Interleave 12
// distinct ones so it evicts and re-hits, and check every operator against
// a domain with memoization off (which never consults the list).
TEST_F(AffineTest, CanonListAgreesWithMemoOff) {
  AffineDomain Cold(Ctx);
  Cold.setMemoization(false);
  const char *Texts[] = {
      "x = y + 1 && y = z",     "x = 2*y && z = 3",
      "x + y = z && w = 1",     "x = 1 && x = 2",
      "F(x) = y + 1 && x = z",  "x = y && y = z && z = w",
      "2*x + 3*y = 5",          "x = w - 4 && y = 0",
      "x = y + z && w = x - y", "y = 7 && z = y + 1",
      "x = z && F(y) = w",      "x - y = 2 && z - w = 2"};
  std::vector<Conjunction> Es;
  for (const char *Text : Texts)
    Es.push_back(C(Ctx, Text));
  std::vector<Atom> Queries = {A(Ctx, "x = y"), A(Ctx, "x = z + 1"),
                               A(Ctx, "w = 1"), A(Ctx, "x = q + 1")};
  Term X = T(Ctx, "x"), Y = T(Ctx, "y"), Z = T(Ctx, "z"), W = T(Ctx, "w");

  struct Answers {
    std::vector<bool> Bools;
    std::vector<Conjunction> Conjs;
    std::vector<std::vector<std::pair<Term, Term>>> Pairs;
    std::vector<std::optional<Term>> Terms;
  };
  // Four shuffled rounds over all twelve, every operator on each.
  auto Run = [&](const AffineDomain &Dom) {
    Answers Out;
    std::mt19937 Rng(5);
    std::vector<size_t> Order(Es.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (int Round = 0; Round < 4; ++Round) {
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t K = 0; K < Order.size(); ++K) {
        const Conjunction &E = Es[Order[K]];
        const Conjunction &Next = Es[Order[(K + 1) % Order.size()]];
        Out.Bools.push_back(Dom.isUnsat(E));
        Out.Pairs.push_back(Dom.impliedVarEqualities(E));
        for (const Atom &Q : Queries)
          Out.Bools.push_back(Dom.entails(E, Q));
        Out.Conjs.push_back(Dom.existQuant(E, {X}));
        Out.Conjs.push_back(Dom.existQuant(E, {Y, Z}));
        Out.Terms.push_back(Dom.alternate(E, X, {Y}));
        Out.Terms.push_back(Dom.alternate(E, W, {}));
        Out.Pairs.push_back(Dom.alternateBatch(E, {X, Y}));
        Out.Conjs.push_back(Dom.join(E, Next));
        Out.Conjs.push_back(Dom.join(Next, E));
      }
    }
    return Out;
  };
  auto Counter = [](const char *Name) -> uint64_t {
    auto Values = obs::MetricsRegistry::global().counterValues();
    auto It = Values.find(Name);
    return It == Values.end() ? 0 : It->second;
  };

  uint64_t Hits0 = Counter("domain.affine.canon_hits");
  uint64_t Misses0 = Counter("domain.affine.canon_misses");
  Answers Warm = Run(D);
  uint64_t Hits = Counter("domain.affine.canon_hits") - Hits0;
  uint64_t Misses = Counter("domain.affine.canon_misses") - Misses0;
  Answers Reference = Run(Cold);
  uint64_t ColdBuilds =
      Counter("domain.affine.canon_misses") - Misses0 - Misses;

  EXPECT_EQ(Warm.Bools, Reference.Bools);
  EXPECT_EQ(Warm.Conjs, Reference.Conjs);
  EXPECT_EQ(Warm.Pairs, Reference.Pairs);
  EXPECT_EQ(Warm.Terms, Reference.Terms);

  // Both runs ask for the same structured forms; with memoization off each
  // is built anew.  The list answers some, and the shuffled rounds bring
  // back conjunctions it has evicted, which are built a second time.
  EXPECT_EQ(Hits + Misses, ColdBuilds);
  EXPECT_GT(Hits, 0u);
  EXPECT_GT(Misses, Es.size());
}

namespace {

/// The rendering before rows went straight to atoms, kept as the oracle:
/// a LinearExpr built entry by entry, the integral scale of its difference
/// with the right side, and terms folded with mkAdd.
struct LinearExprRenderer {
  TermContext &Ctx;

  LinearExpr exprOf(const LinRow<Rational> &Coeffs,
                    const std::vector<Term> &Columns,
                    Rational Constant = Rational()) const {
    LinearExpr Expr(std::move(Constant));
    for (size_t C = 0; C < Columns.size(); ++C)
      if (!Coeffs[C].isZero())
        Expr.addTerm(Columns[C], Coeffs[C]);
    return Expr;
  }
  Term toTerm(const LinearExpr &E) const {
    Term Sum = Ctx.mkNum(0);
    for (const auto &[T, C] : E.terms())
      Sum = Ctx.mkAdd(Sum, Ctx.mkMul(C, T));
    if (!E.constant().isZero() || E.terms().empty())
      Sum = Ctx.mkAdd(Sum, Ctx.mkNum(E.constant()));
    return Sum;
  }
  LinearExpr scaled(const LinearExpr &E, const Rational &Factor) const {
    LinearExpr Out(E.constant() * Factor);
    for (const auto &[T, C] : E.terms())
      Out.addTerm(T, C * Factor);
    return Out;
  }
  Atom eqAtom(const LinRow<Rational> &Coeffs, const Rational &Rhs,
              const std::vector<Term> &Columns) const {
    LinearExpr Lhs = exprOf(Coeffs, Columns);
    LinearExpr Diff = Lhs;
    Diff.addConstant(-Rhs);
    Rational Scale = Diff.normalizeIntegral(/*NormalizeSign=*/true);
    return Atom::mkEq(Ctx, toTerm(scaled(Lhs, Scale)),
                      toTerm(LinearExpr(Rhs * Scale)));
  }
  Atom leAtom(const LinRow<Rational> &Coeffs, const Rational &Rhs,
              const std::vector<Term> &Columns) const {
    return Atom::mkLe(Ctx, toTerm(exprOf(Coeffs, Columns)), Ctx.mkNum(Rhs));
  }
  Term rowTerm(const LinRow<Rational> &Row,
               const std::vector<Term> &Columns) const {
    return toTerm(exprOf(Row, Columns, Row[Columns.size()]));
  }
};

} // namespace

// eqAtom, leAtom and rowTerm render a row exactly as the LinearExpr path
// did: fractional and negative coefficients, constant-only rows, a negative
// structurally first coefficient, columns out of structural order.
TEST_F(AffineTest, RowRenderingMatchesLinearExprPath) {
  std::mt19937 Rng(47);
  Symbol F = Ctx.getFunction("F", 1);
  // Columns deliberately out of structural order: opaque terms first,
  // variables in reverse name order.
  std::vector<Term> Pool = {Ctx.mkApp(F, {Ctx.mkVar("b")}), Ctx.mkVar("z"),
                            Ctx.mkVar("y"), Ctx.freshVar("a"), Ctx.mkVar("x"),
                            Ctx.mkVar("c"), Ctx.mkApp(F, {Ctx.mkVar("a")})};
  LinearExprRenderer Old{Ctx};
  auto Coeff = [&] {
    if (Rng() % 3 == 0)
      return Rational();
    int64_t Num = static_cast<int64_t>(Rng() % 13) - 6;
    int64_t Den = 1 + static_cast<int64_t>(Rng() % 4);
    return Rational(BigInt(Num), BigInt(Den));
  };
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::vector<Term> Columns = Pool;
    std::shuffle(Columns.begin(), Columns.end(), Rng);
    Columns.resize(Rng() % (Pool.size() + 1));
    LinRow<Rational> Row(Columns.size() + 1);
    // Every fourth row is constant-only.
    if (Trial % 4 != 0)
      for (size_t C = 0; C < Columns.size(); ++C)
        Row[C] = Coeff();
    Row[Columns.size()] = Coeff();
    const Rational &Rhs = Row[Columns.size()];
    EXPECT_EQ(eqAtom(Ctx, Row.data(), Rhs, Columns),
              Old.eqAtom(Row, Rhs, Columns));
    EXPECT_EQ(leAtom(Ctx, Row.data(), Rhs, Columns),
              Old.leAtom(Row, Rhs, Columns));
    EXPECT_EQ(rowTerm(Ctx, Row, Columns), Old.rowTerm(Row, Columns));
  }
  // A negative structurally first coefficient flips the sign: x comes
  // before y structurally although y is column 0.  The gcd is taken over
  // the coefficients only, so the constant may stay fractional.
  Term X = Ctx.mkVar("x"), Y = Ctx.mkVar("y");
  LinRow<Rational> Row(3);
  Row[0] = Rational(BigInt(1), BigInt(2));
  Row[1] = Rational(BigInt(-3), BigInt(2));
  Row[2] = Rational(BigInt(5), BigInt(4));
  std::vector<Term> Columns = {Y, X};
  Atom Eq = eqAtom(Ctx, Row.data(), Row[2], Columns);
  EXPECT_EQ(Eq, Old.eqAtom(Row, Row[2], Columns));
  EXPECT_EQ(toString(Ctx, Eq), "3*x - y = -5/2");
}

// Rendering an n-column row interns its sum once: beside the scaled
// addends and numerals, exactly one + node, and no partial sums.
TEST(RowRenderingTest, OneSumNodePerRenderedRow) {
  for (size_t N = 2; N <= 7; ++N) {
    TermContext Ctx;
    std::vector<Term> Columns;
    LinRow<Rational> Row(N + 1);
    for (size_t C = 0; C < N; ++C) {
      Columns.push_back(
          Ctx.mkVar(std::string("v").append(std::to_string(C))));
      Row[C] = Rational(static_cast<int64_t>(C + 1));
    }
    Row[N] = Rational(7);
    // The scaled addends (with their numerals) and the right side exist.
    for (size_t C = 0; C < N; ++C)
      Ctx.mkMul(Row[C], Columns[C]);
    Ctx.mkNum(Row[N]);
    size_t Before = Ctx.numTerms();
    Atom Eq = eqAtom(Ctx, Row.data(), Row[N], Columns);
    EXPECT_EQ(Ctx.numTerms(), Before + 1) << N << " columns";
    EXPECT_EQ(termSize(Eq.lhs()) + termSize(Eq.rhs()),
              1 + N + (N - 1) * 2 + 1);
  }
}
