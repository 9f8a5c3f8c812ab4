//===- bench/bench_substrate.cpp - Substrate microbenchmarks ---------------===//
///
/// Scaling of the substrates everything rests on: BigInt arithmetic,
/// exact simplex, Fourier-Motzkin projection, congruence closure, the
/// affine hull and VE_T, Karr's domain cold (L2), and the term layer.
/// These are the ablation counterpart to
/// DESIGN.md decision 2 (exact arbitrary-precision arithmetic) -- the
/// BigInt rows quantify what the exactness costs as coefficients grow --
/// and decision 6, whose inline term storage the term-layer rows (sum
/// building, renaming and copying a conjunction) price.
///
//===----------------------------------------------------------------------===//

#include "domains/affine/AffineDomain.h"
#include "domains/affine/EqualityKit.h"
#include "domains/poly/Polyhedron.h"
#include "domains/uf/CongruenceClosure.h"
#include "linalg/AffineSystem.h"
#include "term/Conjunction.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>

using namespace cai;

namespace {

void BM_BigIntMultiply(benchmark::State &State) {
  int Limbs = static_cast<int>(State.range(0));
  std::mt19937_64 Rng(1);
  BigInt A(1), B(1);
  for (int I = 0; I < Limbs; ++I) {
    A = A * BigInt::fromString("4294967296") +
        BigInt(static_cast<int64_t>(Rng() & 0xFFFFFFFFull));
    B = B * BigInt::fromString("4294967296") +
        BigInt(static_cast<int64_t>(Rng() & 0xFFFFFFFFull));
  }
  for (auto _ : State) {
    BigInt C = A * B;
    benchmark::DoNotOptimize(C);
  }
}

void BM_BigIntDivide(benchmark::State &State) {
  int Limbs = static_cast<int>(State.range(0));
  std::mt19937_64 Rng(2);
  BigInt A(1), B(1);
  for (int I = 0; I < 2 * Limbs; ++I)
    A = A * BigInt::fromString("4294967296") +
        BigInt(static_cast<int64_t>(Rng() & 0xFFFFFFFFull));
  for (int I = 0; I < Limbs; ++I)
    B = B * BigInt::fromString("4294967296") +
        BigInt(static_cast<int64_t>(Rng() & 0xFFFFFFFFull));
  for (auto _ : State) {
    BigInt Q = A / B;
    benchmark::DoNotOptimize(Q);
  }
}

void BM_BigIntAddMixed(benchmark::State &State) {
  // Additions whose operands straddle a representation tier: range(0) is
  // the operand width in bits (62 -> pure int64 fast path, 120 -> the
  // inline __int128 middle tier, 200 -> heap limbs).  The three rungs
  // price each tier of the same op.
  int Bits = static_cast<int>(State.range(0));
  BigInt A = BigInt::pow(BigInt(2), Bits) - BigInt(12345);
  BigInt B = BigInt::pow(BigInt(2), Bits - 1) + BigInt(987);
  for (auto _ : State) {
    BigInt C = A + B;
    BigInt D = C - A;
    benchmark::DoNotOptimize(C);
    benchmark::DoNotOptimize(D);
  }
}

void BM_BigIntMul128(benchmark::State &State) {
  // Products whose result lands at range(0) bits: 60 stays int64, 120
  // exercises the I128 tier (int64 operands, 128-bit result), 250 forces
  // limb multiplication.  The 120 rung is the one the tiered
  // representation exists for -- simplex pivot products overflow int64
  // constantly but almost never exceed 2^127.
  int Bits = static_cast<int>(State.range(0));
  BigInt A = BigInt::pow(BigInt(2), Bits / 2) - BigInt(3);
  BigInt B = BigInt::pow(BigInt(2), Bits - Bits / 2) - BigInt(5);
  for (auto _ : State) {
    BigInt C = A * B;
    benchmark::DoNotOptimize(C);
  }
}

void BM_RationalNormalize(benchmark::State &State) {
  // Construction-time normalization (gcd + two divisions) with component
  // widths at range(0) bits, straddling the same tier ladder.  This is
  // the fixed cost of every Rational born in a pivot row operation.
  int Bits = static_cast<int>(State.range(0));
  BigInt N = BigInt::pow(BigInt(3), Bits / 2) * BigInt(6);
  BigInt D = BigInt::pow(BigInt(2), Bits) - BigInt(1);
  for (auto _ : State) {
    Rational R(N, D);
    benchmark::DoNotOptimize(R);
  }
}

void BM_RationalReduce(benchmark::State &State) {
  // Rational normalization (gcd) on growing operands: the hot loop of
  // every RREF pivot.
  std::mt19937_64 Rng(3);
  int Bits = static_cast<int>(State.range(0));
  BigInt N = BigInt::pow(BigInt(3), Bits);
  BigInt D = BigInt::pow(BigInt(2), Bits) * BigInt(6);
  for (auto _ : State) {
    Rational R = Rational(N, D) + Rational(1, 3);
    benchmark::DoNotOptimize(R);
  }
}

void BM_AffineHullJoin(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  AffineSystem<Rational> A(N), B(N);
  std::mt19937 Rng(4);
  std::uniform_int_distribution<int> Coef(-5, 5);
  for (size_t R = 0; R < N / 2; ++R) {
    std::vector<Rational> RowA, RowB;
    for (size_t C = 0; C <= N; ++C) {
      RowA.push_back(Rational(Coef(Rng)));
      RowB.push_back(Rational(Coef(Rng)));
    }
    A.addRow(RowA);
    B.addRow(RowB);
  }
  for (auto _ : State) {
    AffineSystem<Rational> J = AffineSystem<Rational>::join(A, B);
    benchmark::DoNotOptimize(J);
  }
}

/// Variables v0 .. v(N-1) of \p Ctx.
std::vector<Term> makeVars(TermContext &Ctx, int N) {
  std::vector<Term> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(Ctx.mkVar(std::string("v").append(std::to_string(I))));
  return Vars;
}

void BM_VarEqualities(benchmark::State &State) {
  // VE_T of an N-column consistent canonical system, as the affine domain
  // answers it in every Nelson-Oppen round (there is no table in front of
  // it).  The first half of the columns are pivots, the rest free; a third
  // of the pivot rows read x_p = x_c for a free c, and the others define
  // their pivot over two free columns and a constant, each form twice, so
  // both kinds of class occur.
  int N = static_cast<int>(State.range(0));
  TermContext Ctx;
  std::vector<Term> Columns = makeVars(Ctx, N);
  size_t Pivots = N / 2, Free = N - Pivots;
  AffineSystem<Rational> Sys(N);
  for (size_t P = 0; P < Pivots; ++P) {
    LinRow<Rational> Row(N + 1);
    Row[P] = Rational(1);
    size_t Form = P / 3;
    if (P % 3 == 0) {
      Row[Pivots + Form % Free] = Rational(-1);
    } else {
      Row[Pivots + Form % Free] = Rational(2);
      Row[Pivots + (Form + 1) % Free] = Rational(-3);
      Row[N] = Rational(int64_t(Form));
    }
    Sys.addRow(std::move(Row));
  }
  Sys.isInconsistent(); // Canonical before timing, as the domains keep it.
  size_t Pairs = 0;
  for (auto _ : State) {
    std::vector<std::pair<Term, Term>> Eqs = varEqualities(Sys, Columns);
    Pairs = Eqs.size();
    benchmark::DoNotOptimize(Eqs);
  }
  State.counters["pairs"] = static_cast<double>(Pairs);
}

// L2 rungs of Karr's domain, cold: memoization is off, so every call
// builds the structured form of its operand (columns, rows, one RREF)
// from the atoms, as a cache miss does in the logical product.

/// An N-atom purified affine side over w0 .. w(N-1) and v0 .. v(K-1):
/// wi = vi' + (i+2)*vi'' + i - 1 (i' and i'' are two of the K base
/// variables), with every third atom written the other way round.
Conjunction makeAffineSide(TermContext &Ctx, int N) {
  int K = std::max(2, N / 2);
  std::vector<Term> Base = makeVars(Ctx, K);
  Conjunction E;
  for (int I = 0; I < N; ++I) {
    Term W = Ctx.mkVar(std::string("w").append(std::to_string(I)));
    Term Sum = Ctx.mkAdd(
        Ctx.mkAdd(Base[I % K], Ctx.mkMul(Rational(I + 2), Base[(I + 1) % K])),
        Ctx.mkNum(I - 1));
    E.add(I % 3 == 2 ? Atom::mkEq(Ctx, Sum, W) : Atom::mkEq(Ctx, W, Sum));
  }
  return E;
}

void BM_AffineIsUnsat(benchmark::State &State) {
  // One canon of an N-atom side per call: the two linear views of each
  // atom, its row, and the canonical system.
  int N = static_cast<int>(State.range(0));
  TermContext Ctx;
  AffineDomain D(Ctx);
  D.setMemoization(false);
  Conjunction E = makeAffineSide(Ctx, N);
  for (auto _ : State) {
    bool Unsat = D.isUnsat(E);
    benchmark::DoNotOptimize(Unsat);
  }
}

void BM_AffineExistQuant(benchmark::State &State) {
  // Canon, project the even-numbered wi away, and render the projected
  // rows back into atoms (fromSystem).
  int N = static_cast<int>(State.range(0));
  TermContext Ctx;
  AffineDomain D(Ctx);
  D.setMemoization(false);
  Conjunction E = makeAffineSide(Ctx, N);
  std::vector<Term> Eliminate;
  for (int I = 0; I < N; I += 2)
    Eliminate.push_back(Ctx.mkVar(std::string("w").append(std::to_string(I))));
  size_t Atoms = 0;
  for (auto _ : State) {
    Conjunction Q = D.existQuant(E, Eliminate);
    Atoms = Q.size();
    benchmark::DoNotOptimize(Q);
  }
  State.counters["atoms"] = static_cast<double>(Atoms);
}

void BM_SimplexFeasibility(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  std::mt19937 Rng(5);
  std::uniform_int_distribution<int> Coef(-5, 5);
  std::vector<LinearConstraint> Cons;
  for (size_t R = 0; R < 2 * N; ++R) {
    LinearConstraint C;
    for (size_t V = 0; V < N; ++V)
      C.Coeffs.push_back(Rational(Coef(Rng)));
    C.Rhs = Rational(10 + Coef(Rng));
    Cons.push_back(std::move(C));
  }
  for (auto _ : State) {
    bool F = isFeasible(Cons, N);
    benchmark::DoNotOptimize(F);
  }
}

void BM_FourierMotzkin(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  std::mt19937 Rng(6);
  std::uniform_int_distribution<int> Coef(-3, 3);
  Polyhedron P(N);
  for (size_t R = 0; R < 2 * N; ++R) {
    std::vector<Rational> Coeffs;
    for (size_t V = 0; V < N; ++V)
      Coeffs.push_back(Rational(Coef(Rng)));
    P.addLe(std::move(Coeffs), Rational(5));
  }
  std::vector<bool> Mask(N, false);
  for (size_t V = 0; V < N / 2; ++V)
    Mask[V] = true;
  for (auto _ : State) {
    Polyhedron Q = P.project(Mask);
    benchmark::DoNotOptimize(Q);
  }
}

void BM_CongruenceClosure(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  TermContext Ctx;
  Symbol F = Ctx.getFunction("F", 1);
  // Two chains F^i(a), F^i(b) merged at the base: N congruence merges.
  for (auto _ : State) {
    CongruenceClosure CC(Ctx);
    Term A = Ctx.mkVar("a"), B = Ctx.mkVar("b");
    Term TA = A, TB = B;
    for (int I = 0; I < N; ++I) {
      TA = Ctx.mkApp(F, {TA});
      TB = Ctx.mkApp(F, {TB});
      CC.addTerm(TA);
      CC.addTerm(TB);
    }
    CC.addEquality(A, B);
    benchmark::DoNotOptimize(CC.areEqual(TA, TB));
  }
}

void BM_ConvexHull(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  // Hull of two shifted boxes in N dimensions.
  Polyhedron A(N), B(N);
  for (size_t V = 0; V < N; ++V) {
    std::vector<Rational> Up(N), Down(N);
    Up[V] = Rational(1);
    Down[V] = Rational(-1);
    A.addLe(Up, Rational(1));
    A.addLe(Down, Rational(0));
    std::vector<Rational> Up2(N), Down2(N);
    Up2[V] = Rational(1);
    Down2[V] = Rational(-1);
    B.addLe(Up2, Rational(3));
    B.addLe(Down2, Rational(-2));
  }
  for (auto _ : State) {
    Polyhedron H = Polyhedron::hull(A, B);
    benchmark::DoNotOptimize(H);
  }
}

// Term-layer rungs.  The two builders start every iteration from a fresh
// TermContext, made while the timer is paused, so every term they time is
// interned cold.

/// An N-atom conjunction over x and v0 .. v(N-1): vi = (i+1)*x + F(vi),
/// alternating with vi <= x + 1.
Conjunction makeConjunction(TermContext &Ctx, Term X,
                            const std::vector<Term> &Vars) {
  Symbol F = Ctx.getFunction("F", 1);
  Conjunction C;
  for (size_t I = 0; I < Vars.size(); ++I) {
    if (I % 2 == 0)
      C.add(Atom::mkEq(Ctx, Vars[I],
                       Ctx.mkAdd(Ctx.mkMul(Rational(int64_t(I + 1)), X),
                                 Ctx.mkApp(F, {Vars[I]}))));
    else
      C.add(Atom::mkLe(Ctx, Vars[I], Ctx.mkAdd(X, Ctx.mkNum(1))));
  }
  return C;
}

void BM_MkAddSum(benchmark::State &State) {
  // 1 + 2*v0 + 3*v1 + ... folded left through mkAdd, interning every
  // partial sum; a rendered row instead takes one mkSum.
  int N = static_cast<int>(State.range(0));
  std::optional<TermContext> Ctx;
  for (auto _ : State) {
    State.PauseTiming();
    Ctx.emplace();
    std::vector<Term> Vars = makeVars(*Ctx, N);
    State.ResumeTiming();
    Term Sum = Ctx->mkNum(1);
    for (int I = 0; I < N; ++I)
      Sum = Ctx->mkAdd(Sum, Ctx->mkMul(Rational(I + 2), Vars[I]));
    benchmark::DoNotOptimize(Sum);
  }
}

void BM_SubstituteConjunction(benchmark::State &State) {
  // Renames x to a fresh variable in an N-atom conjunction, as the
  // analyzer's assignment transfer renames the assigned variable.
  int N = static_cast<int>(State.range(0));
  std::optional<TermContext> Ctx;
  for (auto _ : State) {
    State.PauseTiming();
    Ctx.emplace();
    Term X = Ctx->mkVar("x");
    Conjunction C = makeConjunction(*Ctx, X, makeVars(*Ctx, N));
    Substitution Rename{{X, Ctx->freshVar("x")}};
    State.ResumeTiming();
    Conjunction Renamed = C.substitute(*Ctx, Rename);
    benchmark::DoNotOptimize(Renamed);
  }
}

void BM_ConjunctionCopy(benchmark::State &State) {
  // Copies an N-atom conjunction, as the product does for every operand it
  // purifies, joins or saturates.
  int N = static_cast<int>(State.range(0));
  TermContext Ctx;
  Term X = Ctx.mkVar("x");
  Conjunction C = makeConjunction(Ctx, X, makeVars(Ctx, N));
  for (auto _ : State) {
    Conjunction Copy = C;
    benchmark::DoNotOptimize(Copy);
  }
}

} // namespace

BENCHMARK(BM_BigIntMultiply)->RangeMultiplier(4)->Range(1, 256);
BENCHMARK(BM_BigIntDivide)->RangeMultiplier(4)->Range(1, 64);
// Tier-ladder rungs: int64 / inline __int128 / heap limbs.
BENCHMARK(BM_BigIntAddMixed)->Arg(62)->Arg(120)->Arg(200);
BENCHMARK(BM_BigIntMul128)->Arg(60)->Arg(120)->Arg(250);
BENCHMARK(BM_RationalNormalize)->Arg(40)->Arg(100)->Arg(180);
BENCHMARK(BM_RationalReduce)->RangeMultiplier(4)->Range(4, 1024);
BENCHMARK(BM_AffineHullJoin)->RangeMultiplier(2)->Range(4, 32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AffineIsUnsat)->RangeMultiplier(2)->Range(4, 16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AffineExistQuant)->RangeMultiplier(2)->Range(4, 16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SimplexFeasibility)->RangeMultiplier(2)->Range(2, 16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FourierMotzkin)->RangeMultiplier(2)->Range(2, 8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CongruenceClosure)->RangeMultiplier(2)->Range(8, 128)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VarEqualities)->RangeMultiplier(2)->Range(8, 128)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConvexHull)->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MkAddSum)->RangeMultiplier(2)->Range(2, 32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SubstituteConjunction)->RangeMultiplier(2)->Range(1, 16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConjunctionCopy)->RangeMultiplier(2)->Range(1, 16);

BENCHMARK_MAIN();
