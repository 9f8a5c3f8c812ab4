//===- bench/bench_join_scaling.cpp - Experiment E5/E8: join cost ----------===//
///
/// The Section 4.4 complexity claim for the combined join: the logical
/// product's J costs at most a quadratic blow-up over the component Js.
/// These benchmarks grow conjunction chains of length n and time the
/// affine join, the UF join, and the product join (pruned and full dummy
/// pairs) on them.  Comparing the growth of the product rows against the
/// component rows exhibits the envelope.  Every rung builds its domains
/// inside the timing loop: a domain kept across iterations would answer
/// the repeated join from its memo tables.
///
//===----------------------------------------------------------------------===//

#include "domains/affine/AffineDomain.h"
#include "domains/uf/UFDomain.h"
#include "product/LogicalProduct.h"
#include "term/Parser.h"

#include <benchmark/benchmark.h>

using namespace cai;

namespace {

/// Affine chains x_i = x_{i-1} + c with different c on the two sides, so
/// the join has real affine-hull work at every length.
Conjunction affineChain(TermContext &Ctx, int N, int Step) {
  Conjunction Out;
  for (int I = 1; I <= N; ++I) {
    Term Prev = Ctx.mkVar(std::string("x").append(std::to_string(I - 1)));
    Term Cur = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Out.add(Atom::mkEq(Ctx, Cur, Ctx.mkAdd(Prev, Ctx.mkNum(I * Step))));
  }
  return Out;
}

/// UF chains x_i = F(x_{i-1}) with an extra base fact differing per side.
Conjunction ufChain(TermContext &Ctx, int N, int Base) {
  Symbol F = Ctx.getFunction("F", 1);
  Conjunction Out;
  Out.add(Atom::mkEq(Ctx, Ctx.mkVar("x0"), Ctx.mkNum(Base)));
  for (int I = 1; I <= N; ++I) {
    Term Prev = Ctx.mkVar(std::string("x").append(std::to_string(I - 1)));
    Term Cur = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Out.add(Atom::mkEq(Ctx, Cur, Ctx.mkApp(F, {Prev})));
  }
  return Out;
}

/// Mixed chains x_i = F(x_{i-1} + k): every link is an alien-term site, the
/// hard case for the product join.
Conjunction mixedChain(TermContext &Ctx, int N, int K) {
  Symbol F = Ctx.getFunction("F", 1);
  Conjunction Out;
  Out.add(Atom::mkEq(Ctx, Ctx.mkVar("x0"), Ctx.mkNum(K)));
  for (int I = 1; I <= N; ++I) {
    Term Prev = Ctx.mkVar(std::string("x").append(std::to_string(I - 1)));
    Term Cur = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Out.add(Atom::mkEq(
        Ctx, Cur, Ctx.mkApp(F, {Ctx.mkAdd(Prev, Ctx.mkNum(K))})));
  }
  return Out;
}

void BM_JoinAffine(benchmark::State &State) {
  TermContext Ctx;
  int N = static_cast<int>(State.range(0));
  Conjunction E1 = affineChain(Ctx, N, 1);
  Conjunction E2 = affineChain(Ctx, N, 2);
  size_t Size = 0;
  for (auto _ : State) {
    AffineDomain D(Ctx);
    Conjunction J = D.join(E1, E2);
    Size = J.size();
    benchmark::DoNotOptimize(J);
  }
  State.counters["facts"] = static_cast<double>(Size);
}

void BM_JoinUF(benchmark::State &State) {
  TermContext Ctx;
  int N = static_cast<int>(State.range(0));
  Conjunction E1 = ufChain(Ctx, N, 1);
  Conjunction E2 = ufChain(Ctx, N, 2);
  size_t Size = 0;
  for (auto _ : State) {
    UFDomain D(Ctx);
    Conjunction J = D.join(E1, E2);
    Size = J.size();
    benchmark::DoNotOptimize(J);
  }
  State.counters["facts"] = static_cast<double>(Size);
}

void BM_JoinLogicalProduct(benchmark::State &State) {
  TermContext Ctx;
  int N = static_cast<int>(State.range(0));
  Conjunction E1 = mixedChain(Ctx, N, 1);
  Conjunction E2 = mixedChain(Ctx, N, 1);
  size_t Size = 0;
  for (auto _ : State) {
    AffineDomain LA(Ctx);
    UFDomain UF(Ctx);
    LogicalProduct D(Ctx, LA, UF);
    Conjunction J = D.join(E1, E2);
    Size = J.size();
    benchmark::DoNotOptimize(J);
  }
  State.counters["facts"] = static_cast<double>(Size);
}

void BM_JoinLogicalProductFullPairs(benchmark::State &State) {
  TermContext Ctx;
  int N = static_cast<int>(State.range(0));
  Conjunction E1 = mixedChain(Ctx, N, 1);
  Conjunction E2 = mixedChain(Ctx, N, 1);
  for (auto _ : State) {
    AffineDomain LA(Ctx);
    UFDomain UF(Ctx);
    LogicalProduct D(Ctx, LA, UF, LogicalProduct::Mode::Logical,
                     LogicalProduct::DummyPairs::Full);
    Conjunction J = D.join(E1, E2);
    benchmark::DoNotOptimize(J);
  }
}

void BM_JoinReducedProduct(benchmark::State &State) {
  TermContext Ctx;
  int N = static_cast<int>(State.range(0));
  Conjunction E1 = mixedChain(Ctx, N, 1);
  Conjunction E2 = mixedChain(Ctx, N, 1);
  for (auto _ : State) {
    AffineDomain LA(Ctx);
    UFDomain UF(Ctx);
    LogicalProduct D(Ctx, LA, UF, LogicalProduct::Mode::Reduced);
    Conjunction J = D.join(E1, E2);
    benchmark::DoNotOptimize(J);
  }
}

} // namespace

BENCHMARK(BM_JoinAffine)->RangeMultiplier(2)->Range(2, 32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinUF)->RangeMultiplier(2)->Range(2, 32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinReducedProduct)->RangeMultiplier(2)->Range(2, 16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinLogicalProduct)->RangeMultiplier(2)->Range(2, 8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinLogicalProductFullPairs)->RangeMultiplier(2)->Range(2, 4)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
