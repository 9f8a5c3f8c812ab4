//===- bench/bench_nelson_oppen.cpp - Experiment E2: saturation cost -------===//
///
/// Purification + NO-saturation on conjunctions built from the Figure 2
/// pattern chained n times.  The `rounds` counter shows how many
/// propagation rounds the equality exchange needs (the Figure 2 example
/// itself takes several: x1=t1 and x1=x3 flow arithmetic -> UF -> back).
///
//===----------------------------------------------------------------------===//

#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "theory/NelsonOppen.h"
#include "theory/Purify.h"

#include <benchmark/benchmark.h>

using namespace cai;

namespace {

/// Chains the exact Figure 2 block: for block i over (u, v, w) --
/// standing for the paper's (x1, x2, x3) --
///   w <= F(2v - u)  &&  u <= w  &&  u = F(u)  &&  v = F(F(u))
/// congruence first yields u = v (since u = F(u) collapses F(F(u))),
/// arithmetic then turns the alien argument into u, the named alien
/// F(2v - u) collapses onto u, and the squeeze closes with u = w --
/// the full four-step cross-theory cascade of the worked example, chained
/// by linking w_{i-1} = u_i.
Conjunction figure2Chain(TermContext &Ctx, int N) {
  Symbol F = Ctx.getFunction("F", 1);
  Conjunction Out;
  for (int I = 0; I < N; ++I) {
    Term U = Ctx.mkVar(std::string("u").append(std::to_string(I)));
    Term V = Ctx.mkVar(std::string("v").append(std::to_string(I)));
    Term W = Ctx.mkVar(std::string("w").append(std::to_string(I)));
    Term Alien =
        Ctx.mkApp(F, {Ctx.mkSub(Ctx.mkMul(Rational(2), V), U)});
    Out.add(Atom::mkLe(Ctx, W, Alien));
    Out.add(Atom::mkLe(Ctx, U, W));
    Out.add(Atom::mkEq(Ctx, U, Ctx.mkApp(F, {U})));
    Out.add(Atom::mkEq(Ctx, V, Ctx.mkApp(F, {Ctx.mkApp(F, {U})})));
    if (I > 0) {
      Term Prev = Ctx.mkVar(std::string("w").append(std::to_string(I - 1)));
      Out.add(Atom::mkEq(Ctx, Prev, U));
    }
  }
  return Out;
}

void BM_PurifyOnly(benchmark::State &State) {
  TermContext Ctx;
  PolyDomain LA(Ctx);
  UFDomain UF(Ctx);
  int N = static_cast<int>(State.range(0));
  Conjunction E = figure2Chain(Ctx, N);
  size_t Fresh = 0;
  for (auto _ : State) {
    PurifyResult P = purify(Ctx, LA, UF, E);
    Fresh = P.FreshVars.size();
    benchmark::DoNotOptimize(P);
  }
  State.counters["fresh_vars"] = static_cast<double>(Fresh);
}

void BM_PurifyAndSaturate(benchmark::State &State) {
  TermContext Ctx;
  PolyDomain LA(Ctx);
  UFDomain UF(Ctx);
  int N = static_cast<int>(State.range(0));
  Conjunction E = figure2Chain(Ctx, N);
  unsigned Rounds = 0;
  for (auto _ : State) {
    PurifyResult P = purify(Ctx, LA, UF, E);
    SaturationResult S = noSaturate(Ctx, LA, UF, P.Side1, P.Side2);
    Rounds = S.Rounds;
    benchmark::DoNotOptimize(S);
  }
  State.counters["rounds"] = Rounds;
}

void BM_AlienTerms(benchmark::State &State) {
  TermContext Ctx;
  PolyDomain LA(Ctx);
  UFDomain UF(Ctx);
  int N = static_cast<int>(State.range(0));
  Conjunction E = figure2Chain(Ctx, N);
  size_t Count = 0;
  for (auto _ : State) {
    std::vector<Term> Aliens = alienTerms(Ctx, LA, UF, E);
    Count = Aliens.size();
    benchmark::DoNotOptimize(Aliens);
  }
  State.counters["aliens"] = static_cast<double>(Count);
}

} // namespace

BENCHMARK(BM_PurifyOnly)->RangeMultiplier(2)->Range(1, 32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AlienTerms)->RangeMultiplier(2)->Range(1, 32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PurifyAndSaturate)->RangeMultiplier(2)->Range(1, 8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
