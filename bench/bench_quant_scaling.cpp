//===- bench/bench_quant_scaling.cpp - Experiment E6/E8: Q cost ------------===//
///
/// Cost of existential quantification as conjunction size and the number
/// of eliminated variables grow, for the component domains and the
/// product (Figure 7's algorithm with batched QSaturation).  The product
/// rows against the component rows exhibit the Section 4.4 envelope
/// T_Q(n) = O(T_Q1 + T_Q2 + n*T_Alt + n*T_J).
///
//===----------------------------------------------------------------------===//

#include "domains/affine/AffineDomain.h"
#include "domains/uf/UFDomain.h"
#include "product/LogicalProduct.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace cai;

namespace {

/// A block of mixed facts: y_i = F(x_i + 1), z_i = x_i + 2, with the x_i
/// eliminated -- every elimination needs an Alternate definition and a
/// back-substitution, the full Figure 7 path.
struct QuantInput {
  Conjunction E;
  std::vector<Term> Kill;
};

QuantInput mixedBlock(TermContext &Ctx, int N) {
  Symbol F = Ctx.getFunction("F", 1);
  QuantInput Out;
  for (int I = 0; I < N; ++I) {
    Term X = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Term Y = Ctx.mkVar(std::string("y").append(std::to_string(I)));
    Term Z = Ctx.mkVar(std::string("z").append(std::to_string(I)));
    Out.E.add(Atom::mkEq(Ctx, Y, Ctx.mkApp(F, {Ctx.mkAdd(X, Ctx.mkNum(1))})));
    Out.E.add(Atom::mkEq(Ctx, Z, Ctx.mkAdd(X, Ctx.mkNum(2))));
    Out.Kill.push_back(X);
  }
  return Out;
}

QuantInput affineBlock(TermContext &Ctx, int N) {
  QuantInput Out;
  for (int I = 0; I < N; ++I) {
    Term X = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Term Y = Ctx.mkVar(std::string("y").append(std::to_string(I)));
    Term Z = Ctx.mkVar(std::string("z").append(std::to_string(I)));
    Out.E.add(Atom::mkEq(Ctx, Y, Ctx.mkAdd(X, Ctx.mkNum(I))));
    Out.E.add(Atom::mkEq(Ctx, Z, Ctx.mkAdd(X, Ctx.mkNum(2 * I + 1))));
    Out.Kill.push_back(X);
  }
  return Out;
}

QuantInput ufBlock(TermContext &Ctx, int N) {
  Symbol F = Ctx.getFunction("F", 1);
  QuantInput Out;
  for (int I = 0; I < N; ++I) {
    Term X = Ctx.mkVar(std::string("x").append(std::to_string(I)));
    Term Y = Ctx.mkVar(std::string("y").append(std::to_string(I)));
    Term Z = Ctx.mkVar(std::string("z").append(std::to_string(I)));
    Out.E.add(Atom::mkEq(Ctx, Y, Ctx.mkApp(F, {X})));
    Out.E.add(Atom::mkEq(Ctx, Z, Ctx.mkApp(F, {X})));
    Out.Kill.push_back(X);
  }
  return Out;
}

template <typename MakeDomain, typename MakeInput>
void runQuant(benchmark::State &State, MakeDomain Domain, MakeInput Input) {
  TermContext Ctx;
  auto D = Domain(Ctx);
  QuantInput In = Input(Ctx, static_cast<int>(State.range(0)));
  size_t Facts = 0;
  for (auto _ : State) {
    Conjunction Q = D->existQuant(In.E, In.Kill);
    Facts = Q.size();
    benchmark::DoNotOptimize(Q);
  }
  State.counters["facts"] = static_cast<double>(Facts);
}

void BM_QuantAffine(benchmark::State &State) {
  runQuant(
      State,
      [](TermContext &Ctx) { return std::make_unique<AffineDomain>(Ctx); },
      affineBlock);
}

void BM_QuantUF(benchmark::State &State) {
  runQuant(
      State,
      [](TermContext &Ctx) { return std::make_unique<UFDomain>(Ctx); },
      ufBlock);
}

/// Owns the component domains alongside the product (runQuant only keeps
/// one object alive).
struct ProductHolder {
  std::unique_ptr<AffineDomain> LA;
  std::unique_ptr<UFDomain> UF;
  std::unique_ptr<LogicalProduct> P;
  Conjunction existQuant(const Conjunction &E, const std::vector<Term> &V) {
    return P->existQuant(E, V);
  }
};

void BM_QuantLogicalProduct(benchmark::State &State) {
  runQuant(
      State,
      [](TermContext &Ctx) {
        auto H = std::make_unique<ProductHolder>();
        H->LA = std::make_unique<AffineDomain>(Ctx);
        H->UF = std::make_unique<UFDomain>(Ctx);
        H->P = std::make_unique<LogicalProduct>(Ctx, *H->LA, *H->UF);
        return H;
      },
      mixedBlock);
}

void BM_QuantReducedProduct(benchmark::State &State) {
  runQuant(
      State,
      [](TermContext &Ctx) {
        auto H = std::make_unique<ProductHolder>();
        H->LA = std::make_unique<AffineDomain>(Ctx);
        H->UF = std::make_unique<UFDomain>(Ctx);
        H->P = std::make_unique<LogicalProduct>(Ctx, *H->LA, *H->UF,
                                                LogicalProduct::Mode::Reduced);
        return H;
      },
      mixedBlock);
}

} // namespace

BENCHMARK(BM_QuantAffine)->RangeMultiplier(2)->Range(2, 64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuantUF)->RangeMultiplier(2)->Range(2, 64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuantReducedProduct)->RangeMultiplier(2)->Range(2, 32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuantLogicalProduct)->RangeMultiplier(2)->Range(2, 32)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
