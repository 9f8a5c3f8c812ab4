//===- bench/bench_products.cpp - Experiment E10: cost vs precision --------===//
///
/// The Section 7 future-work experiment: cost and precision of direct,
/// reduced and logical products (plus the single domains) on generated
/// workload programs.  Each row reports wall time and the fraction of
/// assertions verified; the paper-predicted shape is
///   precision: affine/uf < direct < reduced < logical,
///   cost:      roughly increasing the same way, with logical paying the
///              alien-naming overhead.
/// A nested three-theory row exercises (affine >< uf) >< lists (E13).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/lists/ListDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "product/DirectProduct.h"
#include "product/LogicalProduct.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace cai;

namespace {

WorkloadOptions optionsFor(benchmark::State &State) {
  WorkloadOptions Opts;
  Opts.Seed = 23;
  unsigned Tracks = static_cast<unsigned>(State.range(0));
  Opts.AffineTracks = Tracks;
  Opts.UFTracks = Tracks;
  Opts.ReducedTracks = Tracks;
  Opts.MixedTracks = Tracks;
  Opts.Branches = 1;
  Opts.NoiseVars = 1;
  return Opts;
}

/// The five sweep tiers over one affine and one uf domain.  Every rung
/// builds them inside its timing loop, so each iteration starts with empty
/// memo tables exactly as one analysis job does; a domain kept across
/// iterations would time its own cache hits.
struct SweepTiers {
  AffineDomain LA;
  UFDomain UF;
  DirectProduct Direct;
  LogicalProduct Reduced;
  LogicalProduct Logical;
  explicit SweepTiers(TermContext &Ctx)
      : LA(Ctx), UF(Ctx), Direct(Ctx, LA, UF),
        Reduced(Ctx, LA, UF, LogicalProduct::Mode::Reduced),
        Logical(Ctx, LA, UF) {}
  const LogicalLattice &tier(unsigned Tier) const {
    const LogicalLattice *Tiers[] = {&LA, &UF, &Direct, &Reduced, &Logical};
    return *Tiers[Tier];
  }
};

template <unsigned Tier> void BM_ProductSweep(benchmark::State &State) {
  TermContext Ctx;
  Workload W = generateWorkload(Ctx, optionsFor(State));
  unsigned Verified = 0;
  AnalyzerStats LastStats;
  for (auto _ : State) {
    SweepTiers D(Ctx);
    AnalysisResult R = Analyzer(D.tier(Tier)).run(W.P);
    Verified = R.numVerified();
    LastStats = R.Stats;
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = static_cast<double>(W.Kinds.size());
  State.counters["cache_hit_rate"] = LastStats.cacheHitRate();
}

/// E13: the nested (affine >< uf) >< lists product on a program mixing all
/// three theories in one invariant.
void BM_NestedThreeTheories(benchmark::State &State) {
  TermContext Ctx;
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, R"(
    n := 1;
    cell := cons(F(n + 1), rest);
    while (*) {
      h := car(cell);
      cell := cons(h, cell);
    }
    assert(car(cell) = F(n + 1));
  )", &Error);
  if (!P)
    std::abort();
  unsigned Verified = 0;
  for (auto _ : State) {
    // Fresh domains per iteration, cold as in the sweep rungs.
    AffineDomain LA(Ctx);
    ListDomain Lists(Ctx);
    UFDomain UF(Ctx, {Lists.carSym(), Lists.cdrSym(), Lists.consSym()});
    LogicalProduct Inner(Ctx, LA, UF);
    LogicalProduct Outer(Ctx, Inner, Lists);
    AnalysisResult R = Analyzer(Outer).run(*P);
    Verified = R.numVerified();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = 1;
}

} // namespace

BENCHMARK_TEMPLATE(BM_ProductSweep, 0)->Name("BM_Sweep_Affine")->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ProductSweep, 1)->Name("BM_Sweep_UF")->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ProductSweep, 2)->Name("BM_Sweep_DirectProduct")->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ProductSweep, 3)->Name("BM_Sweep_ReducedProduct")->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ProductSweep, 4)->Name("BM_Sweep_LogicalProduct")->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NestedThreeTheories)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
