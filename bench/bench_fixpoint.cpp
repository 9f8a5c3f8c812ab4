//===- bench/bench_fixpoint.cpp - Experiment E9: the Theorem 6 bound -------===//
///
/// Theorem 6 bounds the chain height over the product:
///   H_{L1 >< L2}(E) <= H_{L1}(E1) + H_{L2}(E2) + |AlienTerms(E)|
/// which in analysis terms bounds loop iterations over the product by the
/// sum of the component iteration counts plus the alien count.  These
/// benchmarks run the same workload programs under the components and the
/// product and report the measured `max_node_updates` for each, plus the
/// alien-term count of the loop invariant, so the inequality can be read
/// off the counters (EXPERIMENTS.md records the observed values).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "check/CheckedLattice.h"
#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "obs/Trace.h"
#include "product/LogicalProduct.h"
#include "theory/Purify.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace cai;

namespace {

WorkloadOptions optionsFor(int Tracks) {
  WorkloadOptions Opts;
  Opts.Seed = 17;
  Opts.AffineTracks = Tracks;
  Opts.UFTracks = Tracks;
  Opts.ReducedTracks = Tracks;
  Opts.MixedTracks = Tracks;
  Opts.Branches = 1;
  return Opts;
}

/// The affine >< uf product of the track workloads.  The gated rungs build
/// one per iteration, inside the timing loop, so every memo table starts
/// empty exactly as in a production analysis (each job builds fresh
/// domains); a domain kept across iterations would time its own cache hits.
struct AffineUF {
  AffineDomain LA;
  UFDomain UF;
  LogicalProduct Logical;
  explicit AffineUF(TermContext &Ctx)
      : LA(Ctx), UF(Ctx), Logical(Ctx, LA, UF) {}
};

void BM_FixpointComponentsVsProduct(benchmark::State &State) {
  TermContext Ctx;
  Workload W = generateWorkload(Ctx, optionsFor(static_cast<int>(State.range(0))));

  unsigned H1 = 0, H2 = 0, H = 0;
  size_t Aliens = 0;
  AnalyzerStats LastStats;
  for (auto _ : State) {
    AffineUF D(Ctx);
    AnalysisResult R1 = Analyzer(D.LA).run(W.P);
    AnalysisResult R2 = Analyzer(D.UF).run(W.P);
    AnalysisResult R = Analyzer(D.Logical).run(W.P);
    H1 = R1.Stats.MaxNodeUpdates;
    H2 = R2.Stats.MaxNodeUpdates;
    H = R.Stats.MaxNodeUpdates;
    LastStats = R.Stats;
    // Alien count of the deepest invariant the product computed.
    Aliens = 0;
    for (const Conjunction &Inv : R.Invariants)
      if (!Inv.isBottom())
        Aliens = std::max(Aliens, alienTerms(Ctx, D.LA, D.UF, Inv).size());
    benchmark::DoNotOptimize(R);
  }
  State.counters["H_affine"] = H1;
  State.counters["H_uf"] = H2;
  State.counters["H_product"] = H;
  State.counters["aliens"] = static_cast<double>(Aliens);
  // The Theorem 6 right-hand side, for eyeballing H_product <= bound.
  State.counters["thm6_bound"] = H1 + H2 + static_cast<double>(Aliens);
  State.counters["cache_hit_rate"] = LastStats.cacheHitRate();
  State.counters["sat_rounds"] = static_cast<double>(LastStats.SaturationRounds);
}

void BM_FixpointProductOnly(benchmark::State &State) {
  TermContext Ctx;
  Workload W = generateWorkload(Ctx, optionsFor(static_cast<int>(State.range(0))));
  unsigned Verified = 0;
  AnalyzerStats LastStats;
  for (auto _ : State) {
    AffineUF D(Ctx);
    AnalysisResult R = Analyzer(D.Logical).run(W.P);
    Verified = R.numVerified();
    LastStats = R.Stats;
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = static_cast<double>(W.Kinds.size());
  State.counters["cache_hit_rate"] = LastStats.cacheHitRate();
  State.counters["transfer_hits"] =
      static_cast<double>(LastStats.TransferCacheHits);
  State.counters["wto_components"] =
      static_cast<double>(LastStats.WtoComponents);
}

/// The ablation the E14 experiment tabulates: the same product fixpoint
/// with all memo caches disabled.  Results are identical (the
/// analyzer_cache_test property); the ratio to BM_FixpointProductOnly is
/// the memoization speedup alone.
void BM_FixpointProductNoMemo(benchmark::State &State) {
  TermContext Ctx;
  AffineUF D(Ctx);
  Workload W = generateWorkload(Ctx, optionsFor(static_cast<int>(State.range(0))));
  AnalyzerOptions Opts;
  Opts.Memoize = false;
  unsigned Verified = 0;
  for (auto _ : State) {
    AnalysisResult R = Analyzer(D.Logical, Opts).run(W.P);
    Verified = R.numVerified();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = static_cast<double>(W.Kinds.size());
}

/// E16: the soundness self-audit decorator compiled in but switched off.
/// Same workload as BM_FixpointProductOnly with every lattice call routed
/// through check::CheckedLattice while checking is disabled -- the delta
/// between the two rungs is the cost of the extra virtual dispatch plus
/// one flag test per operation, which EXPERIMENTS.md bounds at 2%.
void BM_FixpointCheckedOff(benchmark::State &State) {
  TermContext Ctx;
  Workload W = generateWorkload(Ctx, optionsFor(static_cast<int>(State.range(0))));
  unsigned Verified = 0;
  unsigned long ChecksRun = 0;
  for (auto _ : State) {
    AffineUF D(Ctx);
    check::CheckedLattice Checked(D.Logical);
    Checked.setChecking(false);
    AnalysisResult R = Analyzer(Checked).run(W.P);
    Verified = R.numVerified();
    ChecksRun = Checked.checksRun();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["checks_run"] = static_cast<double>(ChecksRun);
}

/// E15 ablation, middle rung: the full instrumentation path runs but the
/// Discard sink buffers nothing -- the delta to BM_FixpointProductOnly is
/// the probe cost (clock reads + branch), the delta to
/// BM_FixpointProductTraced is the JSON-buffer cost.
void BM_FixpointProductNullTrace(benchmark::State &State) {
  TermContext Ctx;
  Workload W = generateWorkload(Ctx, optionsFor(static_cast<int>(State.range(0))));
  obs::Tracer Tracer(obs::Tracer::Sink::Discard);
  obs::Tracer::install(&Tracer);
  for (auto _ : State) {
    AffineUF D(Ctx);
    AnalysisResult R = Analyzer(D.Logical).run(W.P);
    benchmark::DoNotOptimize(R);
  }
  obs::Tracer::install(nullptr);
}

/// E15 ablation, top rung: full buffered tracing, events kept in memory
/// (cleared per iteration so the buffer does not grow across iterations).
void BM_FixpointProductTraced(benchmark::State &State) {
  TermContext Ctx;
  Workload W = generateWorkload(Ctx, optionsFor(static_cast<int>(State.range(0))));
  obs::Tracer Tracer;
  obs::Tracer::install(&Tracer);
  size_t Events = 0;
  for (auto _ : State) {
    Tracer.clear();
    AffineUF D(Ctx);
    AnalysisResult R = Analyzer(D.Logical).run(W.P);
    Events = Tracer.numEvents();
    benchmark::DoNotOptimize(R);
  }
  obs::Tracer::install(nullptr);
  State.counters["trace_events"] = static_cast<double>(Events);
}

/// The simplex layer alone: a deterministic batch of small (system,
/// objective) pairs like the ones the polyhedra domain asks, each solved
/// anew by a two-phase cai::maximize every benchmark iteration.
std::vector<std::pair<std::vector<LinearConstraint>, std::vector<Rational>>>
simplexQueryBatch(size_t NumVars, size_t Systems, size_t Objectives) {
  std::vector<std::pair<std::vector<LinearConstraint>, std::vector<Rational>>>
      Batch;
  for (size_t S = 0; S < Systems; ++S) {
    // A bounded box with a few skewed faces, varied per system.
    std::vector<LinearConstraint> Rows;
    for (size_t V = 0; V < NumVars; ++V) {
      LinearConstraint Up, Down;
      Up.Coeffs.assign(NumVars, Rational());
      Down.Coeffs.assign(NumVars, Rational());
      Up.Coeffs[V] = Rational(1);
      Up.Rhs = Rational(static_cast<long>(10 + S + V));
      Down.Coeffs[V] = Rational(-1);
      Down.Rhs = Rational(static_cast<long>(S));
      Rows.push_back(Up);
      Rows.push_back(Down);
    }
    LinearConstraint Skew;
    Skew.Coeffs.assign(NumVars, Rational(1));
    Skew.Coeffs[0] = Rational(static_cast<long>(1 + S % 3));
    Skew.Rhs = Rational(static_cast<long>(12 + 2 * S));
    Rows.push_back(Skew);
    for (size_t O = 0; O < Objectives; ++O) {
      std::vector<Rational> Objective(NumVars);
      for (size_t V = 0; V < NumVars; ++V)
        Objective[V] = Rational(static_cast<long>((O + V) % 3) - 1);
      Batch.emplace_back(Rows, Objective);
    }
  }
  return Batch;
}

void BM_SimplexUncached(benchmark::State &State) {
  auto Batch = simplexQueryBatch(4, 8, 6);
  for (auto _ : State) {
    for (const auto &[Rows, Objective] : Batch) {
      LPResult R = maximize(Rows, Objective, 4);
      benchmark::DoNotOptimize(R);
    }
  }
  State.counters["queries"] = static_cast<double>(Batch.size());
}

/// End-to-end rung for the polyhedra domain: Figure 1 under poly >< uf, the
/// configuration whose convergence the warm-started solver and the
/// equality-aware widening bought.  Arg(1) keeps it inside the CI
/// regression gate's `/1` filter.
void BM_FixpointPolyUF(benchmark::State &State) {
  const char *Figure1 = R"(
    a1 := 0;  a2 := 0;
    b1 := 1;  b2 := F(1);
    c1 := 2;  c2 := 2;
    d1 := 3;  d2 := F(4);
    while (*) {
      a1 := a1 + 1;        a2 := a2 + 2;
      b1 := F(b1);         b2 := F(b2);
      c1 := F(2*c1 - c2);  c2 := F(c2);
      d1 := F(1 + d1);     d2 := F(d2 + 1);
    }
    assert(a2 = 2*a1);
    assert(b2 = F(b1));
    assert(c2 = c1);
    assert(d2 = F(d1 + 1));
  )";
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, Figure1);
  unsigned Verified = 0;
  AnalyzerStats LastStats;
  for (auto _ : State) {
    // Fresh domains per iteration, cold as in BM_FixpointProductOnly.
    PolyDomain Poly(Ctx);
    UFDomain UF(Ctx);
    LogicalProduct Logical(Ctx, Poly, UF);
    AnalysisResult R = Analyzer(Logical).run(*P);
    Verified = R.numVerified();
    LastStats = R.Stats;
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["cache_hit_rate"] = LastStats.cacheHitRate();
}

} // namespace

BENCHMARK(BM_FixpointComponentsVsProduct)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixpointProductOnly)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixpointProductNoMemo)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixpointCheckedOff)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixpointProductNullTrace)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixpointProductTraced)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimplexUncached)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixpointPolyUF)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
