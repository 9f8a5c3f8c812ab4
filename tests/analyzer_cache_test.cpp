//===- tests/analyzer_cache_test.cpp - Cache-equivalence property test ----===//
///
/// \file
/// The correctness bar for the memoized fixpoint engine: analysis results
/// (per-node invariants and assertion verdicts) must be bit-for-bit
/// identical with memoization on and off.  Runs randomized Workloads
/// programs under every product construction and the stand-alone domains,
/// comparing the two runs conjunction-by-conjunction.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "check/CheckedLattice.h"
#include "check/FaultInjection.h"
#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "obs/Metrics.h"
#include "product/DirectProduct.h"
#include "product/LogicalProduct.h"
#include "term/Printer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cai;

namespace {

/// Runs \p L over \p P twice -- memoization on and off -- and requires
/// identical invariants, verdicts and convergence.
void expectCacheEquivalent(const LogicalLattice &L, const Program &P,
                           const std::string &What) {
  AnalyzerOptions On, Off;
  On.Memoize = true;
  Off.Memoize = false;
  AnalysisResult RO = Analyzer(L, On).run(P);
  AnalysisResult RF = Analyzer(L, Off).run(P);

  EXPECT_EQ(RO.Converged, RF.Converged) << What;
  ASSERT_EQ(RO.Invariants.size(), RF.Invariants.size()) << What;
  for (size_t N = 0; N < RO.Invariants.size(); ++N)
    EXPECT_TRUE(RO.Invariants[N] == RF.Invariants[N])
        << What << ": invariant differs at node " << N << "\n  memo: "
        << toString(L.context(), RO.Invariants[N]) << "\n  none: "
        << toString(L.context(), RF.Invariants[N]);
  ASSERT_EQ(RO.Assertions.size(), RF.Assertions.size()) << What;
  for (size_t I = 0; I < RO.Assertions.size(); ++I)
    EXPECT_EQ(RO.Assertions[I].Verified, RF.Assertions[I].Verified)
        << What << ": verdict differs for " << RO.Assertions[I].Label;
  // The memoized run must actually have exercised the memos (otherwise
  // this test proves nothing).  A leaf run with no join consults only the
  // transfer memo.
  EXPECT_GT(RO.Stats.CacheHits + RO.Stats.CacheMisses +
                RO.Stats.TransferCacheHits,
            0u)
      << What;
  EXPECT_EQ(RF.Stats.CacheHits + RF.Stats.TransferCacheHits, 0u) << What;
}

TEST(AnalyzerCacheTest, RandomizedWorkloadsUnderEveryProduct) {
  for (unsigned Seed : {7u, 23u, 101u}) {
    TermContext Ctx;
    AffineDomain Affine(Ctx);
    UFDomain UF(Ctx);
    DirectProduct Direct(Ctx, Affine, UF);
    LogicalProduct Reduced(Ctx, Affine, UF, LogicalProduct::Mode::Reduced);
    LogicalProduct Logical(Ctx, Affine, UF);

    WorkloadOptions Opts;
    Opts.Seed = Seed;
    Opts.AffineTracks = Opts.UFTracks = 1;
    Opts.ReducedTracks = Opts.MixedTracks = 1;
    Opts.Branches = 1;
    Opts.NoiseVars = 1;
    Workload W = generateWorkload(Ctx, Opts);

    std::string Tag = "seed " + std::to_string(Seed) + " ";
    expectCacheEquivalent(Affine, W.P, Tag + "affine");
    expectCacheEquivalent(UF, W.P, Tag + "uf");
    expectCacheEquivalent(Direct, W.P, Tag + "direct");
    expectCacheEquivalent(Reduced, W.P, Tag + "reduced");
    expectCacheEquivalent(Logical, W.P, Tag + "logical");
  }
}

TEST(AnalyzerCacheTest, LoopFreeWorkload) {
  TermContext Ctx;
  AffineDomain Affine(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct Logical(Ctx, Affine, UF);

  WorkloadOptions Opts;
  Opts.Seed = 5;
  Opts.Loop = false;
  Workload W = generateWorkload(Ctx, Opts);
  expectCacheEquivalent(Logical, W.P, "loop-free logical");
}

TEST(AnalyzerCacheTest, MemoizedRunReportsHits) {
  // Within a single run the narrowing passes re-evaluate stabilized edges,
  // so the transfer cache must report hits on any looping workload, and
  // they re-join stabilized contributions, which the join memo answers.  A
  // pass-through wrapper counts the joins that reach the lattice: every
  // join memo miss, exactly once, and with the memo off every join.
  TermContext Ctx;
  AffineDomain Affine(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct Logical(Ctx, Affine, UF);

  WorkloadOptions Opts;
  Opts.Seed = 23;
  Workload W = generateWorkload(Ctx, Opts);
  check::BrokenJoinLattice CountOn(Logical, /*BreakFrom=*/1u << 30);
  check::BrokenJoinLattice CountOff(Logical, /*BreakFrom=*/1u << 30);
  AnalyzerOptions Off;
  Off.Memoize = false;
  auto Before = obs::MetricsRegistry::global().counterValues();
  AnalysisResult R = Analyzer(CountOn).run(W.P);
  auto After = obs::MetricsRegistry::global().counterValues();
  AnalysisResult RF = Analyzer(CountOff, Off).run(W.P);
  EXPECT_GT(R.Stats.TransferCacheHits, 0u);
  EXPECT_GT(R.Stats.CacheHits, 0u);
  EXPECT_GT(R.Stats.cacheHitRate(), 0.0);
  EXPECT_GT(R.Stats.SaturationRounds, 0u);

  EXPECT_GT(CountOn.joinCalls(), 0u);
  EXPECT_LT(CountOn.joinCalls(), CountOff.joinCalls());
  EXPECT_EQ(CountOn.joinCalls(), After["analyzer.join_cache.misses"] -
                                     Before["analyzer.join_cache.misses"]);
  ASSERT_EQ(R.Invariants.size(), RF.Invariants.size());
  for (size_t N = 0; N < R.Invariants.size(); ++N)
    EXPECT_TRUE(R.Invariants[N] == RF.Invariants[N]) << "node " << N;
}

TEST(AnalyzerCacheTest, DifferentialPolyOverTestdata) {
  // With the polyhedra canon list and simplex warm-start in the query
  // path, every checked-in analyzer input must still produce bit-identical
  // invariants and verdicts with memoization on and off, under the
  // polyhedra domain alone and under both logical products that embed it.
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(CAI_TESTDATA_DIR))
    if (Entry.path().extension() == ".imp")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty()) << "no .imp files under " << CAI_TESTDATA_DIR;

  enum class Spec { Poly, PolyUF, PolyAffine };
  for (const fs::path &File : Files) {
    std::ifstream In(File);
    ASSERT_TRUE(In) << File;
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    for (Spec S : {Spec::Poly, Spec::PolyUF, Spec::PolyAffine}) {
      TermContext Ctx;
      std::string ParseError;
      std::optional<Program> P = parseProgram(Ctx, Buffer.str(), &ParseError);
      ASSERT_TRUE(P) << File << ": " << ParseError;

      PolyDomain Poly(Ctx);
      UFDomain UF(Ctx);
      AffineDomain Affine(Ctx);
      LogicalProduct PolyUF(Ctx, Poly, UF);
      LogicalProduct PolyAffine(Ctx, Poly, Affine);
      const LogicalLattice *L = S == Spec::Poly ? (const LogicalLattice *)&Poly
                                : S == Spec::PolyUF ? &PolyUF
                                                    : &PolyAffine;
      expectCacheEquivalent(*L, *P,
                            File.filename().string() + " " + L->name());
    }
  }
}

TEST(AnalyzerCacheTest, DifferentialTestdataUnderContractChecks) {
  // The memo-on/off differential again, this time with the online
  // lattice-contract checker wrapped around each domain: both runs must
  // still agree bit-for-bit, the decorator must be semantically invisible,
  // and no run may violate a contract.  The checker asks the inner
  // lattice's memoized implied equalities, so a stale memo entry would
  // surface here as a violation.
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(CAI_TESTDATA_DIR))
    if (Entry.path().extension() == ".imp")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  enum class Spec { Poly, PolyUF, PolyAffine };
  for (const fs::path &File : Files) {
    std::ifstream In(File);
    ASSERT_TRUE(In) << File;
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    for (Spec S : {Spec::Poly, Spec::PolyUF, Spec::PolyAffine}) {
      TermContext Ctx;
      std::string ParseError;
      std::optional<Program> P = parseProgram(Ctx, Buffer.str(), &ParseError);
      ASSERT_TRUE(P) << File << ": " << ParseError;

      PolyDomain Poly(Ctx);
      UFDomain UF(Ctx);
      AffineDomain Affine(Ctx);
      LogicalProduct PolyUF(Ctx, Poly, UF);
      LogicalProduct PolyAffine(Ctx, Poly, Affine);
      const LogicalLattice *L = S == Spec::Poly ? (const LogicalLattice *)&Poly
                                : S == Spec::PolyUF ? &PolyUF
                                                    : &PolyAffine;
      check::CheckedLattice Checked(*L);
      std::string What =
          File.filename().string() + " checked " + L->name();
      expectCacheEquivalent(Checked, *P, What);
      EXPECT_TRUE(Checked.violations().empty())
          << What << ": " << (Checked.violations().empty()
                                  ? std::string()
                                  : Checked.describe(Checked.violations()[0]));
      EXPECT_GT(Checked.checksRun(), 0u) << What;

      // And the decorator must not change the answer.
      AnalysisResult Plain = Analyzer(*L).run(*P);
      AnalysisResult Audited = Analyzer(Checked).run(*P);
      ASSERT_EQ(Plain.Invariants.size(), Audited.Invariants.size()) << What;
      for (size_t N = 0; N < Plain.Invariants.size(); ++N)
        EXPECT_TRUE(Plain.Invariants[N] == Audited.Invariants[N])
            << What << " node " << N;
    }
  }
}

} // namespace
