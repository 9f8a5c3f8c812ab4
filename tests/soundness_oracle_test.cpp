//===- tests/soundness_oracle_test.cpp - Differential soundness audit -----===//
///
/// \file
/// The differential oracle end to end: every checked-in analyzer input and
/// a seeded stream of generated programs are analyzed under each domain
/// spec with memoization on and off, then replayed concretely; every
/// reached state must satisfy the fixpoint invariant at its node.  The
/// generated sweep runs at least 200 program x domain oracle trials by
/// default; CAI_CHECK_FUZZ_ITERS overrides the seed count (smaller for
/// sanitizer builds, larger for soak runs).  A final test proves the
/// oracle actually detects unsoundness by auditing a broken-join run.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "check/FaultInjection.h"
#include "domains/affine/AffineDomain.h"
#include "domains/arrays/ArrayDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "interp/Oracle.h"
#include "interp/ProgramGen.h"
#include "ir/ProgramParser.h"
#include "product/LogicalProduct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cai;
using namespace cai::interp;

namespace {

/// Builds the four audited domain specs over \p Ctx.  The instances live
/// in \p Owned; the returned pointers borrow from it.  The arrays product
/// is audited so the read-over-write rule faces generated select/update
/// chains (GenOptions::Arrays), not just the checked-in memory example.
struct Specs {
  std::vector<std::unique_ptr<LogicalLattice>> Owned;
  std::vector<const LogicalLattice *> Domains;

  explicit Specs(TermContext &Ctx) {
    auto *Poly = new PolyDomain(Ctx);
    auto *UF = new UFDomain(Ctx);
    auto *Affine = new AffineDomain(Ctx);
    auto *Arrays = new ArrayDomain(Ctx);
    Owned.emplace_back(Poly);
    Owned.emplace_back(UF);
    Owned.emplace_back(Affine);
    Owned.emplace_back(Arrays);
    Domains.push_back(Poly);
    Owned.emplace_back(new LogicalProduct(Ctx, *Poly, *UF));
    Domains.push_back(Owned.back().get());
    Owned.emplace_back(new LogicalProduct(Ctx, *Poly, *Affine));
    Domains.push_back(Owned.back().get());
    Owned.emplace_back(new LogicalProduct(Ctx, *Poly, *Arrays));
    Domains.push_back(Owned.back().get());
  }
};

/// Analyzes \p P under \p L with the given memoization mode and, if the
/// fixpoint converged, runs the oracle.  Returns true if the oracle ran.
bool auditOne(TermContext &Ctx, const Program &P, const LogicalLattice &L,
              bool Memoize, uint64_t Seed, const std::string &What) {
  AnalyzerOptions Opts;
  Opts.Memoize = Memoize;
  AnalysisResult R = Analyzer(L, Opts).run(P);
  if (!R.Converged)
    return false; // Truncated fixpoints under-approximate by design.
  OracleOptions OOpts;
  OOpts.Seed = Seed;
  OOpts.Traces = 8;
  OracleReport Rep = checkSoundness(Ctx, P, R, L, OOpts);
  EXPECT_TRUE(Rep.ok()) << What << " (memo " << (Memoize ? "on" : "off")
                        << "): " << (Rep.Violations.empty()
                                         ? std::string("?")
                                         : describe(Ctx, Rep.Violations[0]));
  EXPECT_GT(Rep.StatesChecked, 0u) << What;
  return true;
}

TEST(SoundnessOracleTest, TestdataCleanUnderEverySpec) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(CAI_TESTDATA_DIR))
    if (Entry.path().extension() == ".imp")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  for (const fs::path &File : Files) {
    std::ifstream In(File);
    ASSERT_TRUE(In) << File;
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    TermContext Ctx;
    std::string Error;
    std::optional<Program> P = parseProgram(Ctx, Buffer.str(), &Error);
    ASSERT_TRUE(P) << File << ": " << Error;

    Specs S(Ctx);
    for (const LogicalLattice *L : S.Domains)
      for (bool Memoize : {true, false})
        auditOne(Ctx, *P, *L, Memoize, /*Seed=*/1,
                 File.filename().string() + " " + L->name());
  }
}

TEST(SoundnessOracleTest, GeneratedProgramSweep) {
  // Default: 36 seeds x 4 specs x 2 memo modes = 288 potential oracle
  // trials; the floor asserts the CI criterion of >= 200 actual runs even
  // if a few generated programs fail to converge.
  unsigned Seeds = 36;
  bool Overridden = false;
  if (const char *EnvText = std::getenv("CAI_CHECK_FUZZ_ITERS")) {
    Seeds = static_cast<unsigned>(std::strtoul(EnvText, nullptr, 10));
    Overridden = true;
    ASSERT_GT(Seeds, 0u) << "CAI_CHECK_FUZZ_ITERS must be positive";
  }

  unsigned Trials = 0, Converged = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    GenOptions GOpts;
    GOpts.Seed = Seed;
    // Array traffic in the corpus so the arrays product's read-over-write
    // rule is exercised against the concrete overlay semantics.
    GOpts.Arrays = true;
    std::string Text = generateProgram(GOpts);

    TermContext Ctx;
    std::string Error;
    std::optional<Program> P = parseProgram(Ctx, Text, &Error);
    ASSERT_TRUE(P) << "seed " << Seed << ": " << Error << "\n" << Text;

    Specs S(Ctx);
    for (const LogicalLattice *L : S.Domains)
      for (bool Memoize : {true, false}) {
        ++Trials;
        if (auditOne(Ctx, *P, *L, Memoize, Seed,
                     "generated seed " + std::to_string(Seed) + " " +
                         L->name() + "\n" + Text))
          ++Converged;
      }
  }
  if (!Overridden) {
    EXPECT_GE(Converged, 200u)
        << "the default sweep must run at least 200 oracle trials ("
        << Trials << " attempted)";
  }
}

TEST(SoundnessOracleTest, OracleDetectsBrokenJoin) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, R"(
    x := 0;
    if (*) {
      x := 1;
    } else {
      x := 2;
    }
    y := x + 1;
  )");
  ASSERT_TRUE(P);

  PolyDomain Poly(Ctx);
  check::BrokenJoinLattice Broken(Poly);
  AnalysisResult R = Analyzer(Broken).run(*P);
  ASSERT_TRUE(R.Converged);

  OracleOptions Opts;
  Opts.Traces = 16;
  OracleReport Rep = checkSoundness(Ctx, *P, R, Broken, Opts);
  EXPECT_FALSE(Rep.ok())
      << "a join dropping one branch must leave concretely-reachable "
         "states outside the invariant";
  ASSERT_FALSE(Rep.Violations.empty());
  // The dropped branch surfaces either as a falsified conjunct (the kept
  // branch's facts) or as a bottom invariant (the narrowing meet of two
  // incompatible kept-branch states).  Both are the oracle doing its job.
  EXPECT_NE(Rep.Violations[0].K, OracleViolation::Kind::UnboundVariable);
}

} // namespace
