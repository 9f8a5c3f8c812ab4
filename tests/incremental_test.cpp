//===- tests/incremental_test.cpp - Warm-edit-path correctness ------------===//
//
// The incremental re-analysis engine end to end, with one absolute bar:
// an incremental run is *byte-identical* to a from-scratch run -- same
// invariants (compared through the context-free codec), same verdicts,
// same replayed counters -- no matter what snapshot seeded it.  On top of
// that, the tests pin the machinery itself: state codec round-trips,
// per-component CFG fingerprint locality (suffix edits keep the prefix's
// chained fingerprints), the SnapshotCache's exact/fuzzy lookup and LRU
// eviction, and the scheduler's analyze_edit flow including worker-count
// determinism over an edit corpus.
//
// Run this tier alone with `ctest -L incremental`.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Snapshot.h"
#include "interp/ProgramGen.h"
#include "ir/CfgFingerprint.h"
#include "ir/ProgramParser.h"
#include "ir/WTO.h"
#include "service/DomainFactory.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "term/StateCodec.h"
#include "term/TermContext.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cai;
using namespace cai::service;

namespace {

// A program whose WTO has several top-level elements: straight-line
// prefix, two independent loops, straight-line suffix.
const char *TwoLoops = R"(
x := 0;
while (x <= 5) {
  x := x + 1;
}
y := 0;
while (y <= 7) {
  y := y + 2;
}
assert(x <= 6);
assert(0 <= y);
)";

// TwoLoops with the *second* loop's body edited: everything up to and
// including the first loop presents identical inputs, so its elements
// replay from a TwoLoops snapshot.
const char *TwoLoopsSuffixEdit = R"(
x := 0;
while (x <= 5) {
  x := x + 1;
}
y := 0;
while (y <= 7) {
  y := y + 1;
}
assert(x <= 6);
assert(0 <= y);
)";

// TwoLoops with an assertion prepended.  Assertions attach to their node,
// so this dirties the *entry element itself* -- element 0's fingerprint
// already differs and nothing at all replays (the full-fallback case).
// Note that merely editing the first assignment would NOT dirty element
// 0: the assignment rides the edge into element 1, and fingerprints
// charge edges to their target's element.
const char *TwoLoopsPrefixEdit = R"(
assert(0 <= 1);
x := 0;
while (x <= 5) {
  x := x + 1;
}
y := 0;
while (y <= 7) {
  y := y + 2;
}
assert(x <= 6);
assert(0 <= y);
)";

// --- State codec ---------------------------------------------------------

TEST(StateCodec, RoundTripsAcrossContexts) {
  TermContext A;
  std::string Error;
  std::optional<Program> P = parseProgram(A, R"(
x := -3;
m := update(m0, x + 1, F(x));
y := select(m, x + 1);
assume(even(y));
assert(y = F(x));
)",
                                          &Error);
  ASSERT_TRUE(P) << Error;

  // Run an analysis so the encoded states exercise real invariants
  // (numerals, applications, predicates), not hand-built toys.
  DomainFactory FA(A);
  LogicalLattice *LA = FA.build("logical:affine,uf");
  ASSERT_NE(LA, nullptr) << FA.error();
  AnalysisResult R = Analyzer(*LA).run(*P);
  ASSERT_TRUE(R.Converged);

  // Decode every node state into a *fresh* context with the same symbols
  // registered, re-encode, and require identical bytes: the encoding is
  // context-free and canonical.
  TermContext B;
  std::string E2;
  ASSERT_TRUE(parseProgram(B, R"(
x := -3;
m := update(m0, x + 1, F(x));
y := select(m, x + 1);
assume(even(y));
assert(y = F(x));
)",
                           &E2));
  unsigned NonTrivial = 0;
  for (const Conjunction &C : R.Invariants) {
    std::string Bytes = codec::encodeConjunction(A, C);
    std::optional<Conjunction> Back = codec::decodeConjunction(B, Bytes);
    ASSERT_TRUE(Back) << Bytes;
    EXPECT_EQ(codec::encodeConjunction(B, *Back), Bytes);
    NonTrivial += !C.isTop() && !C.isBottom();
  }
  EXPECT_GT(NonTrivial, 0u);
}

TEST(StateCodec, UnknownSymbolIsADecodeFailureNotAnError) {
  TermContext A;
  Term F = A.mkApp(A.getFunction("H", 1), {A.mkNum(1)});
  std::string Bytes;
  codec::encodeTerm(A, F, Bytes);
  // A context that never interned H must refuse, returning null -- the
  // analyzer treats this as "snapshot not reusable".
  TermContext B;
  size_t Pos = 0;
  EXPECT_EQ(codec::decodeTerm(B, Bytes, Pos), nullptr);
}

// --- CFG fingerprints ----------------------------------------------------

struct Fingerprinted {
  TermContext Ctx;
  std::optional<Program> P;
  ComponentFingerprints FP;

  explicit Fingerprinted(const char *Text) {
    std::string Error;
    P = parseProgram(Ctx, Text, &Error);
    EXPECT_TRUE(P) << Error;
    FP = fingerprintComponents(Ctx, *P, WTO(*P));
  }
};

TEST(CfgFingerprint, DeterministicAndShapeAware) {
  Fingerprinted A(TwoLoops), B(TwoLoops);
  EXPECT_GE(A.FP.numElements(), 3u); // prefix, loop, ..., suffix
  EXPECT_EQ(A.FP.Chain, B.FP.Chain);
  EXPECT_EQ(A.FP.Local, B.FP.Local);
  EXPECT_EQ(A.FP.Starts, B.FP.Starts);
}

TEST(CfgFingerprint, SuffixEditPreservesPrefixChain) {
  Fingerprinted Old(TwoLoops), New(TwoLoopsSuffixEdit);
  ASSERT_EQ(Old.FP.numElements(), New.FP.numElements());
  // Some non-empty prefix of chained fingerprints survives the edit...
  size_t Agree = 0;
  while (Agree < Old.FP.numElements() &&
         Old.FP.Chain[Agree] == New.FP.Chain[Agree])
    ++Agree;
  EXPECT_GT(Agree, 0u);
  // ... and the edited element's chain (and everything after) differs.
  EXPECT_LT(Agree, Old.FP.numElements());
  for (size_t K = Agree; K < Old.FP.numElements(); ++K)
    EXPECT_NE(Old.FP.Chain[K], New.FP.Chain[K]) << "element " << K;
}

TEST(CfgFingerprint, EntryEditDirtiesEverything) {
  Fingerprinted Old(TwoLoops), New(TwoLoopsPrefixEdit);
  size_t N = std::min(Old.FP.numElements(), New.FP.numElements());
  ASSERT_GT(N, 0u);
  for (size_t K = 0; K < N; ++K)
    EXPECT_NE(Old.FP.Chain[K], New.FP.Chain[K]) << "element " << K;
}

// --- Analyzer-level record and replay ------------------------------------

/// Asserts bit-identity of two results from different runs (possibly over
/// different TermContexts; invariants are compared via the codec).  This
/// is the incremental engine's whole contract.
void expectIdentical(const TermContext &CtxA, const AnalysisResult &A,
                     const TermContext &CtxB, const AnalysisResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Converged, B.Converged) << What;
  ASSERT_EQ(A.Invariants.size(), B.Invariants.size()) << What;
  for (size_t I = 0; I < A.Invariants.size(); ++I)
    EXPECT_EQ(codec::encodeConjunction(CtxA, A.Invariants[I]),
              codec::encodeConjunction(CtxB, B.Invariants[I]))
        << What << " node " << I;
  ASSERT_EQ(A.Assertions.size(), B.Assertions.size()) << What;
  for (size_t I = 0; I < A.Assertions.size(); ++I) {
    EXPECT_EQ(A.Assertions[I].Label, B.Assertions[I].Label) << What;
    EXPECT_EQ(A.Assertions[I].Verified, B.Assertions[I].Verified)
        << What << " " << A.Assertions[I].Label;
  }
  // Every replayed counter, not just the serialized surface.  (The memo
  // caches' hit counters are exempt by design: recording harvests cached
  // transfer outputs, which is invisible to everything serialized.)
  EXPECT_EQ(A.Stats.Joins, B.Stats.Joins) << What;
  EXPECT_EQ(A.Stats.Widenings, B.Stats.Widenings) << What;
  EXPECT_EQ(A.Stats.Transfers, B.Stats.Transfers) << What;
  EXPECT_EQ(A.Stats.EdgeEvals, B.Stats.EdgeEvals) << What;
  EXPECT_EQ(A.Stats.EntailmentChecks, B.Stats.EntailmentChecks) << What;
  EXPECT_EQ(A.Stats.MaxNodeUpdates, B.Stats.MaxNodeUpdates) << What;
  EXPECT_EQ(A.Stats.TotalNodeUpdates, B.Stats.TotalNodeUpdates) << What;
}

/// One scratch run over \p Text, recording a snapshot when \p Out is
/// given and seeding from \p In when given.
AnalysisResult analyze(TermContext &Ctx, const char *Text,
                       const std::string &Spec, bool Memoize,
                       const FixpointSnapshot *In, FixpointSnapshot *Out) {
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, Text, &Error);
  EXPECT_TRUE(P) << Error;
  DomainFactory Factory(Ctx);
  LogicalLattice *L = Factory.build(Spec);
  EXPECT_NE(L, nullptr) << Factory.error();
  AnalyzerOptions Opts;
  Opts.Memoize = Memoize;
  Opts.SnapshotIn = In;
  Opts.SnapshotOut = Out;
  return Analyzer(*L, Opts).run(*P);
}

TEST(IncrementalAnalyzer, IdenticalProgramReplaysEveryElement) {
  for (const std::string Spec : {"logical:affine,uf", "logical:poly,uf"})
    for (bool Memoize : {true, false}) {
      std::string What = Spec + (Memoize ? " memo" : " nomemo");
      TermContext C1;
      FixpointSnapshot Snap;
      AnalysisResult Scratch =
          analyze(C1, TwoLoops, Spec, Memoize, nullptr, &Snap);
      ASSERT_TRUE(Snap.Complete) << What;
      EXPECT_EQ(Scratch.Stats.ComponentsReused, 0u) << What;

      TermContext C2;
      AnalysisResult Warm =
          analyze(C2, TwoLoops, Spec, Memoize, &Snap, nullptr);
      expectIdentical(C1, Scratch, C2, Warm, What);
      EXPECT_GT(Warm.Stats.ComponentsReused, 0u) << What;
      EXPECT_EQ(Warm.Stats.ComponentsReused + Warm.Stats.ComponentsRecomputed,
                Scratch.Stats.ComponentsReused +
                    Scratch.Stats.ComponentsRecomputed)
          << What;
    }
}

TEST(IncrementalAnalyzer, SuffixEditReusesPrefixBitIdentically) {
  for (const std::string Spec : {"logical:affine,uf", "logical:poly,uf"})
    for (bool Memoize : {true, false}) {
      std::string What = Spec + (Memoize ? " memo" : " nomemo");
      TermContext C1;
      FixpointSnapshot Snap;
      analyze(C1, TwoLoops, Spec, Memoize, nullptr, &Snap);
      ASSERT_TRUE(Snap.Complete) << What;

      TermContext C2;
      AnalysisResult Scratch =
          analyze(C2, TwoLoopsSuffixEdit, Spec, Memoize, nullptr, nullptr);
      TermContext C3;
      AnalysisResult Warm =
          analyze(C3, TwoLoopsSuffixEdit, Spec, Memoize, &Snap, nullptr);
      expectIdentical(C2, Scratch, C3, Warm, What);
      EXPECT_GT(Warm.Stats.ComponentsReused, 0u) << What;
      EXPECT_GT(Warm.Stats.ComponentsRecomputed, 0u) << What;
    }
}

TEST(IncrementalAnalyzer, EntryEditFallsBackToScratchBitIdentically) {
  TermContext C1;
  FixpointSnapshot Snap;
  analyze(C1, TwoLoops, "logical:poly,uf", true, nullptr, &Snap);
  ASSERT_TRUE(Snap.Complete);

  TermContext C2;
  AnalysisResult Scratch =
      analyze(C2, TwoLoopsPrefixEdit, "logical:poly,uf", true, nullptr,
              nullptr);
  TermContext C3;
  AnalysisResult Warm = analyze(C3, TwoLoopsPrefixEdit, "logical:poly,uf",
                                true, &Snap, nullptr);
  expectIdentical(C2, Scratch, C3, Warm, "entry edit");
  EXPECT_EQ(Warm.Stats.ComponentsReused, 0u);
}

TEST(IncrementalAnalyzer, WrongProgramSnapshotIsHarmless) {
  // Seeding with a snapshot of a completely unrelated program must not
  // change a single byte of the result.
  TermContext C1;
  FixpointSnapshot Snap;
  analyze(C1, "a := 4;\nwhile (a <= 9) {\n  a := a + 1;\n}\nassert(a = 10);\n",
          "logical:poly,uf", true, nullptr, &Snap);
  ASSERT_TRUE(Snap.Complete);

  TermContext C2;
  AnalysisResult Scratch =
      analyze(C2, TwoLoops, "logical:poly,uf", true, nullptr, nullptr);
  TermContext C3;
  AnalysisResult Warm =
      analyze(C3, TwoLoops, "logical:poly,uf", true, &Snap, nullptr);
  expectIdentical(C2, Scratch, C3, Warm, "unrelated snapshot");
}

TEST(IncrementalAnalyzer, GeneratedEditCorpusIsBitIdentical) {
  // Generated programs (with array traffic) edited by appending a
  // statement suffix: every incremental run must match its scratch run,
  // and across the corpus the warm path must actually reuse work.
  unsigned Reused = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    interp::GenOptions GO;
    GO.Seed = Seed;
    GO.Arrays = true;
    std::string V1 = interp::generateProgram(GO);
    std::string V2 =
        V1 + "q := 0;\nwhile (q <= 3) {\n  q := q + 1;\n}\nassert(q <= 4);\n";

    TermContext C1;
    FixpointSnapshot Snap;
    analyze(C1, V1.c_str(), "logical:affine,uf", true, nullptr, &Snap);
    ASSERT_TRUE(Snap.Complete) << "seed " << Seed;

    TermContext C2;
    AnalysisResult Scratch =
        analyze(C2, V2.c_str(), "logical:affine,uf", true, nullptr, nullptr);
    TermContext C3;
    AnalysisResult Warm =
        analyze(C3, V2.c_str(), "logical:affine,uf", true, &Snap, nullptr);
    expectIdentical(C2, Scratch, C3, Warm,
                    "seed " + std::to_string(Seed) + "\n" + V2);
    Reused += Warm.Stats.ComponentsReused;
  }
  EXPECT_GT(Reused, 0u);
}

// --- SnapshotCache -------------------------------------------------------

std::shared_ptr<const FixpointSnapshot> dummySnapshot(unsigned Components) {
  auto Snap = std::make_shared<FixpointSnapshot>();
  Snap->Components.resize(Components);
  Snap->Complete = true;
  return Snap;
}

TEST(SnapshotCacheTest, ExactIdLookupRequiresMatchingOptions) {
  SnapshotCache Cache(1 << 20);
  Cache.insert("p1", "x := 1;\n", "optA", dummySnapshot(2));
  EXPECT_NE(Cache.lookup("p1", "anything", "optA"), nullptr);
  EXPECT_EQ(Cache.lookup("p1", "anything", "optB"), nullptr);
  EXPECT_EQ(Cache.lookup("p2", "x := 1;\n", "optA"), nullptr);
  SnapshotCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(SnapshotCacheTest, FuzzyLookupPicksLongestCanonicalPrefix) {
  SnapshotCache Cache(1 << 20);
  auto Short = dummySnapshot(1), Long = dummySnapshot(3);
  Cache.insert("", "x := 1;\n", "opt", Short);
  Cache.insert("", "x := 1;\ny := 2;\n", "opt", Long);
  // The edited text shares a longer prefix with the second entry.
  auto Hit = Cache.lookup("", "x := 1;\ny := 3;\n", "opt");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Components.size(), 3u);
  // No shared prefix at all -> miss, not an arbitrary entry.
  EXPECT_EQ(Cache.lookup("", "zzz\n", "opt"), nullptr);
  // Options mismatch filters fuzzy candidates too.
  EXPECT_EQ(Cache.lookup("", "x := 1;\n", "other"), nullptr);
}

TEST(SnapshotCacheTest, SameIdentityReplacesAndLruEvicts) {
  SnapshotCache Cache(1 << 20);
  Cache.insert("p", "v1\n", "opt", dummySnapshot(1));
  Cache.insert("p", "v2\n", "opt", dummySnapshot(2));
  auto Hit = Cache.lookup("p", "", "opt");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Components.size(), 2u); // latest version won
  EXPECT_EQ(Cache.stats().Entries, 1u);

  // A budget of exactly one entry's cost (probed, not guessed) forces the
  // second insert to evict the least recently used first.
  SnapshotCache Probe(1 << 20);
  Probe.insert("a", "aaaa\n", "opt", dummySnapshot(0));
  size_t One = Probe.stats().Bytes;
  SnapshotCache Tiny(One);
  Tiny.insert("a", "aaaa\n", "opt", dummySnapshot(0));
  Tiny.insert("b", "bbbb\n", "opt", dummySnapshot(0));
  SnapshotCacheStats S = Tiny.stats();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_LE(S.Bytes, One);
  EXPECT_EQ(Tiny.lookup("a", "", "opt"), nullptr);
  EXPECT_NE(Tiny.lookup("b", "", "opt"), nullptr);

  // Zero budget disables the tier outright.
  SnapshotCache Off(0);
  Off.insert("p", "v\n", "opt", dummySnapshot(1));
  EXPECT_EQ(Off.lookup("p", "", "opt"), nullptr);
  EXPECT_EQ(Off.stats().Insertions, 0u);
}

// --- Scheduler: the analyze_edit flow ------------------------------------

JobSpec specOf(std::string Program, std::string Id = "", bool Edit = false) {
  JobSpec S;
  S.ProgramText = std::move(Program);
  S.ProgramId = std::move(Id);
  S.Edit = Edit;
  S.Opts.DomainSpec = "logical:poly,uf";
  return S;
}

JobResult runOne(AnalysisScheduler &Sched, JobSpec Spec) {
  Sched.submit(std::move(Spec));
  Sched.waitIdle();
  std::vector<JobResult> R = Sched.takeResults();
  EXPECT_EQ(R.size(), 1u);
  return R.back();
}

TEST(SchedulerIncremental, EditServesIdenticalBytesAndReusesComponents) {
  AnalysisScheduler Warm{SchedulerOptions{}};
  JobSpec V1 = specOf(TwoLoops, "prog");
  V1.Name = "v";
  runOne(Warm, V1);
  JobSpec V2 = specOf(TwoLoopsSuffixEdit, "prog", /*Edit=*/true);
  V2.Name = "v";
  JobResult Incremental = runOne(Warm, V2);

  // A cold scheduler analyzing the edited text from scratch must produce
  // the same response line, byte for byte.
  AnalysisScheduler Cold{SchedulerOptions{}};
  JobSpec Fresh = specOf(TwoLoopsSuffixEdit);
  Fresh.Name = "v";
  Fresh.Id = Incremental.Id;
  JobResult Scratch = runOne(Cold, Fresh);
  EXPECT_EQ(resultToJsonLine(Incremental), resultToJsonLine(Scratch));

  IncrementalStats IS = Warm.incrementalStats();
  EXPECT_EQ(IS.Edits, 1u);
  EXPECT_GT(IS.ComponentsReused, 0u);
  EXPECT_EQ(IS.Fallbacks, 0u);
  EXPECT_EQ(Warm.snapshotCacheStats().Hits, 1u);
}

TEST(SchedulerIncremental, AnonymousEditMatchesFuzzilyByPrefix) {
  AnalysisScheduler Sched{SchedulerOptions{}};
  runOne(Sched, specOf(TwoLoops, "", /*Edit=*/true)); // fallback: cold
  JobResult R = runOne(Sched, specOf(TwoLoopsSuffixEdit, "", /*Edit=*/true));
  EXPECT_GT(R.Stats.ComponentsReused, 0u);
  IncrementalStats IS = Sched.incrementalStats();
  EXPECT_EQ(IS.Edits, 2u);
  EXPECT_EQ(IS.Fallbacks, 1u); // only the first, snapshot-less edit
}

TEST(SchedulerIncremental, EntryEditCountsAsFallback) {
  AnalysisScheduler Sched{SchedulerOptions{}};
  runOne(Sched, specOf(TwoLoops, "p"));
  JobResult R = runOne(Sched, specOf(TwoLoopsPrefixEdit, "p", /*Edit=*/true));
  EXPECT_EQ(R.Stats.ComponentsReused, 0u);
  EXPECT_EQ(Sched.incrementalStats().Fallbacks, 1u);
}

TEST(SchedulerIncremental, ExactRepeatStillHitsTheResultCache) {
  // analyze_edit of a byte-identical program short-circuits at the result
  // cache -- the snapshot tier never runs.
  AnalysisScheduler Sched{SchedulerOptions{}};
  runOne(Sched, specOf(TwoLoops, "p"));
  JobResult R = runOne(Sched, specOf(TwoLoops, "p", /*Edit=*/true));
  EXPECT_TRUE(R.CacheHit);
  EXPECT_EQ(Sched.incrementalStats().Edits, 0u);
}

TEST(SchedulerIncremental, EditCorpusDeterministicAcrossWorkerCounts) {
  // The differential gate: a 10-program corpus analyzed, then re-analyzed
  // after per-program edits, must emit byte-identical result lines at
  // --jobs 1 and --jobs 8 -- and the warm pass must reuse components.
  auto Run = [](unsigned Workers, uint64_t *ReusedOut) {
    SchedulerOptions SO;
    SO.Workers = Workers;
    AnalysisScheduler Sched(SO);
    std::vector<std::string> V1s, V2s;
    for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
      interp::GenOptions GO;
      GO.Seed = 40 + Seed;
      GO.Arrays = true;
      std::string V1 = interp::generateProgram(GO);
      V1s.push_back(V1);
      V2s.push_back(V1 + "q := 0;\nwhile (q <= 3) {\n  q := q + 1;\n}\n");
    }
    for (uint64_t I = 0; I < V1s.size(); ++I) {
      JobSpec S = specOf(V1s[I], "gen/" + std::to_string(I));
      S.Opts.DomainSpec = "logical:affine,uf";
      S.Id = I;
      Sched.submit(std::move(S));
    }
    Sched.waitIdle();
    Sched.takeResults();
    for (uint64_t I = 0; I < V2s.size(); ++I) {
      JobSpec S = specOf(V2s[I], "gen/" + std::to_string(I), /*Edit=*/true);
      S.Opts.DomainSpec = "logical:affine,uf";
      S.Id = I;
      Sched.submit(std::move(S));
    }
    Sched.waitIdle();
    std::string Out;
    for (const JobResult &R : Sched.takeResults()) {
      Out += resultToJsonLine(R);
      Out += '\n';
    }
    if (ReusedOut)
      *ReusedOut = Sched.incrementalStats().ComponentsReused;
    return Out;
  };
  uint64_t Reused1 = 0, Reused8 = 0;
  std::string One = Run(1, &Reused1);
  std::string Eight = Run(8, &Reused8);
  EXPECT_EQ(One, Eight);
  EXPECT_FALSE(One.empty());
  EXPECT_GT(Reused1, 0u);
  EXPECT_EQ(Reused1, Reused8);
}

// --- Protocol surface ----------------------------------------------------

TEST(ProtocolIncremental, ParsesAnalyzeEditAndProgramId) {
  std::string Error;
  std::optional<Request> Req = parseRequest(
      R"({"cmd":"analyze_edit","program_id":"fig1","program":"x := 1;"})", 7,
      &Error);
  ASSERT_TRUE(Req) << Error;
  EXPECT_EQ(Req->Command, Request::Kind::Analyze);
  EXPECT_TRUE(Req->Spec.Edit);
  EXPECT_EQ(Req->Spec.ProgramId, "fig1");
  EXPECT_EQ(Req->Spec.Id, 7u);

  // program_id on a plain analyze is allowed (it enables retention).
  Req = parseRequest(R"({"program_id":"fig1","program":"x := 1;"})", 0,
                     &Error);
  ASSERT_TRUE(Req) << Error;
  EXPECT_FALSE(Req->Spec.Edit);
  EXPECT_EQ(Req->Spec.ProgramId, "fig1");

  EXPECT_FALSE(parseRequest(R"({"cmd":"analyze_edit"})", 0, &Error));
  EXPECT_FALSE(
      parseRequest(R"({"program_id":3,"program":"x := 1;"})", 0, &Error));
}

TEST(ProtocolIncremental, StatsLineCarriesIncrementalBlock) {
  ResultCacheStats CS;
  SnapshotCacheStats SS;
  SS.Hits = 2;
  IncrementalStats IS;
  IS.Edits = 3;
  IS.ComponentsReused = 11;
  IS.Fallbacks = 1;
  std::string Line = statsToJsonLine(CS, SS, IS, 2, 5);
  EXPECT_NE(Line.find("\"snapshot_cache\":{\"hits\":2,"), std::string::npos)
      << Line;
  EXPECT_NE(Line.find("\"incremental\":{\"edits\":3,\"components_reused\":11,"
                      "\"components_recomputed\":0,\"fallbacks\":1}"),
            std::string::npos)
      << Line;
}

TEST(ProtocolIncremental, EditDoesNotPerturbTheResultFingerprint) {
  JobSpec Plain = specOf(TwoLoops);
  JobSpec Edit = specOf(TwoLoops, "some-id", /*Edit=*/true);
  EXPECT_EQ(fingerprintJob(Plain), fingerprintJob(Edit));
}

} // namespace
