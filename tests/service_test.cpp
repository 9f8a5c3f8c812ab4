//===- tests/service_test.cpp - Analysis service unit tests ----------------===//
//
// The service subsystem end to end at the library level: canonical
// fingerprints, the byte-budget LRU result cache, the wire protocol, the
// sharded scheduler (determinism across worker counts, crash isolation,
// cooperative timeout/cancellation), the deterministic shard merge of
// tracers and metrics registries, and the telemetry hub (lifecycle-span
// counts, result bytes independent of telemetry, slow-job exemplars).
//
//===----------------------------------------------------------------------===//

#include "interp/ProgramGen.h"
#include "ir/ProgramParser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"
#include "service/Scheduler.h"
#include "support/TextIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cai;
using namespace cai::service;

namespace {

JobSpec specOf(std::string Program, std::string Domain = "logical:affine,uf") {
  JobSpec S;
  S.ProgramText = std::move(Program);
  S.Opts.DomainSpec = std::move(Domain);
  return S;
}

// --- Fingerprints --------------------------------------------------------

TEST(Fingerprint, CanonicalizationIgnoresPresentation) {
  JobSpec A = specOf("x := 1;\ny := x + 1;\n");
  JobSpec B = specOf("x := 1;   \r\ny := x + 1; // comment\r\n\n");
  EXPECT_EQ(canonicalProgramText(A.ProgramText),
            canonicalProgramText("x := 1;\n// preamble\n\ny := x + 1;\n\n"));
  EXPECT_EQ(fingerprintJob(A), fingerprintJob(B));
  EXPECT_EQ(fingerprintJob(A).size(), 32u);
}

TEST(Fingerprint, DistinguishesProgramAndOptions) {
  JobSpec Base = specOf("x := 1;\n");
  JobSpec OtherText = specOf("x := 2;\n");
  EXPECT_NE(fingerprintJob(Base), fingerprintJob(OtherText));

  JobSpec OtherDomain = Base;
  OtherDomain.Opts.DomainSpec = "poly";
  EXPECT_NE(fingerprintJob(Base), fingerprintJob(OtherDomain));

  JobSpec OtherDelay = Base;
  OtherDelay.Opts.WideningDelay += 1;
  EXPECT_NE(fingerprintJob(Base), fingerprintJob(OtherDelay));

  JobSpec OtherEncode = Base;
  OtherEncode.Opts.Encode = "comm";
  EXPECT_NE(fingerprintJob(Base), fingerprintJob(OtherEncode));

  // Timeout is excluded by design: a timeout changes the outcome, never
  // the analysis, and timed-out results are not cached.
  JobSpec OtherTimeout = Base;
  OtherTimeout.Opts.TimeoutMs = 123;
  EXPECT_EQ(fingerprintJob(Base), fingerprintJob(OtherTimeout));
}

TEST(Fingerprint, IdAndNameDoNotParticipate) {
  JobSpec A = specOf("x := 1;\n");
  JobSpec B = A;
  B.Id = 42;
  B.Name = "elsewhere.imp";
  EXPECT_EQ(fingerprintJob(A), fingerprintJob(B));
}

// The option-coverage guard: every result-affecting JobOptions field must
// fold into the canonical fingerprint, or the ResultCache would serve a
// stale result across an option change.  The structured binding below is a
// compile-time tripwire -- adding a field to JobOptions breaks it until
// both the binding and the perturbation list are brought up to date, so a
// new option cannot silently skip the fingerprint.
TEST(Fingerprint, EveryResultAffectingOptionParticipates) {
  JobSpec Base = specOf("x := 1;\n");
  {
    auto &[DomainSpec, Encode, WideningDelay, NarrowingPasses,
           SemanticConvergence, Memoize, PolyMaxRows, Lint, LintChecks,
           TimeoutMs, TestCrash] = Base.Opts;
    (void)DomainSpec;
    (void)Encode;
    (void)WideningDelay;
    (void)NarrowingPasses;
    (void)SemanticConvergence;
    (void)Memoize;
    (void)PolyMaxRows;
    (void)Lint;
    (void)LintChecks;
    (void)TimeoutMs;
    (void)TestCrash;
  }
  const std::string Orig = fingerprintJob(Base);
  auto Perturbed = [&](void (*Mutate)(JobOptions &)) {
    JobSpec S = Base;
    Mutate(S.Opts);
    return fingerprintJob(S);
  };
  // Result-affecting: each perturbation must move the fingerprint.
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.DomainSpec = "poly"; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.Encode = "arity"; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.WideningDelay += 1; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.NarrowingPasses += 1; }));
  EXPECT_NE(Orig,
            Perturbed([](JobOptions &O) { O.SemanticConvergence = false; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.Memoize = false; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.PolyMaxRows = 64; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) { O.Lint = true; }));
  EXPECT_NE(Orig, Perturbed([](JobOptions &O) {
              O.LintChecks = "deadstore";
            }));
  // Excluded by design: outcomes of these are never cached.
  EXPECT_EQ(Orig, Perturbed([](JobOptions &O) { O.TimeoutMs = 99; }));
  EXPECT_EQ(Orig, Perturbed([](JobOptions &O) { O.TestCrash = true; }));
}

// A lint job's findings ride the result line and the cache: the same
// program analyzed with and without lint must occupy distinct cache
// slots, and the cached lint result replays its findings.
TEST(Scheduler, LintJobsCacheSeparatelyAndReplayFindings) {
  SchedulerOptions SO;
  SO.Workers = 2;
  AnalysisScheduler Sched(SO);
  const char *Src = "x := 1;\nif (x <= 0) {\n  y := 9;\n}\nassert(1 <= x);\n";
  JobSpec Plain = specOf(Src, "logical:poly,uf");
  Plain.Id = 1;
  JobSpec Linted = Plain;
  Linted.Id = 2;
  Linted.Opts.Lint = true;
  JobSpec LintedAgain = Linted;
  LintedAgain.Id = 3;
  Sched.submit(Plain);
  Sched.submit(Linted);
  Sched.waitIdle();
  Sched.submit(LintedAgain); // After the first round: a result-cache hit.
  Sched.waitIdle();
  std::vector<JobResult> Results = Sched.takeResults();
  std::sort(Results.begin(), Results.end(),
            [](const JobResult &A, const JobResult &B) { return A.Id < B.Id; });
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_NE(Results[0].Fingerprint, Results[1].Fingerprint);
  EXPECT_FALSE(Results[0].Linted);
  EXPECT_TRUE(Results[0].Findings.empty());
  EXPECT_TRUE(Results[1].Linted);
  EXPECT_FALSE(Results[1].Findings.empty()); // The dead then-branch.
  EXPECT_TRUE(Results[2].CacheHit);
  ASSERT_EQ(Results[2].Findings.size(), Results[1].Findings.size());
  for (size_t I = 0; I < Results[1].Findings.size(); ++I) {
    EXPECT_EQ(Results[2].Findings[I].Rule, Results[1].Findings[I].Rule);
    EXPECT_EQ(Results[2].Findings[I].Message, Results[1].Findings[I].Message);
  }
  // The wire line carries the findings array for lint jobs only.
  EXPECT_NE(resultToJsonLine(Results[1]).find("\"findings\":["),
            std::string::npos);
  EXPECT_EQ(resultToJsonLine(Results[0]).find("\"findings\""),
            std::string::npos);
}

// --- ResultCache ---------------------------------------------------------

std::shared_ptr<const JobResult> resultNamed(const std::string &Name) {
  JobResult R;
  R.Name = Name;
  R.Status = JobStatus::Verified;
  return std::make_shared<const JobResult>(std::move(R));
}

TEST(ResultCache, HitMissAndPromotion) {
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Cache.lookup("a"), nullptr);
  Cache.insert("a", resultNamed("a"));
  auto Hit = Cache.lookup("a");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Name, "a");
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_DOUBLE_EQ(S.hitRate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  auto A = resultNamed("a"), B = resultNamed("b"), C = resultNamed("c");
  size_t One = ResultCache::costOf("k", *A);
  // Room for exactly two entries.
  ResultCache Cache(2 * One + One / 2);
  Cache.insert("a", A);
  Cache.insert("b", B);
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  EXPECT_NE(Cache.lookup("a"), nullptr);
  Cache.insert("c", C);
  EXPECT_NE(Cache.lookup("a"), nullptr);
  EXPECT_EQ(Cache.lookup("b"), nullptr);
  EXPECT_NE(Cache.lookup("c"), nullptr);
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_LE(S.Bytes, S.ByteBudget);
}

TEST(ResultCache, OversizedEntryRejectedAndZeroBudgetDisables) {
  auto R = resultNamed("big");
  ResultCache Tiny(1);
  Tiny.insert("k", R);
  EXPECT_EQ(Tiny.lookup("k"), nullptr);
  EXPECT_EQ(Tiny.stats().Evictions, 1u);

  ResultCache Off(0);
  Off.insert("k", R);
  EXPECT_EQ(Off.lookup("k"), nullptr);
  EXPECT_EQ(Off.stats().Entries, 0u);
}

TEST(ResultCache, EvictionKeepsHeldResultsAlive) {
  auto A = resultNamed("a");
  ResultCache Cache(ResultCache::costOf("a", *A) + 8);
  Cache.insert("a", A);
  std::shared_ptr<const JobResult> Held = Cache.lookup("a");
  Cache.insert("b", resultNamed("b")); // Evicts "a".
  EXPECT_EQ(Cache.lookup("a"), nullptr);
  ASSERT_NE(Held, nullptr);
  EXPECT_EQ(Held->Name, "a"); // The shared_ptr outlives the eviction.
}

// --- Protocol ------------------------------------------------------------

TEST(Protocol, ParsesAnalyzeRequestWithOptions) {
  std::string Error;
  auto Req = parseRequest(
      R"({"id":7,"name":"n","program":"x := 1;","domain":"poly",)"
      R"("options":{"encode":"comm","widening_delay":2,"timeout_ms":50,)"
      R"("memoize":false,"poly_max_rows":0}})",
      0, &Error);
  ASSERT_TRUE(Req.has_value()) << Error;
  EXPECT_EQ(Req->Command, Request::Kind::Analyze);
  EXPECT_EQ(Req->Spec.Id, 7u);
  EXPECT_EQ(Req->Spec.Name, "n");
  EXPECT_EQ(Req->Spec.ProgramText, "x := 1;");
  EXPECT_EQ(Req->Spec.Opts.DomainSpec, "poly");
  EXPECT_EQ(Req->Spec.Opts.Encode, "comm");
  EXPECT_EQ(Req->Spec.Opts.WideningDelay, 2u);
  EXPECT_EQ(Req->Spec.Opts.TimeoutMs, 50u);
  EXPECT_FALSE(Req->Spec.Opts.Memoize);
  EXPECT_EQ(Req->Spec.Opts.PolyMaxRows, 0u);
}

TEST(Protocol, CommandsAndErrors) {
  std::string Error;
  EXPECT_EQ(parseRequest(R"({"cmd":"stats"})", 0, &Error)->Command,
            Request::Kind::Stats);
  EXPECT_EQ(parseRequest(R"({"cmd":"shutdown"})", 0, &Error)->Command,
            Request::Kind::Shutdown);
  EXPECT_FALSE(parseRequest("not json", 0, &Error).has_value());
  EXPECT_FALSE(parseRequest(R"({"cmd":"nosuch"})", 0, &Error).has_value());
  EXPECT_FALSE(parseRequest(R"({"id":1})", 0, &Error).has_value());
  EXPECT_FALSE(
      parseRequest(R"({"program":"x;","options":{"typo_knob":1}})", 0, &Error)
          .has_value());
  EXPECT_NE(Error.find("typo_knob"), std::string::npos);
}

// A count must be a whole number inside its field.  A value that wrapped
// or truncated would run, and be cached, as a different job (-1 as
// 4294967295; 4294967297 and 1.5 both as 1).
TEST(Protocol, NumbersOutsideTheirFieldAreRejected) {
  auto Parse = [](const std::string &Options) {
    std::string Error;
    return parseRequest(
        R"({"program":"x := 1;","options":{)" + Options + "}}", 0, &Error);
  };
  for (const char *Key :
       {"widening_delay", "narrowing_passes", "timeout_ms", "poly_max_rows"}) {
    std::string K = std::string("\"") + Key + "\":";
    EXPECT_TRUE(Parse(K + "0")) << Key;
    EXPECT_TRUE(Parse(K + "7")) << Key;
    EXPECT_TRUE(Parse(K + "2.0")) << Key;
    EXPECT_FALSE(Parse(K + "-1")) << Key;
    EXPECT_FALSE(Parse(K + "1.5")) << Key;
    EXPECT_FALSE(Parse(K + "1e30")) << Key;
    EXPECT_FALSE(Parse(K + "99999999999999999999")) << Key;
    EXPECT_FALSE(Parse(K + "\"3\"")) << Key;
  }
  EXPECT_EQ(Parse(R"("widening_delay":4294967295)")->Spec.Opts.WideningDelay,
            4294967295u);
  EXPECT_FALSE(Parse(R"("widening_delay":4294967296)"));
  EXPECT_FALSE(Parse(R"("narrowing_passes":4294967297)"));
  EXPECT_EQ(Parse(R"("timeout_ms":9223372036854775807)")->Spec.Opts.TimeoutMs,
            9223372036854775807u);
  // An integral double is the same job as the integer.
  EXPECT_EQ(fingerprintJob(Parse(R"("widening_delay":2.0)")->Spec),
            fingerprintJob(Parse(R"("widening_delay":2)")->Spec));

  std::string Error;
  for (const char *Id : {"-1", "1.5", "1e30", "9223372036854775808"})
    EXPECT_FALSE(parseRequest(std::string(R"({"id":)") + Id +
                                  R"(,"program":"x;"})",
                              0, &Error))
        << Id;
  auto Req = parseRequest(R"({"id":9223372036854775807,"program":"x;"})", 0,
                          &Error);
  ASSERT_TRUE(Req.has_value()) << Error;
  EXPECT_EQ(Req->Spec.Id, 9223372036854775807u);
}

TEST(Protocol, ResultLineIsStableAndTimingFree) {
  JobResult R;
  R.Id = 3;
  R.Name = "p.imp";
  R.Status = JobStatus::Verified;
  R.Fingerprint = "00ff";
  R.Domain = "affine >< uf";
  R.NumVerified = 1;
  R.Assertions.push_back({"a1", true});
  R.Stats.Joins = 2;
  R.DurationMs = 123.456; // Must not appear in the line.
  std::string Line = resultToJsonLine(R);
  EXPECT_EQ(Line,
            R"({"id":3,"name":"p.imp","fingerprint":"00ff",)"
            R"("status":"verified","domain":"affine >< uf","cached":false,)"
            R"("verified":1,"assertions":[{"label":"a1","verified":true}],)"
            R"("stats":{"joins":2,"widenings":0,"transfers":0,)"
            R"("max_node_updates":0},"error":""})");
  EXPECT_EQ(Line.find("123"), std::string::npos);
}

// The persist tier stores result lines and reads them back, so the pair
// must agree on real results, findings included: resultFromJsonLine of a
// line, with the request-side id, name and cached put back, prints the
// same line byte for byte.
TEST(Protocol, ResultLineRoundTripsOverTestdata) {
  std::vector<std::filesystem::path> Programs;
  for (const char *Dir : {"", "/lint"})
    for (const auto &E : std::filesystem::directory_iterator(
             std::string(CAI_TESTDATA_DIR) + Dir))
      if (E.path().extension() == ".imp")
        Programs.push_back(E.path());
  std::sort(Programs.begin(), Programs.end());
  ASSERT_GE(Programs.size(), 9u);
  unsigned Findings = 0;
  for (const std::filesystem::path &Path : Programs) {
    std::string Text;
    ASSERT_TRUE(readFile(Path.string(), Text));
    for (const char *Domain : {"poly", "logical:affine,uf", "logical:poly,uf"})
      for (bool Lint : {false, true}) {
        JobSpec Spec = specOf(Text, Domain);
        Spec.Id = 7;
        Spec.Name = Path.filename().string();
        Spec.Opts.Lint = Lint;
        JobResult R = AnalysisScheduler::runJobIsolated(Spec, nullptr);
        Findings += R.Findings.size();
        for (bool Cached : {false, true}) {
          R.CacheHit = Cached;
          std::string Line = resultToJsonLine(R);
          std::optional<JobResult> Back = resultFromJsonLine(Line);
          ASSERT_TRUE(Back) << Line;
          EXPECT_EQ(Back->Id, 0u);
          EXPECT_TRUE(Back->Name.empty());
          EXPECT_FALSE(Back->CacheHit);
          Back->Id = R.Id;
          Back->Name = R.Name;
          Back->CacheHit = R.CacheHit;
          EXPECT_EQ(resultToJsonLine(*Back), Line);
        }
      }
  }
  EXPECT_GT(Findings, 0u); // The lint programs exercise the findings array.
}

// --- ProgramGen nested composition ---------------------------------------

TEST(ProgramGen, NestedCompositionAppearsAndParses) {
  bool SawNested = false;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    interp::GenOptions GO;
    GO.Seed = Seed;
    GO.MaxFnDepth = 3;
    std::string Text = interp::generateProgram(GO);
    SawNested |= Text.find("F(F(") != std::string::npos ||
                 Text.find("F(G(") != std::string::npos ||
                 Text.find("G(F(") != std::string::npos ||
                 Text.find("G(G(") != std::string::npos;
    TermContext Ctx;
    Ctx.getPredicate("even", 1);
    Ctx.getPredicate("odd", 1);
    Ctx.getPredicate("positive", 1);
    Ctx.getPredicate("negative", 1);
    std::string Error;
    EXPECT_TRUE(parseProgram(Ctx, Text, &Error).has_value())
        << "seed " << Seed << ": " << Error << "\n"
        << Text;
  }
  EXPECT_TRUE(SawNested)
      << "MaxFnDepth=3 never produced a composed application in 30 seeds";
}

// --- Scheduler -----------------------------------------------------------

std::vector<JobSpec> generatedBatch(unsigned N) {
  std::vector<JobSpec> Batch;
  for (unsigned K = 0; K < N; ++K) {
    interp::GenOptions GO;
    GO.Seed = 1000 + K;
    GO.MaxFnDepth = 2;
    JobSpec S;
    S.Id = K;
    S.Name = "gen/" + std::to_string(K);
    S.ProgramText = interp::generateProgram(GO);
    S.Opts.DomainSpec = "logical:affine,uf";
    Batch.push_back(std::move(S));
  }
  return Batch;
}

std::vector<std::string> runBatch(const std::vector<JobSpec> &Batch,
                                  unsigned Workers) {
  SchedulerOptions SO;
  SO.Workers = Workers;
  AnalysisScheduler Scheduler(SO);
  for (const JobSpec &S : Batch)
    Scheduler.submit(S);
  Scheduler.waitIdle();
  std::vector<std::string> Lines;
  for (const JobResult &R : Scheduler.takeResults())
    Lines.push_back(resultToJsonLine(R));
  return Lines;
}

TEST(Scheduler, ResultsIndependentOfWorkerCount) {
  std::vector<JobSpec> Batch = generatedBatch(12);
  std::vector<std::string> One = runBatch(Batch, 1);
  std::vector<std::string> Four = runBatch(Batch, 4);
  ASSERT_EQ(One.size(), Batch.size());
  EXPECT_EQ(One, Four);
}

TEST(Scheduler, CrashIsolationTurnsThrowIntoStructuredFailure) {
  SchedulerOptions SO;
  SO.Workers = 2;
  AnalysisScheduler Scheduler(SO);
  JobSpec Good = specOf("x := 1;\nassert(x = 1);\n");
  Good.Id = 0;
  JobSpec Crash = specOf("x := 1;\n");
  Crash.Id = 1;
  Crash.Opts.TestCrash = true;
  Scheduler.submit(Good);
  Scheduler.submit(Crash);
  Scheduler.waitIdle();
  std::vector<JobResult> Results = Scheduler.takeResults();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Status, JobStatus::Verified);
  EXPECT_EQ(Results[1].Status, JobStatus::Error);
  EXPECT_NE(Results[1].Error.find("TestCrash"), std::string::npos);
}

TEST(Scheduler, PerJobStatuses) {
  SchedulerOptions SO;
  AnalysisScheduler Scheduler(SO);
  JobSpec Parse = specOf("while (");
  Parse.Id = 0;
  JobSpec Domain = specOf("x := 1;\n", "nosuch");
  Domain.Id = 1;
  JobSpec Encode = specOf("x := 1;\n");
  Encode.Id = 2;
  Encode.Opts.Encode = "bogus";
  Scheduler.submit(Parse);
  Scheduler.submit(Domain);
  Scheduler.submit(Encode);
  Scheduler.waitIdle();
  std::vector<JobResult> Results = Scheduler.takeResults();
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].Status, JobStatus::ParseError);
  EXPECT_EQ(Results[1].Status, JobStatus::BadDomain);
  EXPECT_EQ(Results[2].Status, JobStatus::BadDomain);
}

// The commutative encoding takes binary symbols only.  A request that
// applies the unary F under "encode":"comm" is a job error, and the server
// goes on to answer the next request.
TEST(Scheduler, EncodingErrorIsReportedAndTheNextRequestAnswered) {
  SchedulerOptions SO;
  SO.Workers = 1;
  AnalysisScheduler Scheduler(SO);
  std::string Error;
  std::optional<Request> Bad = parseRequest(
      R"({"id":1,"program":"x := 1;\ny := F(x);\n",)"
      R"("options":{"encode":"comm"}})",
      0, &Error);
  ASSERT_TRUE(Bad) << Error;
  std::optional<Request> Next = parseRequest(
      R"({"id":2,"program":"x := 1;\nassert(x = 1);\n"})", 2, &Error);
  ASSERT_TRUE(Next) << Error;
  Scheduler.submit(Bad->Spec);
  Scheduler.submit(Next->Spec);
  Scheduler.waitIdle();
  std::vector<JobResult> Results = Scheduler.takeResults();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Id, 1u);
  EXPECT_EQ(Results[0].Status, JobStatus::Error);
  EXPECT_NE(Results[0].Error.find("binary"), std::string::npos)
      << Results[0].Error;
  EXPECT_NE(resultToJsonLine(Results[0]).find(R"("status":"error")"),
            std::string::npos);
  EXPECT_EQ(Results[1].Id, 2u);
  EXPECT_EQ(Results[1].Status, JobStatus::Verified);
}

TEST(Scheduler, TimeoutReportsCleanlyWithoutKillingAnything) {
  // fig1-style poly,uf work takes tens of milliseconds at least; a 1 ms
  // deadline reliably fires at an early fixpoint step boundary.
  interp::GenOptions GO;
  GO.Seed = 5;
  GO.MaxStmts = 20;
  JobSpec S = specOf(interp::generateProgram(GO), "logical:poly,uf");
  S.Opts.TimeoutMs = 1;
  JobResult R = AnalysisScheduler::runJobIsolated(S, nullptr);
  EXPECT_EQ(R.Status, JobStatus::Timeout);
  EXPECT_NE(R.Error.find("deadline"), std::string::npos);
  EXPECT_FALSE(jobCacheable(R.Status));
}

// The largest budget the wire accepts is far past the steady clock's
// range; it must mean "no deadline", not overflow into one already past.
TEST(Scheduler, BudgetPastTheClockRangeIsNoDeadline) {
  JobSpec S = specOf("x := 1;\nassert(x = 1);\n");
  S.Opts.TimeoutMs = INT64_MAX;
  EXPECT_EQ(AnalysisScheduler::runJobIsolated(S, nullptr).Status,
            JobStatus::Verified);
  S.Opts.TimeoutMs = UINT64_MAX;
  EXPECT_EQ(AnalysisScheduler::runJobIsolated(S, nullptr).Status,
            JobStatus::Verified);
}

TEST(Scheduler, CancellationFlagStopsTheRun) {
  std::atomic<bool> Cancel{true}; // Pre-set: cancels at the first step.
  JobSpec S = specOf("x := 0;\nwhile (x <= 9) {\n  x := x + 1;\n}\n"
                     "assert(x <= 10);\n",
                     "logical:poly,uf");
  JobResult R = AnalysisScheduler::runJobIsolated(S, &Cancel);
  EXPECT_EQ(R.Status, JobStatus::Error);
  EXPECT_EQ(R.Error, "cancelled");
}

TEST(Scheduler, WarmCacheServesRepeats) {
  SchedulerOptions SO;
  SO.Workers = 2;
  AnalysisScheduler Scheduler(SO);
  std::vector<JobSpec> Batch = generatedBatch(8);
  for (const JobSpec &S : Batch)
    Scheduler.submit(S);
  Scheduler.waitIdle();
  for (JobSpec S : Batch) {
    S.Id += Batch.size();
    Scheduler.submit(std::move(S));
  }
  Scheduler.waitIdle();
  std::vector<JobResult> Results = Scheduler.takeResults();
  ASSERT_EQ(Results.size(), 2 * Batch.size());
  unsigned Cached = 0;
  for (const JobResult &R : Results)
    Cached += R.CacheHit;
  EXPECT_EQ(Cached, Batch.size()); // Pass 2 entirely from cache.
  // First-pass and second-pass outcomes agree apart from id and the
  // cached flag.
  for (size_t I = 0; I < Batch.size(); ++I) {
    EXPECT_EQ(Results[I].Status, Results[I + Batch.size()].Status);
    EXPECT_EQ(Results[I].Fingerprint, Results[I + Batch.size()].Fingerprint);
    EXPECT_EQ(Results[I].NumVerified, Results[I + Batch.size()].NumVerified);
  }
  ResultCacheStats S = Scheduler.cacheStats();
  EXPECT_GE(S.hitRate(), 0.5);
  EXPECT_EQ(S.Hits, Batch.size());
}

// A streaming server must not also keep what it streamed: with a callback
// installed every result reaches it once, and none is left for
// takeResults(), however long the stream runs.
TEST(Scheduler, StreamedResultsAreNotKept) {
  SchedulerOptions SO;
  SO.Workers = 2;
  AnalysisScheduler Scheduler(SO);
  std::vector<uint64_t> Streamed; // The scheduler serializes callbacks.
  Scheduler.onResult([&](const JobResult &R) { Streamed.push_back(R.Id); });
  std::vector<JobSpec> Batch = generatedBatch(6);
  for (int Pass = 0; Pass < 2; ++Pass) { // The second pass hits the cache.
    for (JobSpec S : Batch) {
      S.Id += Pass * Batch.size();
      Scheduler.submit(std::move(S));
    }
    Scheduler.waitIdle();
  }
  EXPECT_EQ(Scheduler.cacheStats().Hits, Batch.size());
  std::sort(Streamed.begin(), Streamed.end());
  std::vector<uint64_t> Expected(2 * Batch.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    Expected[I] = I;
  EXPECT_EQ(Streamed, Expected);
  EXPECT_TRUE(Scheduler.takeResults().empty());
  EXPECT_EQ(Scheduler.jobsFinished(), Expected.size());
}

// --- Shard merge ---------------------------------------------------------

TEST(ShardMerge, MergedMetricsEqualShardSums) {
  obs::MetricsRegistry A, B;
  A.counter("service.x").inc(3);
  B.counter("service.x").inc(4);
  A.counter("only.a").inc(1);
  B.gauge("g").set(7);
  A.histogram("h").record(2.0);
  B.histogram("h").record(8.0);
  obs::MetricsRegistry Merged;
  Merged.mergeFrom(A);
  Merged.mergeFrom(B);
  EXPECT_EQ(Merged.counter("service.x").value(), 7u);
  EXPECT_EQ(Merged.counter("only.a").value(), 1u);
  EXPECT_DOUBLE_EQ(Merged.gauge("g").value(), 7.0);
  EXPECT_EQ(Merged.histogram("h").count(), 2u);
  EXPECT_DOUBLE_EQ(Merged.histogram("h").sum(), 10.0);
  EXPECT_DOUBLE_EQ(Merged.histogram("h").min(), 2.0);
  EXPECT_DOUBLE_EQ(Merged.histogram("h").max(), 8.0);
}

TEST(ShardMerge, SchedulerMergeSumsJobCountsAcrossShards) {
  SchedulerOptions SO;
  SO.Workers = 3;
  AnalysisScheduler Scheduler(SO);
  for (JobSpec &S : generatedBatch(9))
    Scheduler.submit(std::move(S));
  Scheduler.waitIdle();
  obs::MetricsRegistry Merged;
  Scheduler.mergeMetricsInto(Merged);
  // However the 9 jobs landed on the 3 shards, the merged counter is the
  // total.
  EXPECT_EQ(Merged.counter("service.jobs.completed").value(), 9u);
  EXPECT_EQ(Merged.counter("service.cache.misses").value(), 9u);
}

TEST(ShardMerge, WriteMergedJsonAssignsShardTidsDeterministically) {
  // Two tracers driven directly (the calling thread owns both), so the
  // multi-shard layout is exercised without depending on scheduling.
  auto Epoch = std::chrono::steady_clock::now();
  obs::Tracer A(obs::Tracer::Sink::Buffer, Epoch);
  obs::Tracer B(obs::Tracer::Sink::Buffer, Epoch);
  A.begin("span-a", "test");
  A.end();
  B.instant("instant-b", "test");
  std::ostringstream OS;
  obs::Tracer::writeMergedJson(OS, {&A, &B});
  std::string Error;
  std::optional<Json> Doc = Json::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error << "\n" << OS.str();
  const Json *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  bool SawA = false, SawB = false;
  for (const Json &E : Events->items()) {
    const Json *Tid = E.get("tid");
    const Json *Name = E.get("name");
    ASSERT_NE(Tid, nullptr);
    if (Name && Name->asString() == "span-a") {
      EXPECT_EQ(Tid->asInt(), 1); // Shard index 0 -> tid 1.
      SawA = true;
    }
    if (Name && Name->asString() == "instant-b") {
      EXPECT_EQ(Tid->asInt(), 2); // Shard index 1 -> tid 2.
      SawB = true;
    }
  }
  EXPECT_TRUE(SawA);
  EXPECT_TRUE(SawB);
}

TEST(ShardMerge, SchedulerTraceIsValidChromeTraceJson) {
  SchedulerOptions SO;
  SO.Workers = 2;
  SO.CollectTraces = true;
  AnalysisScheduler Scheduler(SO);
  for (JobSpec &S : generatedBatch(6))
    Scheduler.submit(std::move(S));
  Scheduler.waitIdle();
  std::ostringstream OS;
  Scheduler.writeMergedTrace(OS);
  std::string Error;
  std::optional<Json> Doc = Json::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const Json *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_FALSE(Events->items().empty());
  for (const Json &E : Events->items()) {
    const Json *Tid = E.get("tid");
    ASSERT_NE(Tid, nullptr);
    // Which worker won each job is scheduling-dependent (on one core a
    // single shard may take everything), but every tid must be a valid
    // shard lane.
    int64_t T = Tid->asInt();
    EXPECT_TRUE(T == 1 || T == 2) << "unexpected tid " << T;
    EXPECT_NE(E.get("ph"), nullptr);
    EXPECT_NE(E.get("ts"), nullptr);
  }
}

// --- Telemetry -----------------------------------------------------------

// The paper's Figure 1 program: a dependable ~10ms analysis under
// logical:affine,uf, used where the test needs a job slow enough to trip
// --slow-ms=1 style thresholds without depending on testdata paths.
const char *Fig1Program = R"(
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
)";

TEST(Protocol, HealthAndTelemetryCommandsParseWithoutDrainPayload) {
  std::string Error;
  std::optional<Request> R = parseRequest("{\"cmd\":\"health\"}", 9, &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->Command, Request::Kind::Health);
  R = parseRequest("{\"cmd\":\"ping\"}", 9, &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->Command, Request::Kind::Health);
  R = parseRequest("{\"cmd\":\"telemetry\"}", 9, &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->Command, Request::Kind::Telemetry);
}

TEST(Protocol, HealthLineShape) {
  std::string Line = healthToJsonLine(4, 2, 17, 123456);
  EXPECT_EQ(Line, "{\"health\":\"ok\",\"workers\":4,\"queue_depth\":2,"
                  "\"jobs_finished\":17,\"uptime_us\":123456}");
}

TEST(Telemetry, SchedulerReportCountsEveryJobAfterDrain) {
  SchedulerOptions SO;
  SO.Workers = 2;
  SO.Telemetry = true;
  AnalysisScheduler Scheduler(SO);
  for (JobSpec &S : generatedBatch(6))
    Scheduler.submit(std::move(S));
  Scheduler.waitIdle();
  // waitIdle() is the hub barrier: after it, every finished job has
  // been recorded, so the live report is deterministic in its counts.
  std::string Line = Scheduler.telemetryJsonLine();
  std::string Error;
  std::optional<Json> J = Json::parse(Line, &Error);
  ASSERT_TRUE(J.has_value()) << Error << "\n" << Line;
  EXPECT_EQ(J->get("jobs_recorded")->asInt(), 6);
  const Json *Phases = J->get("phases");
  ASSERT_NE(Phases, nullptr);
  for (const char *Phase : {"queue_us", "respond_us", "total_us"}) {
    const Json *H = Phases->get(Phase);
    ASSERT_NE(H, nullptr) << Phase;
    EXPECT_EQ(H->get("count")->asInt(), 6) << Phase;
    for (const char *Field : {"count", "sum_us", "min_us", "max_us",
                              "p50_us", "p90_us", "p99_us"})
      ASSERT_NE(H->get(Field), nullptr) << Phase << "." << Field;
  }
  // Parse and analyze ran for each job (no cache hits in a fresh run).
  EXPECT_EQ(Phases->get("parse_us")->get("count")->asInt(), 6);
  EXPECT_EQ(Phases->get("analyze_us")->get("count")->asInt(), 6);
  const Json *Workers = J->get("workers");
  ASSERT_NE(Workers, nullptr);
  EXPECT_EQ(Workers->items().size(), 2u);
  EXPECT_EQ(Scheduler.jobsFinished(), 6u);
  EXPECT_EQ(Scheduler.queueDepth(), 0u);
}

TEST(Telemetry, ResultBytesIdenticalWithTelemetryOnAndOff) {
  // The determinism bar: per-request wall-clock measurement must never
  // leak into the result channel.
  std::vector<JobSpec> Batch = generatedBatch(8);
  auto Run = [&](bool Telemetry) {
    SchedulerOptions SO;
    SO.Workers = 4;
    SO.Telemetry = Telemetry;
    AnalysisScheduler Scheduler(SO);
    for (const JobSpec &S : Batch)
      Scheduler.submit(S);
    Scheduler.waitIdle();
    std::vector<std::string> Lines;
    for (const JobResult &R : Scheduler.takeResults())
      Lines.push_back(resultToJsonLine(R));
    std::sort(Lines.begin(), Lines.end());
    return Lines;
  };
  EXPECT_EQ(Run(false), Run(true));
}

TEST(Telemetry, DisabledHubReportsDisabledAndRecordsNothing) {
  SchedulerOptions SO; // Telemetry defaults off.
  AnalysisScheduler Scheduler(SO);
  for (JobSpec &S : generatedBatch(3))
    Scheduler.submit(std::move(S));
  Scheduler.waitIdle();
  std::optional<Json> J = Json::parse(Scheduler.telemetryJsonLine(), nullptr);
  ASSERT_TRUE(J.has_value());
  EXPECT_FALSE(J->get("enabled")->asBool());
  EXPECT_EQ(J->get("jobs_recorded")->asInt(), 0);
  EXPECT_EQ(Scheduler.jobsFinished(), 3u); // The atomic still counts.
}

TEST(Telemetry, SlowJobDropsAPerfettoLoadableExemplar) {
  namespace fs = std::filesystem;
  fs::path Dir =
      fs::temp_directory_path() / "cai-test-exemplars";
  fs::remove_all(Dir);
  SchedulerOptions SO;
  SO.Workers = 1;
  SO.SlowMs = 1; // Fig1 takes ~10ms; 10x over the threshold.
  SO.ExemplarDir = Dir.string();
  {
    AnalysisScheduler Scheduler(SO);
    JobSpec S = specOf(Fig1Program);
    S.Id = 7;
    S.Name = "fig1";
    Scheduler.submit(std::move(S));
    Scheduler.waitIdle();
    std::optional<Json> J =
        Json::parse(Scheduler.telemetryJsonLine(), nullptr);
    ASSERT_TRUE(J.has_value());
    const Json *Slow = J->get("slow_jobs");
    ASSERT_NE(Slow, nullptr);
    ASSERT_GE(Slow->get("total")->asInt(), 1);
    const Json *Recent = Slow->get("recent");
    ASSERT_NE(Recent, nullptr);
    ASSERT_FALSE(Recent->items().empty());
    EXPECT_EQ(Recent->items()[0].get("id")->asInt(), 7);
    // The exemplar is a loadable Chrome trace naming the slow job's id.
    fs::path Trace = Recent->items()[0].get("trace")->asString();
    ASSERT_TRUE(fs::exists(Trace)) << Trace;
    std::ifstream In(Trace);
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Error;
    std::optional<Json> Doc = Json::parse(Buf.str(), &Error);
    ASSERT_TRUE(Doc.has_value()) << Error;
    const Json *Events = Doc->get("traceEvents");
    ASSERT_NE(Events, nullptr);
    EXPECT_FALSE(Events->items().empty());
  }
  fs::remove_all(Dir);
}


} // namespace
