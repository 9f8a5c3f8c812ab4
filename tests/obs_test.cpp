//===- tests/obs_test.cpp - The observability layer ------------------------===//
///
/// \file
/// Tests for obs/: the trace JSON artifact is structurally valid and its
/// spans nest; the metrics registry agrees with the analyzer's own
/// counters; tracing does not perturb analysis results; the
/// precision-provenance recorder pins a failed assertion to the exact
/// lattice step that dropped the needed fact; latency-histogram
/// percentiles match a sorted-vector oracle and shard merges are
/// bucket-exact; the event log rate-limits deterministically; and the
/// Prometheus exposition is well-formed.
///
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "service/Json.h"

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "product/LogicalProduct.h"
#include "term/Printer.h"

#include "TestUtil.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

using namespace cai;

namespace {

/// A minimal recursive-descent JSON validator: accepts exactly the JSON
/// grammar (objects, arrays, strings with escapes, numbers, true/false/
/// null).  Enough to assert the trace artifact would load in a real
/// viewer without depending on one.
class JsonValidator {
public:
  explicit JsonValidator(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    return value() && (skipWs(), Pos == S.size());
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return Pos < S.size() && S[Pos] == '}' ? (++Pos, true) : false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return Pos < S.size() && S[Pos] == ']' ? (++Pos, true) : false;
    }
  }

  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    return Pos < S.size() ? (++Pos, true) : false;
  }

  bool number() {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && (std::isdigit(S[Pos]) || S[Pos] == '.' ||
                              S[Pos] == 'e' || S[Pos] == 'E' ||
                              S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (S.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  const std::string &S;
  size_t Pos = 0;
};

size_t countOccurrences(const std::string &Haystack, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++N;
  return N;
}

class ObsTest : public ::testing::Test {
protected:
  Program parse(const std::string &Source) {
    std::string Error;
    std::optional<Program> P = parseProgram(Ctx, Source, &Error);
    EXPECT_TRUE(P) << Error;
    return P ? *P : Program();
  }

  ~ObsTest() override {
    // Never leak a process-global installation into the next test.
    obs::Tracer::install(nullptr);
    obs::ProvenanceRecorder::install(nullptr);
  }

  /// A loop plus a branch: exercises joins, widening, transfers, and the
  /// WTO component span.
  static constexpr const char *LoopSource =
      "x := 0; y := F(x);"
      "while (x <= 20) { x := x + 1; }"
      "if (*) { z := 1; } else { z := 2; }"
      "assert(x = 21); assert(y = F(0));";

  TermContext Ctx;
  AffineDomain Affine{Ctx};
  PolyDomain Poly{Ctx};
  UFDomain UF{Ctx};
  LogicalProduct Product{Ctx, Affine, UF, LogicalProduct::Mode::Logical};
};

} // namespace

//===----------------------------------------------------------------------===//
// Trace artifact
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, TraceJsonIsWellFormedAndSpansNest) {
  obs::Tracer Tracer;
  obs::Tracer::install(&Tracer);
  AnalysisResult R = Analyzer(Product).run(parse(LoopSource));
  obs::Tracer::install(nullptr);

  EXPECT_TRUE(R.Converged);
  EXPECT_GT(Tracer.numEvents(), 10u);
  // Every span opened by the run was closed by its RAII guard.
  EXPECT_EQ(Tracer.depth(), 0u);

  std::ostringstream OS;
  Tracer.writeJson(OS);
  std::string Json = OS.str();

  EXPECT_TRUE(JsonValidator(Json).valid()) << Json.substr(0, 200);

  // trace_event essentials a viewer needs.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(Json.find("\"pid\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\""), std::string::npos);

  // Balanced duration events: every "B" has its "E".
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"B\""),
            countOccurrences(Json, "\"ph\":\"E\""));

  // The spans the cost model cares about all fired, and nest under the
  // run-level span (analyzer.run is first).
  EXPECT_NE(Json.find("\"name\":\"analyzer.run\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"wto.component-iteration\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"edge.transfer\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"product.join\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"no.saturate\""), std::string::npos);
  size_t FirstB = Json.find("\"ph\":\"B\"");
  size_t RunSpan = Json.find("\"name\":\"analyzer.run\"");
  EXPECT_NE(FirstB, std::string::npos);
  // analyzer.run is the outermost span: its B event is the first event.
  EXPECT_LT(RunSpan, Json.find("\"ph\":\"B\"", FirstB + 1));
}

TEST_F(ObsTest, WriteJsonClosesUnfinishedSpans) {
  obs::Tracer Tracer;
  Tracer.begin("outer", "t");
  Tracer.begin("inner", "t");
  Tracer.end();
  // "outer" still open: the writer must close it so the artifact loads.
  std::ostringstream OS;
  Tracer.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_TRUE(JsonValidator(Json).valid());
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"B\""),
            countOccurrences(Json, "\"ph\":\"E\""));
}

TEST_F(ObsTest, DiscardSinkBuffersNothing) {
  obs::Tracer Tracer(obs::Tracer::Sink::Discard);
  obs::Tracer::install(&Tracer);
  Analyzer(Product).run(parse(LoopSource));
  obs::Tracer::install(nullptr);
  EXPECT_EQ(Tracer.numEvents(), 0u);
  EXPECT_EQ(Tracer.depth(), 0u);
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, RegistryCountersMatchAnalyzerStats) {
  // Early widening so the widening counter provably moves on this program.
  AnalyzerOptions O;
  O.WideningDelay = 1;
  auto Before = obs::MetricsRegistry::global().counterValues();
  AnalysisResult R = Analyzer(Product, O).run(parse(LoopSource));
  auto After = obs::MetricsRegistry::global().counterValues();

  auto Delta = [&](const std::string &Name) -> uint64_t {
    auto B = Before.find(Name);
    auto A = After.find(Name);
    return (A == After.end() ? 0 : A->second) -
           (B == Before.end() ? 0 : B->second);
  };

  EXPECT_EQ(Delta("analyzer.runs"), 1u);
  EXPECT_EQ(Delta("analyzer.joins"), R.Stats.Joins);
  EXPECT_EQ(Delta("analyzer.widenings"), R.Stats.Widenings);
  EXPECT_EQ(Delta("analyzer.transfers"), R.Stats.Transfers);
  EXPECT_EQ(Delta("analyzer.edge_evals"), R.Stats.EdgeEvals);
  EXPECT_EQ(Delta("analyzer.entailment_checks"), R.Stats.EntailmentChecks);
  EXPECT_EQ(Delta("analyzer.node_updates"), R.Stats.TotalNodeUpdates);
  EXPECT_EQ(Delta("analyzer.transfer_cache.hits"), R.Stats.TransferCacheHits);
  EXPECT_EQ(Delta("lattice.cache.hits"), R.Stats.CacheHits);
  EXPECT_EQ(Delta("lattice.cache.misses"), R.Stats.CacheMisses);
  EXPECT_EQ(Delta("lattice.saturation_rounds"), R.Stats.SaturationRounds);
  // The engine exercised a loop, so the interesting counters moved.
  EXPECT_GT(R.Stats.Joins, 0u);
  EXPECT_GT(R.Stats.Widenings, 0u);
}

TEST_F(ObsTest, MetricsJsonIsWellFormed) {
  // Touch a histogram and a gauge so every metric kind is exported.
  obs::MetricsRegistry::global().histogram("obs_test.hist").record(3.5);
  obs::MetricsRegistry::global().gauge("obs_test.gauge").set(2.5);
  Analyzer(Product).run(parse(LoopSource));
  std::ostringstream OS;
  obs::MetricsRegistry::global().writeJson(OS);
  EXPECT_TRUE(JsonValidator(OS.str()).valid()) << OS.str().substr(0, 200);
}

TEST_F(ObsTest, TextExportIsSortedAndRepeatable) {
  Analyzer(Product).run(parse(LoopSource));
  std::ostringstream A, B;
  obs::MetricsRegistry::global().writeText(A);
  obs::MetricsRegistry::global().writeText(B);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_NE(A.str().find("analyzer.joins = "), std::string::npos);
}

TEST_F(ObsTest, TextExportListsOnlyRecordedHistograms) {
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.histogram("obs_test.text_hist");
  R.latency("obs_test.text_latency");
  std::ostringstream Before;
  R.writeText(Before);
  EXPECT_EQ(Before.str().find("obs_test.text_hist"), std::string::npos);
  EXPECT_EQ(Before.str().find("obs_test.text_latency"), std::string::npos);
  R.histogram("obs_test.text_hist").record(2.0);
  R.latency("obs_test.text_latency").record(7);
  std::ostringstream After;
  R.writeText(After);
  EXPECT_NE(After.str().find("obs_test.text_hist = {count 1"),
            std::string::npos);
  EXPECT_NE(After.str().find("obs_test.text_latency = {count 1"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tracing does not perturb results
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, TracerOnOffResultsIdentical) {
  Program P = parse(LoopSource);

  AnalysisResult Plain = Analyzer(Product).run(P);

  obs::Tracer Buffered;
  obs::Tracer::install(&Buffered);
  AnalysisResult Traced = Analyzer(Product).run(P);
  obs::Tracer::install(nullptr);

  obs::Tracer Null(obs::Tracer::Sink::Discard);
  obs::Tracer::install(&Null);
  AnalysisResult NullTraced = Analyzer(Product).run(P);
  obs::Tracer::install(nullptr);

  for (const AnalysisResult *R : {&Traced, &NullTraced}) {
    ASSERT_EQ(R->Invariants.size(), Plain.Invariants.size());
    for (size_t I = 0; I < Plain.Invariants.size(); ++I)
      EXPECT_EQ(R->Invariants[I], Plain.Invariants[I]) << "node " << I;
    ASSERT_EQ(R->Assertions.size(), Plain.Assertions.size());
    for (size_t I = 0; I < Plain.Assertions.size(); ++I)
      EXPECT_EQ(R->Assertions[I].Verified, Plain.Assertions[I].Verified);
    EXPECT_EQ(R->Converged, Plain.Converged);
  }
}

//===----------------------------------------------------------------------===//
// Precision provenance
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, ExplainNamesTheJoinThatDroppedTheFact) {
  // x = 2 holds on the then-branch and dies at the confluence join.
  Program P = parse("if (*) { x := 2; } else { x := 3; } assert(x = 2);");

  obs::ProvenanceRecorder Recorder;
  obs::ProvenanceRecorder::install(&Recorder);
  AnalysisResult R = Analyzer(Product).run(P);
  obs::ProvenanceRecorder::install(nullptr);

  ASSERT_EQ(R.Assertions.size(), 1u);
  EXPECT_FALSE(R.Assertions[0].Verified);

  // Some step recorded the loss of the x = 2 conjunct.
  bool FoundLoss = false;
  for (const auto &E : Recorder.events()) {
    std::string Atom = toString(Ctx, E.Lost);
    if (Atom.find("2") != std::string::npos &&
        Atom.find("x") != std::string::npos &&
        (E.Kind == obs::ProvenanceRecorder::Step::Join ||
         E.Kind == obs::ProvenanceRecorder::Step::ComponentJoin))
      FoundLoss = true;
  }
  EXPECT_TRUE(FoundLoss);

  const Assertion &A = P.assertions()[0];
  std::string Text = Recorder.explain(Ctx, A.Node, A.Fact);
  ASSERT_FALSE(Text.empty());
  EXPECT_NE(Text.find("join"), std::string::npos) << Text;
  EXPECT_NE(Text.find("dropped"), std::string::npos) << Text;
  // The responsible component domain is named.
  EXPECT_NE(Text.find("domain:"), std::string::npos) << Text;
}

TEST_F(ObsTest, ExplainNamesTheWideningThatDroppedTheBound) {
  // y <= 3 survives the first joins and dies at the widening step (the
  // loop has no exit test, so narrowing cannot recover the bound).
  Program P = parse("y := 0; while (*) { y := y + 1; } assert(y <= 3);");

  obs::ProvenanceRecorder Recorder;
  obs::ProvenanceRecorder::install(&Recorder);
  AnalysisResult R = Analyzer(Poly).run(P);
  obs::ProvenanceRecorder::install(nullptr);

  ASSERT_EQ(R.Assertions.size(), 1u);
  EXPECT_FALSE(R.Assertions[0].Verified);

  bool WidenLoss = false;
  for (const auto &E : Recorder.events())
    if (E.Kind == obs::ProvenanceRecorder::Step::Widen ||
        E.Kind == obs::ProvenanceRecorder::Step::ComponentWiden)
      WidenLoss = true;
  EXPECT_TRUE(WidenLoss);

  const Assertion &A = P.assertions()[0];
  std::string Text = Recorder.explain(Ctx, A.Node, A.Fact);
  EXPECT_NE(Text.find("widening"), std::string::npos) << Text;
}

TEST_F(ObsTest, NoRecorderNoCost) {
  // With no recorder installed the engine must not record anything (and
  // results are the baseline -- covered by TracerOnOffResultsIdentical).
  EXPECT_EQ(obs::ProvenanceRecorder::active(), nullptr);
  Program P = parse("x := 1; assert(x = 1);");
  AnalysisResult R = Analyzer(Product).run(P);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

// --- Latency histograms --------------------------------------------------

TEST(LatencyHistogram, BucketBoundsTileTheRangeWithoutGaps) {
  using H = obs::LatencyHistogram;
  // Consecutive buckets share a boundary, and both endpoints of every
  // bucket map back to that bucket's index.
  for (unsigned I = 0; I + 1 < H::NumBuckets; ++I) {
    ASSERT_EQ(H::bucketUpperBound(I), H::bucketLowerBound(I + 1)) << I;
    ASSERT_EQ(H::bucketIndex(H::bucketLowerBound(I)), I);
    ASSERT_EQ(H::bucketIndex(H::bucketUpperBound(I) - 1), I);
  }
  // The last bucket clamps: anything representable lands inside it.
  EXPECT_EQ(H::bucketIndex(UINT64_MAX), H::NumBuckets - 1);
  EXPECT_EQ(H::bucketUpperBound(H::NumBuckets - 1), UINT64_MAX);
}

TEST(LatencyHistogram, RelativeErrorBoundedByBucketWidth) {
  using H = obs::LatencyHistogram;
  // 8 sub-buckets per octave: the bucket width is at most 1/8 of the
  // value's leading power of two, so the lower bound under-reports a
  // contained value by less than 12.5%.
  for (uint64_t Us : {9ull, 100ull, 1000ull, 12345ull, 999999ull,
                      1ull << 30, (1ull << 35) + 12345}) {
    unsigned I = H::bucketIndex(Us);
    uint64_t Lo = H::bucketLowerBound(I);
    ASSERT_LE(Lo, Us);
    EXPECT_LT(static_cast<double>(Us - Lo), 0.125 * static_cast<double>(Us))
        << Us;
  }
}

TEST(LatencyHistogram, PercentileMatchesSortedVectorOracle) {
  using H = obs::LatencyHistogram;
  // Property: on any sample set, percentile(Q) falls in the same bucket
  // as the exact nearest-rank answer from a sorted vector, and within
  // [min, max].  Seeded, so failures reproduce.
  std::mt19937_64 Rng(0xC0FFEE);
  for (int Round = 0; Round < 20; ++Round) {
    H Hist;
    std::vector<uint64_t> Samples;
    size_t N = 1 + Rng() % 2000;
    for (size_t I = 0; I < N; ++I) {
      // Mixture: mostly microsecond-scale, a long tail up to ~minutes.
      uint64_t Us = (Rng() % 3 == 0) ? Rng() % (60u * 1000 * 1000)
                                     : Rng() % 5000;
      Samples.push_back(Us);
      Hist.record(Us);
    }
    std::sort(Samples.begin(), Samples.end());
    for (double Q : {0.5, 0.9, 0.99, 1.0}) {
      size_t Rank = static_cast<size_t>(
          std::ceil(Q * static_cast<double>(N)));
      if (Rank < 1)
        Rank = 1;
      uint64_t Exact = Samples[Rank - 1];
      uint64_t Approx = Hist.percentile(Q);
      EXPECT_EQ(H::bucketIndex(Approx), H::bucketIndex(Exact))
          << "Q=" << Q << " N=" << N << " exact=" << Exact
          << " approx=" << Approx;
      EXPECT_GE(Approx, Hist.min());
      EXPECT_LE(Approx, Hist.max());
    }
  }
}

TEST(LatencyHistogram, MergeOverShardsIsBucketExact) {
  using H = obs::LatencyHistogram;
  // Property: merging N shard histograms is indistinguishable from one
  // histogram that saw every sample -- bucket by bucket, not just in
  // aggregate.
  std::mt19937_64 Rng(42);
  for (unsigned Shards : {2u, 3u, 8u}) {
    std::vector<H> Parts(Shards);
    H Whole;
    for (int I = 0; I < 5000; ++I) {
      uint64_t Us = Rng() % (1ull << (Rng() % 40));
      Parts[Rng() % Shards].record(Us);
      Whole.record(Us);
    }
    H Merged;
    for (const H &P : Parts)
      Merged.merge(P);
    EXPECT_EQ(Merged.count(), Whole.count());
    EXPECT_EQ(Merged.sum(), Whole.sum());
    EXPECT_EQ(Merged.min(), Whole.min());
    EXPECT_EQ(Merged.max(), Whole.max());
    for (unsigned B = 0; B < H::NumBuckets; ++B)
      ASSERT_EQ(Merged.bucket(B), Whole.bucket(B)) << "bucket " << B;
    for (double Q : {0.5, 0.9, 0.99})
      EXPECT_EQ(Merged.percentile(Q), Whole.percentile(Q)) << Q;
  }
}

TEST(LatencyHistogram, RegistryMergeFoldsLatenciesAcrossShards) {
  // The registry-level property the scheduler relies on: mergeFrom over
  // N shard registries equals one registry that saw everything, for
  // counters AND latency histograms.
  std::mt19937_64 Rng(7);
  constexpr unsigned Shards = 4;
  obs::MetricsRegistry Parts[Shards];
  obs::MetricsRegistry Whole;
  for (int I = 0; I < 1000; ++I) {
    unsigned S = Rng() % Shards;
    uint64_t Us = Rng() % 100000;
    Parts[S].latency("req.total_us").record(Us);
    Whole.latency("req.total_us").record(Us);
    Parts[S].counter("req.count").inc();
    Whole.counter("req.count").inc();
  }
  obs::MetricsRegistry Merged;
  for (obs::MetricsRegistry &P : Parts)
    Merged.mergeFrom(P);
  EXPECT_EQ(Merged.counter("req.count").value(),
            Whole.counter("req.count").value());
  const obs::LatencyHistogram *M = Merged.findLatency("req.total_us");
  const obs::LatencyHistogram *W = Whole.findLatency("req.total_us");
  ASSERT_NE(M, nullptr);
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(M->count(), W->count());
  EXPECT_EQ(M->sum(), W->sum());
  for (unsigned B = 0; B < obs::LatencyHistogram::NumBuckets; ++B)
    ASSERT_EQ(M->bucket(B), W->bucket(B)) << "bucket " << B;
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_EQ(M->percentile(Q), W->percentile(Q)) << Q;
}

// --- Event log -----------------------------------------------------------

TEST(EventLog, LinesAreValidJsonWithMonotonicSequence) {
  obs::EventLog &Log = obs::EventLog::global();
  Log.resetForTest();
  std::ostringstream OS;
  Log.open(&OS);
  EXPECT_TRUE(Log.enabled());
  Log.emit(obs::Severity::Info, "test.component", "started",
           {obs::EventField::str("name", "a\"b\\c\n"),
            obs::EventField::num("bytes", 1234)});
  Log.emit(obs::Severity::Error, "test.component", "failed");
  Log.open(nullptr);
  EXPECT_FALSE(Log.enabled());

  std::istringstream In(OS.str());
  std::string Line;
  int64_t LastSeq = 0;
  int Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(JsonValidator(Line).valid()) << Line;
    std::string Error;
    std::optional<service::Json> J = service::Json::parse(Line, &Error);
    ASSERT_TRUE(J.has_value()) << Error;
    const service::Json *Seq = J->get("seq");
    ASSERT_NE(Seq, nullptr);
    EXPECT_GT(Seq->asInt(), LastSeq); // Strictly monotonic, file order.
    LastSeq = Seq->asInt();
    ASSERT_NE(J->get("ts_us"), nullptr);
    ASSERT_NE(J->get("severity"), nullptr);
    ASSERT_NE(J->get("component"), nullptr);
    ASSERT_NE(J->get("event"), nullptr);
  }
  EXPECT_EQ(Lines, 2);
  EXPECT_EQ(Log.stats().Emitted, 2u);
  Log.resetForTest();
}

TEST(EventLog, DisabledEmitIsANoOp) {
  obs::EventLog &Log = obs::EventLog::global();
  Log.resetForTest();
  EXPECT_FALSE(Log.enabled());
  Log.emit(obs::Severity::Warn, "c", "e"); // Must not crash, must not count.
  EXPECT_EQ(Log.stats().Emitted, 0u);
  EXPECT_EQ(Log.stats().Suppressed, 0u);
}

TEST(EventLog, RateLimitKeepsBurstThenPowersOfTwo) {
  obs::EventLog &Log = obs::EventLog::global();
  Log.resetForTest();
  std::ostringstream OS;
  Log.open(&OS);
  for (int I = 0; I < 100; ++I)
    Log.emit(obs::Severity::Info, "cache", "evict",
             {obs::EventField::num("n", static_cast<uint64_t>(I))});
  // A different key is not affected by the first key's suppression.
  Log.emit(obs::Severity::Info, "cache", "other");
  Log.open(nullptr);

  // Occurrences 1..5 verbatim, then 8, 16, 32, 64 with a repeats field:
  // 9 lines for the hot key, plus 1 for the fresh key.
  std::istringstream In(OS.str());
  std::string Line;
  int EvictLines = 0, RepeatLines = 0, OtherLines = 0;
  while (std::getline(In, Line)) {
    std::optional<service::Json> J = service::Json::parse(Line, nullptr);
    ASSERT_TRUE(J.has_value()) << Line;
    if (J->get("event")->asString() == "evict") {
      ++EvictLines;
      if (J->get("repeats"))
        ++RepeatLines;
    } else {
      ++OtherLines;
    }
  }
  EXPECT_EQ(EvictLines, 9);
  EXPECT_EQ(RepeatLines, 4); // 8, 16, 32, 64
  EXPECT_EQ(OtherLines, 1);
  EXPECT_EQ(Log.stats().Emitted, 10u);
  EXPECT_EQ(Log.stats().Suppressed, 91u);
  Log.resetForTest();
}

// --- Prometheus exposition -----------------------------------------------

TEST(Metrics, PrometheusExpositionIsWellFormed) {
  obs::MetricsRegistry R;
  R.counter("analyzer.joins").inc(5);
  R.gauge("cache.bytes").set(1234);
  for (uint64_t Us : {3u, 90u, 1500u, 70000u})
    R.latency("req.total_us").record(Us);
  std::ostringstream OS;
  R.writePrometheus(OS);
  std::string Text = OS.str();

  EXPECT_NE(Text.find("# HELP cai_analyzer_joins"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE cai_analyzer_joins counter"),
            std::string::npos);
  EXPECT_NE(Text.find("cai_analyzer_joins 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE cai_cache_bytes gauge"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE cai_req_total_us histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("cai_req_total_us_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(Text.find("cai_req_total_us_count 4"), std::string::npos);

  // Bucket counts are cumulative: extract every le bucket value in
  // order and check monotonicity.
  std::istringstream In(Text);
  std::string Line;
  uint64_t Prev = 0;
  int BucketLines = 0;
  while (std::getline(In, Line)) {
    if (Line.rfind("cai_req_total_us_bucket", 0) != 0)
      continue;
    ++BucketLines;
    uint64_t V = std::stoull(Line.substr(Line.rfind(' ') + 1));
    EXPECT_GE(V, Prev) << Line;
    Prev = V;
  }
  EXPECT_GE(BucketLines, 5); // 4 distinct buckets + the +Inf line.
  EXPECT_EQ(Prev, 4u);       // +Inf bucket equals the sample count.
}
