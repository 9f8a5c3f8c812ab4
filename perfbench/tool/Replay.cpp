//===- perfbench/tool/Replay.cpp - In-process layer-attributed replay ------===//
///
/// `pbtool replay --requests F --warmup F --segments S
///                [--persist-dir D --work DIR] --answers F --trace-out F
///                --out F`
///
/// Replays a workload's request lines in-process through the public entry
/// points cai-serve calls, in its order: parseRequest, fingerprintJob,
/// ResultCache (then PersistStore, then SnapshotCache for edits),
/// parseProgram, Analyzer::run (SnapshotIn for edits), lint::runLint,
/// the cache inserts and persist append, resultToJsonLine.
///
/// Two replays run interleaved request by request over the same S server
/// lifetimes as pbtool drive, each with its own caches and its own copy
/// of the persist store (under DIR):
///
///  * untraced: domains built by service::DomainFactory, no timers;
///  * traced:   the same product built by hand from Timed<> domain
///              classes, which time every lattice operation of the
///              product and of each component, and a span around every
///              entry-point call.
///
/// Frames nest (a component operation inside a product operation inside
/// Analyzer::run inside a request), and each layer's self time is its
/// frames' time minus their child frames'.  The two replays must agree on
/// every answer byte, AnalyzerStats, LatticeStats and registry counter;
/// their wall-time difference is the tracing overhead.
///
/// Output: F(out) holds the per-layer metrics and the counts of both
/// replays; F(answers) the traced replay's response lines; F(trace-out)
/// the spans as Chrome trace_event JSON.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analysis/Analyzer.h"
#include "analysis/Snapshot.h"
#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "lint/Lint.h"
#include "obs/Metrics.h"
#include "persist/PersistStore.h"
#include "product/LogicalProduct.h"
#include "service/DomainFactory.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"
#include "service/SnapshotCache.h"
#include "term/TermContext.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>

using namespace cai;
using namespace cai::service;

namespace pb {
namespace {

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

enum Layer : unsigned {
  LService,
  LPersist,
  LIr,
  LAnalysis,
  LProduct,
  LAffine,
  LPoly,
  LUf,
  LLint,
  NumLayers
};
const char *const LayerNames[NumLayers] = {
    "service", "persist",        "ir",           "analysis",   "product",
    "domains.affine", "domains.poly", "domains.uf", "lint"};

/// Layer self-time accounting plus the span log.  A null Profile pointer
/// everywhere below means "untraced": no clock reads, no records.
struct Profile {
  uint64_t SelfNs[NumLayers] = {};
  uint64_t Ops[NumLayers] = {};
  struct Frame {
    Layer L;
    uint64_t ChildNs;
  };
  std::vector<Frame> Stack;

  struct Event {
    const char *Name;
    Layer L;
    uint64_t StartNs, DurNs, Req;
    std::string Args;
  };
  std::vector<Event> Events;
  uint64_t Epoch = nowNs();
  uint64_t Req = 0;
  /// Total duration and count per span name (entry-point costs).
  std::map<std::string, std::pair<uint64_t, uint64_t>> ByName;
};

/// One layer frame: times its extent and charges it to the layer, minus
/// nested frames.  With \p Name set it is also a recorded span.
class Frame {
public:
  Frame(Profile *P, Layer L, const char *Name = nullptr) : P(P), Name(Name) {
    if (!P)
      return;
    // Ops count entries into a layer, not its calls to itself.
    if (P->Stack.empty() || P->Stack.back().L != L)
      ++P->Ops[L];
    P->Stack.push_back({L, 0});
    T0 = nowNs();
  }
  ~Frame() {
    if (!P)
      return;
    uint64_t D = nowNs() - T0;
    Profile::Frame F = P->Stack.back();
    P->Stack.pop_back();
    P->SelfNs[F.L] += D - F.ChildNs;
    if (!P->Stack.empty())
      P->Stack.back().ChildNs += D;
    if (Name) {
      P->Events.push_back({Name, F.L, T0 - P->Epoch, D, P->Req, Args});
      auto &Acc = P->ByName[Name];
      Acc.first += D;
      ++Acc.second;
    }
  }
  Frame(const Frame &) = delete;
  Frame &operator=(const Frame &) = delete;

  /// Extra "args" JSON members for the span (without braces).
  std::string Args;

private:
  Profile *P;
  const char *Name;
  uint64_t T0 = 0;
};

/// The layer timer: a domain class with every lattice operation wrapped
/// in a frame of its layer.  It subclasses the concrete domain rather than
/// decorating it: the memo tables stay on the one object that both the
/// callers outside and the operations inside consult, so every memo hit
/// and miss happens exactly as without the timer.  (A separate decorator
/// with its own memo splits those tables, and on the session workload it
/// moved about a thousand lookups from hits to misses.)
template <typename Base> class Timed final : public Base {
public:
  template <typename... Args>
  Timed(Profile &P, Layer L, Args &&...A)
      : Base(std::forward<Args>(A)...), P(P), L(L) {}

  Conjunction join(const Conjunction &A, const Conjunction &B) const override {
    Frame F(&P, L);
    return Base::join(A, B);
  }
  Conjunction widen(const Conjunction &Old,
                    const Conjunction &New) const override {
    Frame F(&P, L);
    return Base::widen(Old, New);
  }
  Conjunction meet(const Conjunction &A, const Conjunction &B) const override {
    Frame F(&P, L);
    return Base::meet(A, B);
  }
  Conjunction existQuant(const Conjunction &E,
                         const std::vector<Term> &Vars) const override {
    Frame F(&P, L);
    return Base::existQuant(E, Vars);
  }
  bool entails(const Conjunction &E, const Atom &A) const override {
    Frame F(&P, L);
    return Base::entails(E, A);
  }
  bool isUnsat(const Conjunction &E) const override {
    Frame F(&P, L);
    return Base::isUnsat(E);
  }
  std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const override {
    Frame F(&P, L);
    return Base::impliedVarEqualities(E);
  }
  std::optional<Term> alternate(const Conjunction &E, Term Var,
                                const std::vector<Term> &Avoid) const override {
    Frame F(&P, L);
    return Base::alternate(E, Var, Avoid);
  }
  std::vector<std::pair<Term, Term>>
  alternateBatch(const Conjunction &E,
                 const std::vector<Term> &Targets) const override {
    Frame F(&P, L);
    return Base::alternateBatch(E, Targets);
  }

private:
  Profile &P;
  Layer L;
};

/// The job's lattice: DomainFactory's product when untraced; when traced
/// the same product built by hand from Timed classes.  Supports the
/// `mode:leaf,leaf` specs the workloads use.
class JobDomain {
public:
  JobDomain(TermContext &Ctx, const std::string &Spec, Profile *P)
      : Factory(Ctx) {
    if (!P) {
      Top = Factory.build(Spec);
      if (!Top)
        throw std::runtime_error("bad domain spec: " + Factory.error());
      return;
    }
    size_t Colon = Spec.find(':'), Comma = Spec.find(',');
    if (Colon == std::string::npos || Comma == std::string::npos)
      throw std::runtime_error("traced replay needs a mode:leaf,leaf spec");
    std::string Mode = Spec.substr(0, Colon);
    if (Mode != "logical" && Mode != "reduced")
      throw std::runtime_error("traced replay needs a logical/reduced spec");
    LogicalLattice &First =
        leaf(Ctx, Spec.substr(Colon + 1, Comma - Colon - 1), *P);
    LogicalLattice &Second = leaf(Ctx, Spec.substr(Comma + 1), *P);
    Top = Factory.keep(std::make_unique<Timed<LogicalProduct>>(
        *P, LProduct, Ctx, First, Second,
        Mode == "logical" ? LogicalProduct::Mode::Logical
                          : LogicalProduct::Mode::Reduced));
  }

  LogicalLattice &top() const { return *Top; }

private:
  LogicalLattice &leaf(TermContext &Ctx, const std::string &Name,
                       Profile &P) {
    if (Name == "affine")
      return *Factory.keep(std::make_unique<Timed<AffineDomain>>(P, LAffine, Ctx));
    if (Name == "poly")
      return *Factory.keep(std::make_unique<Timed<PolyDomain>>(P, LPoly, Ctx));
    if (Name == "uf")
      return *Factory.keep(std::make_unique<Timed<UFDomain>>(P, LUf, Ctx));
    throw std::runtime_error("traced replay has no timer for '" + Name + "'");
  }

  DomainFactory Factory;
  LogicalLattice *Top = nullptr;
};

/// Sums of the engine's own counters over the jobs a replay ran.
struct Counts {
  AnalyzerStats An;
  LatticeStats Lat;
  std::map<std::string, uint64_t> Registry;
  uint64_t Jobs = 0, Hits = 0, Misses = 0, PersistHits = 0;
  uint64_t Edits = 0, Fallbacks = 0, Reused = 0, Recomputed = 0;
  uint64_t SnapshotHits = 0, SnapshotMisses = 0, Appends = 0, Replayed = 0;
  uint64_t LintRequests = 0;

  Json toJson() const {
    auto I = [](uint64_t V) { return Json::integer(int64_t(V)); };
    Json J = Json::object();
    J.set("jobs", I(Jobs))
        .set("cache_hits", I(Hits))
        .set("cache_misses", I(Misses))
        .set("persist_hits", I(PersistHits))
        .set("snapshot_hits", I(SnapshotHits))
        .set("snapshot_misses", I(SnapshotMisses))
        .set("edits", I(Edits))
        .set("fallbacks", I(Fallbacks))
        .set("components_reused", I(Reused))
        .set("components_recomputed", I(Recomputed))
        .set("replayed", I(Replayed))
        .set("persist_appends", I(Appends))
        .set("memo_hits", I(An.CacheHits))
        .set("memo_misses", I(An.CacheMisses))
        .set("lattice_memo_hits", I(Lat.CacheHits))
        .set("lattice_memo_misses", I(Lat.CacheMisses))
        .set("saturation_rounds", I(Lat.SaturationRounds))
        .set("node_updates", I(An.TotalNodeUpdates))
        .set("joins", I(An.Joins))
        .set("widenings", I(An.Widenings))
        .set("transfers", I(An.Transfers))
        .set("entailment_checks", I(An.EntailmentChecks))
        .set("edge_evals", I(An.EdgeEvals))
        .set("transfer_cache_hits", I(An.TransferCacheHits));
    Json R = Json::object();
    for (const auto &[Name, V] : Registry)
      R.set(Name, I(V));
    J.set("registry", std::move(R));
    return J;
  }
};

void addStats(AnalyzerStats &Into, const AnalyzerStats &S) {
  Into.Joins += S.Joins;
  Into.Widenings += S.Widenings;
  Into.Transfers += S.Transfers;
  Into.EntailmentChecks += S.EntailmentChecks;
  Into.EdgeEvals += S.EdgeEvals;
  Into.TransferCacheHits += S.TransferCacheHits;
  Into.CacheHits += S.CacheHits;
  Into.CacheMisses += S.CacheMisses;
  Into.SaturationRounds += S.SaturationRounds;
  Into.TotalNodeUpdates += S.TotalNodeUpdates;
}

/// Everything one replay measures: counters, and when traced the layer
/// profile.  Warm-up requests feed a separate tally that is thrown away.
struct Tally {
  Profile Prof;
  obs::MetricsRegistry Registry;
  Counts C;
  uint64_t WallNs = 0;
  uint64_t OpenReplayNs = 0, Opens = 0;
  std::vector<uint64_t> HitNs;
  /// Jobs analyzed from scratch (no cache hit, no snapshot) and their
  /// total time, for the logical-vs-reduced comparison.
  std::vector<JobSpec> ColdSpecs;
  uint64_t ColdJobNs = 0;
};

/// One replay: the state of a cai-serve lifetime (result cache, snapshot
/// cache, optional persist store) plus the tallies.  restart() begins a
/// new lifetime on the same store, as the driven server does.
class Replayer {
public:
  Replayer(bool Traced, std::string PersistDir)
      : Traced(Traced), PersistDir(std::move(PersistDir)) {}

  void restart() {
    Cache = std::make_unique<ResultCache>(64ull << 20);
    Snapshots = std::make_unique<SnapshotCache>(64ull << 20);
    Persist.reset();
    if (PersistDir.empty())
      return;
    obs::MetricsRegistry::install(&Main.Registry);
    uint64_t T0 = nowNs();
    Persist = std::make_unique<persist::PersistStore>(PersistDir, 0);
    std::string Error;
    if (!Persist->open(&Error))
      throw std::runtime_error("persist open: " + Error);
    Main.C.Replayed += Persist->replayInto(*Cache);
    uint64_t D = nowNs() - T0;
    Main.OpenReplayNs += D;
    ++Main.Opens;
    // A lifetime's start is not request time: a span only, so the layer
    // shares stay shares of the requests.
    if (Traced)
      Main.Prof.Events.push_back({"PersistStore::open+replayInto", LPersist,
                                  T0 - Main.Prof.Epoch, D, 0, ""});
    obs::MetricsRegistry::install(nullptr);
  }

  /// Ends a lifetime: the store's pending appends reach the disk.
  void stop() {
    if (Persist)
      Persist->flush();
  }

  /// Handles one request line, returning the response line.
  std::string handle(const std::string &Line, bool Measured) {
    Cur = Measured ? &Main : &Warm;
    obs::MetricsRegistry::install(&Cur->Registry);
    uint64_t T0 = nowNs();
    std::string Out;
    bool Hit = false;
    {
      Frame Req(prof(), LService, "request");
      Out = serve(Line, Hit);
    }
    Cur->WallNs += nowNs() - T0;
    if (Hit && Traced) // The request span just closed is the hit path.
      Cur->HitNs.push_back(Cur->Prof.Events.back().DurNs);
    obs::MetricsRegistry::install(nullptr);
    return Out;
  }

  /// The measured tally, registry counters folded into its counts.
  Tally &result() {
    Main.C.Registry = Main.Registry.counterValues();
    return Main;
  }

  /// Runs \p Spec from scratch, like AnalysisScheduler::runJobIsolated but
  /// on a JobDomain.
  JobResult runJob(const JobSpec &Spec, const std::string &FP,
                   const FixpointSnapshot *SnapIn, FixpointSnapshot *SnapOut) {
    Profile *P = prof();
    Counts &C = Cur->C;
    JobResult R;
    R.Id = Spec.Id;
    R.Name = Spec.Name;
    R.Fingerprint = FP;
    Frame Job(P, LAnalysis, "job");
    uint64_t SelfBefore[NumLayers] = {};
    if (P)
      std::copy(std::begin(P->SelfNs), std::end(P->SelfNs), SelfBefore);
    try {
      if (!Spec.Opts.Encode.empty() || Spec.Opts.TestCrash ||
          Spec.Opts.TimeoutMs != 0)
        throw std::runtime_error("option not supported by the replay");
      TermContext Ctx;
      Ctx.getPredicate("even", 1);
      Ctx.getPredicate("odd", 1);
      Ctx.getPredicate("positive", 1);
      Ctx.getPredicate("negative", 1);
      JobDomain Domain(Ctx, Spec.Opts.DomainSpec, P);
      LogicalLattice &L = Domain.top();
      R.Domain = L.name();

      std::string ParseError;
      std::optional<Program> Prog;
      {
        Frame F(P, LIr, "parseProgram");
        Prog = parseProgram(Ctx, Spec.ProgramText, &ParseError);
      }
      if (!Prog) {
        R.Status = JobStatus::ParseError;
        R.Error = ParseError;
        return R;
      }
      AnalyzerOptions AOpts;
      AOpts.WideningDelay = Spec.Opts.WideningDelay;
      AOpts.NarrowingPasses = Spec.Opts.NarrowingPasses;
      AOpts.SemanticConvergence = Spec.Opts.SemanticConvergence;
      AOpts.Memoize = Spec.Opts.Memoize;
      AOpts.SnapshotIn = SnapIn;
      AOpts.SnapshotOut = SnapOut;
      AnalysisResult AR;
      {
        Frame F(P, LAnalysis, "Analyzer::run");
        AR = Analyzer(L, AOpts).run(*Prog);
      }
      R.Assertions = AR.Assertions;
      R.NumVerified = AR.numVerified();
      R.Stats = AR.Stats;
      if (!AR.Converged) {
        R.Status = JobStatus::NotConverged;
        R.Error = "fixpoint did not converge (MaxUpdatesPerNode exceeded)";
      } else if (R.NumVerified == R.Assertions.size()) {
        R.Status = JobStatus::Verified;
      } else {
        R.Status = JobStatus::AssertionsFailed;
      }
      if (Spec.Opts.Lint && AR.Converged) {
        Frame F(P, LLint, "runLint");
        lint::LintOptions LOpts;
        LOpts.Checks = Spec.Opts.LintChecks;
        R.Findings = lint::runLint(Ctx, *Prog, AR, L, LOpts);
        R.Linted = true;
      }
      ++C.Jobs;
      addStats(C.An, AR.Stats);
      LatticeStats LS = L.statsSnapshot();
      C.Lat.CacheHits += LS.CacheHits;
      C.Lat.CacheMisses += LS.CacheMisses;
      C.Lat.SaturationRounds += LS.SaturationRounds;
    } catch (const std::exception &E) {
      R.Status = JobStatus::Error;
      R.Error = E.what();
    }
    if (P) {
      std::ostringstream Args;
      Args << "\"self_us\":{";
      for (unsigned I = 0; I < NumLayers; ++I)
        Args << (I ? "," : "") << '"' << LayerNames[I]
             << "\":" << (P->SelfNs[I] - SelfBefore[I]) / 1000;
      Args << "}";
      Job.Args = Args.str();
    }
    return R;
  }

private:
  Profile *prof() { return Traced ? &Cur->Prof : nullptr; }

  std::string serve(const std::string &Line, bool &HitOut) {
    Profile *P = prof();
    Counts &C = Cur->C;
    std::string Error;
    std::optional<Request> Parsed;
    {
      Frame F(P, LService, "parseRequest");
      Parsed = parseRequest(Line, NextId, &Error);
    }
    if (!Parsed || Parsed->Command != Request::Kind::Analyze)
      throw std::runtime_error("replay expects analyze requests: " + Line);
    JobSpec Spec = std::move(Parsed->Spec);
    NextId = Spec.Id + 1;
    if (P)
      P->Req = Spec.Id;
    if (Spec.Opts.Lint)
      ++C.LintRequests;

    std::string FP;
    {
      Frame F(P, LService, "fingerprintJob");
      FP = fingerprintJob(Spec);
    }
    std::shared_ptr<const JobResult> Hit;
    {
      Frame F(P, LService, "ResultCache::lookup");
      Hit = Cache->lookup(FP);
    }
    if (!Hit && Persist) {
      Frame F(P, LPersist, "PersistStore::lookup");
      if ((Hit = Persist->lookup(FP))) {
        ++C.PersistHits;
        Cache->insert(FP, Hit);
      }
    }
    JobResult R;
    if (Hit) {
      ++C.Hits;
      R = *Hit;
      R.Id = Spec.Id;
      R.Name = Spec.Name;
      R.CacheHit = true;
      R.DurationMs = 0;
    } else {
      ++C.Misses;
      R = compute(Spec, FP);
    }
    std::string Out;
    {
      Frame F(P, LService, "resultToJsonLine");
      Out = resultToJsonLine(R);
    }
    HitOut = Hit != nullptr;
    return Out;
  }

  JobResult compute(const JobSpec &Spec, const std::string &FP) {
    Profile *P = prof();
    Counts &C = Cur->C;
    const bool Identified = !Spec.ProgramId.empty() || Spec.Edit;
    std::string Canon, OptKey;
    std::shared_ptr<const FixpointSnapshot> SnapIn;
    if (Identified) {
      Frame F(P, LService, "SnapshotCache::lookup");
      Canon = canonicalProgramText(Spec.ProgramText);
      OptKey = optionsFingerprint(Spec.Opts);
      if (Spec.Edit) {
        ++C.Edits;
        SnapIn = Snapshots->lookup(Spec.ProgramId, Canon, OptKey);
        ++(SnapIn ? C.SnapshotHits : C.SnapshotMisses);
      }
    }
    FixpointSnapshot SnapOut;
    uint64_t T0 = nowNs();
    JobResult R =
        runJob(Spec, FP, SnapIn.get(), Identified ? &SnapOut : nullptr);
    if (!SnapIn) {
      Cur->ColdJobNs += nowNs() - T0;
      Cur->ColdSpecs.push_back(Spec);
    }
    if (Identified) {
      C.Reused += R.Stats.ComponentsReused;
      C.Recomputed += R.Stats.ComponentsRecomputed;
      if (Spec.Edit && R.Stats.ComponentsReused == 0)
        ++C.Fallbacks;
    }
    if (!jobCacheable(R.Status))
      return R;
    {
      Frame F(P, LService, "ResultCache::insert");
      Cache->insert(FP, std::make_shared<const JobResult>(R));
    }
    if (Persist) {
      Frame F(P, LPersist, "PersistStore::append");
      Persist->append(R);
      ++C.Appends;
    }
    if (Identified && SnapOut.Complete) {
      Frame F(P, LService, "SnapshotCache::insert");
      Snapshots->insert(Spec.ProgramId, std::move(Canon), std::move(OptKey),
                        std::make_shared<const FixpointSnapshot>(
                            std::move(SnapOut)));
    }
    return R;
  }

  bool Traced;
  std::string PersistDir;
  Tally Main, Warm;
  Tally *Cur = &Main;
  std::unique_ptr<ResultCache> Cache;
  std::unique_ptr<SnapshotCache> Snapshots;
  std::unique_ptr<persist::PersistStore> Persist;
  uint64_t NextId = 0;
};

/// The reduced-product counterpart of a logical spec.
std::string reducedSpec(const std::string &Spec) {
  if (Spec.rfind("logical:", 0) != 0)
    throw std::runtime_error("no reduced counterpart for '" + Spec + "'");
  return "reduced:" + Spec.substr(8);
}

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

void writeTrace(const Profile &P, const std::string &Path) {
  std::ostringstream OS;
  OS << "{\"traceEvents\":[";
  bool First = true;
  for (const Profile::Event &E : P.Events) {
    OS << (First ? "" : ",\n") << "{\"name\":\"" << E.Name << "\",\"cat\":\""
       << LayerNames[E.L] << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << double(E.StartNs) / 1000.0 << ",\"dur\":" << double(E.DurNs) / 1000.0
       << ",\"args\":{\"req\":" << E.Req << (E.Args.empty() ? "" : ",")
       << E.Args << "}}";
    First = false;
  }
  OS << "],\"displayTimeUnit\":\"ms\"}\n";
  writeFile(Path, OS.str());
}

/// Counts two replays must agree on, as one comparable JSON text.
std::string comparable(const Counts &C) { return C.toJson().dump(); }

} // namespace

int cmdReplay(const Flags &F) {
  pinToOneCpu();
  std::vector<std::string> Warmup = readLines(F.get("warmup"));
  std::vector<std::string> Timed = readLines(F.get("requests"));
  const uint64_t Segments = F.num("segments", 1);
  std::string StoreA, StoreB;
  if (F.has("persist-dir")) {
    // Each replay appends to its own copy of the store.
    namespace fs = std::filesystem;
    StoreA = F.get("work") + "/store-untraced";
    StoreB = F.get("work") + "/store-traced";
    for (const std::string &To : {StoreA, StoreB}) {
      fs::remove_all(To);
      fs::copy(F.get("persist-dir"), To, fs::copy_options::recursive);
    }
  }

  // The same lifetimes as pbtool drive; within them the two replays take
  // turns request by request, alternating which goes first so neither
  // always runs on the other's warm processor caches.
  Replayer Untraced(false, StoreA), Traced(true, StoreB);
  bool Same = true;
  std::string Answers;
  for (uint64_t K = 0; K < Segments; ++K) {
    Untraced.restart();
    Traced.restart();
    for (size_t I = K * Warmup.size() / Segments;
         I < (K + 1) * Warmup.size() / Segments; ++I)
      Same &= Untraced.handle(Warmup[I], false) ==
              Traced.handle(Warmup[I], false);
    for (size_t I = K * Timed.size() / Segments;
         I < (K + 1) * Timed.size() / Segments; ++I) {
      std::string A, B;
      if (I % 2 == 0) {
        A = Untraced.handle(Timed[I], true);
        B = Traced.handle(Timed[I], true);
      } else {
        B = Traced.handle(Timed[I], true);
        A = Untraced.handle(Timed[I], true);
      }
      Same &= A == B;
      Answers += B + "\n";
    }
    Untraced.stop();
    Traced.stop();
  }
  writeFile(F.get("answers"), Answers);
  const Tally &TU = Untraced.result();
  const Tally &TT = Traced.result();
  const Counts &CU = TU.C;
  const Counts &CT = TT.C;
  Same &= comparable(CU) == comparable(CT);

  // The logical-vs-reduced cost ratio: every job the untraced replay ran
  // from scratch, run again cold under the reduced product.
  uint64_t ReducedNs = 0;
  {
    Replayer Cold(false, "");
    for (JobSpec Spec : TU.ColdSpecs) {
      Spec.Opts.DomainSpec = reducedSpec(Spec.Opts.DomainSpec);
      uint64_t T0 = nowNs();
      Cold.runJob(Spec, "", nullptr, nullptr);
      ReducedNs += nowNs() - T0;
    }
  }

  const Profile &P = TT.Prof;
  const double N = double(Timed.size());
  uint64_t TotalSelf = 0;
  for (uint64_t S : P.SelfNs)
    TotalSelf += S;
  auto Ms = [&](Layer L) { return double(P.SelfNs[L]) / 1e6 / N; };
  auto Share = [&](Layer L) { return ratio(double(P.SelfNs[L]), TotalSelf); };
  auto Reg = [&](const char *Name) -> double {
    auto It = CT.Registry.find(Name);
    return It == CT.Registry.end() ? 0.0 : double(It->second);
  };
  auto SpanUs = [&](const char *Name) {
    auto It = P.ByName.find(Name);
    return It == P.ByName.end() ? 0.0 : double(It->second.first) / 1000.0;
  };
  auto SpanCount = [&](const char *Name) {
    auto It = P.ByName.find(Name);
    return It == P.ByName.end() ? 0.0 : double(It->second.second);
  };
  std::vector<uint64_t> Hits = TT.HitNs;
  std::sort(Hits.begin(), Hits.end());
  double HitP50 = Hits.empty() ? 0.0 : double(Hits[Hits.size() / 2]) / 1000.0;

  Json M = Json::object();
  auto Set = [&](const std::string &Name, double V) {
    M.set(Name, Json::number(V));
  };
  for (Layer L : {LAffine, LPoly, LUf}) {
    std::string Base = LayerNames[L];
    Set(Base + ".ms_per_req", Ms(L));
    Set(Base + ".ops_per_req", double(P.Ops[L]) / N);
    Set(Base + ".share", Share(L));
  }
  Set("domains.poly.simplex_solves_per_req", Reg("simplex.solves") / N);
  Set("domains.poly.simplex_pivots_per_req", Reg("simplex.pivots") / N);
  Set("domains.poly.lp_cache_hit_ratio",
      ratio(Reg("simplex.cache.hits"),
            Reg("simplex.cache.hits") + Reg("simplex.cache.misses")));
  Set("domains.poly.havoc_events", Reg("poly.havoc.events"));
  Set("domains.uf.cc_propagations_per_req",
      Reg("congruence_closure.propagations") / N);
  Set("product.self_ms_per_req", Ms(LProduct));
  Set("product.ops_per_req", double(P.Ops[LProduct]) / N);
  Set("product.share", Share(LProduct));
  Set("product.saturation_rounds_per_req", double(CT.Lat.SaturationRounds) / N);
  Set("product.purify_hit_ratio",
      ratio(Reg("product.purify_saturate.cache_hits"),
            Reg("product.purify_saturate.cache_hits") +
                Reg("product.purify_saturate.misses")));
  Set("product.logical_over_reduced",
      ratio(double(TU.ColdJobNs), double(ReducedNs)));
  Set("theory.memo_hit_ratio",
      ratio(double(CT.Lat.CacheHits),
            double(CT.Lat.CacheHits + CT.Lat.CacheMisses)));
  Set("theory.memo_lookups_per_req",
      double(CT.Lat.CacheHits + CT.Lat.CacheMisses) / N);
  Set("analysis.self_ms_per_req", Ms(LAnalysis));
  Set("analysis.share", Share(LAnalysis));
  Set("analysis.node_updates_per_req", double(CT.An.TotalNodeUpdates) / N);
  Set("analysis.joins_per_req", double(CT.An.Joins) / N);
  Set("analysis.widenings_per_req", double(CT.An.Widenings) / N);
  Set("analysis.edge_evals_per_req", double(CT.An.EdgeEvals) / N);
  Set("analysis.transfer_cache_hit_ratio",
      ratio(double(CT.An.TransferCacheHits), double(CT.An.EdgeEvals)));
  Set("ir.parse_us_per_req", double(P.SelfNs[LIr]) / 1000.0 / N);
  Set("ir.share", Share(LIr));
  Set("lint.ms_per_req",
      ratio(double(P.SelfNs[LLint]) / 1e6, double(CT.LintRequests)));
  Set("lint.share", Share(LLint));
  Set("service.self_ms_per_req", Ms(LService));
  Set("service.share", Share(LService));
  Set("service.protocol_us_per_req",
      (SpanUs("parseRequest") + SpanUs("resultToJsonLine")) / N);
  Set("service.fingerprint_us_per_req", SpanUs("fingerprintJob") / N);
  Set("service.hit_us_p50", HitP50);
  Set("service.result_cache_hit_ratio",
      ratio(double(CT.Hits), double(CT.Hits + CT.Misses)));
  Set("service.snapshot_reuse_ratio",
      ratio(double(CT.Reused), double(CT.Reused + CT.Recomputed)));
  Set("service.edit_fallbacks", double(CT.Fallbacks));
  Set("persist.open_replay_ms",
      ratio(double(TT.OpenReplayNs) / 1e6, double(TT.Opens)));
  Set("persist.replayed_records", double(CT.Replayed));
  Set("persist.append_us_per_write",
      ratio(SpanUs("PersistStore::append"), SpanCount("PersistStore::append")));
  Set("persist.share", Share(LPersist));
  Set("trace.total_ms_per_req", double(TT.WallNs) / 1e6 / N);
  Set("trace.overhead_frac",
      ratio(double(TT.WallNs) - double(TU.WallNs), double(TU.WallNs)));

  writeTrace(P, F.get("trace-out"));
  Json Out = Json::object();
  Out.set("same", Json::boolean(Same))
      .set("metrics", std::move(M))
      .set("untraced", CU.toJson())
      .set("traced", CT.toJson())
      .set("untraced_wall_ns", Json::integer(int64_t(TU.WallNs)))
      .set("traced_wall_ns", Json::integer(int64_t(TT.WallNs)));
  writeFile(F.get("out"), Out.dump() + "\n");
  return Same ? 0 : 1;
}

} // namespace pb
