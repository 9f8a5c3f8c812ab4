//===- service/Job.cpp - The analysis job pipeline ------------------------===//

#include "service/Job.h"

#include "domains/poly/Polyhedron.h"
#include "encodings/Encodings.h"
#include "ir/ProgramParser.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "service/Telemetry.h"

#include <optional>
#include <stdexcept>

using namespace cai;
using namespace cai::service;

const char *cai::service::statusName(JobStatus S) {
  switch (S) {
  case JobStatus::Verified:
    return "verified";
  case JobStatus::AssertionsFailed:
    return "assertions-failed";
  case JobStatus::NotConverged:
    return "not-converged";
  case JobStatus::ParseError:
    return "parse-error";
  case JobStatus::BadDomain:
    return "bad-domain";
  case JobStatus::Timeout:
    return "timeout";
  case JobStatus::Error:
    return "error";
  }
  return "error";
}

bool cai::service::statusFromName(const std::string &Name, JobStatus *S) {
  static const JobStatus All[] = {
      JobStatus::Verified, JobStatus::AssertionsFailed,
      JobStatus::NotConverged, JobStatus::ParseError,
      JobStatus::BadDomain, JobStatus::Timeout,
      JobStatus::Error,
  };
  for (JobStatus Candidate : All)
    if (Name == statusName(Candidate)) {
      *S = Candidate;
      return true;
    }
  return false;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Scopes the polyhedra row cap (a thread-local, so per-worker) to one job.
/// PolyMaxRows == SIZE_MAX keeps the build-wide default.
struct RowCapScope {
  explicit RowCapScope(size_t Cap) : Prev(polyRowCap()) {
    if (Cap != SIZE_MAX)
      setPolyRowCap(Cap);
  }
  ~RowCapScope() { setPolyRowCap(Prev); }
  size_t Prev;
};

/// Installs a tracer and a provenance recorder, where given, for one scope
/// and puts back the ones installed before.
struct ObserverScope {
  ObserverScope(obs::Tracer *T, obs::ProvenanceRecorder *R)
      : PrevT(obs::Tracer::active()),
        PrevR(obs::ProvenanceRecorder::active()) {
    obs::Tracer::install(T ? T : PrevT);
    obs::ProvenanceRecorder::install(R ? R : PrevR);
  }
  ~ObserverScope() {
    obs::Tracer::install(PrevT);
    obs::ProvenanceRecorder::install(PrevR);
  }
  obs::Tracer *PrevT;
  obs::ProvenanceRecorder *PrevR;
};

} // namespace

void cai::service::runJob(const JobSpec &Spec, const JobHooks &Hooks,
                          JobRun &Run) {
  const JobOptions &O = Spec.Opts;
  JobResult &R = Run.Result;
  R.Id = Spec.Id;
  R.Name = Spec.Name;
  R.Fingerprint = Hooks.Fingerprint;
  LifecycleSample *LS = Hooks.Phases;
  Clock::time_point Begin = Clock::now();
  try {
    if (O.TestCrash)
      throw std::runtime_error("deliberate crash (TestCrash test hook)");
    if (!O.Encode.empty() && O.Encode != "comm" && O.Encode != "arity") {
      R.Status = JobStatus::BadDomain;
      R.Error = "unknown encode '" + O.Encode + "'";
      return;
    }

    TermContext &Ctx = Run.Ctx;
    LogicalLattice *Domain = Run.Factory.build(O.DomainSpec);
    if (!Domain) {
      R.Status = JobStatus::BadDomain;
      R.Error = Run.Factory.error();
      return;
    }
    if (Hooks.Decorate)
      Domain = Hooks.Decorate(Run.Factory, *Domain);
    Run.Domain = Domain;
    R.Domain = Domain->name();

    // Phase timing is telemetry-only: clock reads happen solely when a
    // LifecycleSample asks for them.
    Clock::time_point Phase = LS ? Clock::now() : Clock::time_point();
    std::string ParseError;
    std::optional<Program> P =
        parseProgram(Ctx, Spec.ProgramText, &ParseError);
    if (!P) {
      R.Status = JobStatus::ParseError;
      R.Error = ParseError;
      return;
    }
    Run.Prog = std::move(*P);
    if (!O.Encode.empty())
      Run.Prog = TermEncoder(Ctx, O.Encode == "comm"
                                      ? TermEncoder::Scheme::Commutative
                                      : TermEncoder::Scheme::ArityReduction)
                     .encode(Run.Prog);
    if (LS) {
      LS->ParseUs = microsSince(Phase);
      LS->HasParse = true;
    }

    AnalyzerOptions AOpts;
    AOpts.WideningDelay = O.WideningDelay;
    AOpts.NarrowingPasses = O.NarrowingPasses;
    AOpts.SemanticConvergence = O.SemanticConvergence;
    AOpts.Memoize = O.Memoize;
    AOpts.SnapshotIn = Hooks.SnapIn;
    AOpts.SnapshotOut = Hooks.SnapOut;
    AOpts.CancelFlag = Hooks.Cancel;
    // A budget past the clock's range is no deadline at all: converting
    // it to clock ticks would overflow.
    auto Room = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - Begin);
    if (O.TimeoutMs != 0 && O.TimeoutMs < static_cast<uint64_t>(Room.count()))
      AOpts.Deadline = Begin + std::chrono::milliseconds(O.TimeoutMs);

    RowCapScope CapScope(O.PolyMaxRows);
    Phase = LS ? Clock::now() : Clock::time_point();
    {
      ObserverScope Observe(Hooks.Tracer, Hooks.Recorder);
      Run.Analysis = Analyzer(*Domain, AOpts).run(Run.Prog);
    }
    if (LS) {
      LS->AnalyzeUs = microsSince(Phase);
      LS->HasAnalyze = true;
    }

    const AnalysisResult &AR = Run.Analysis;
    R.Assertions = AR.Assertions;
    R.NumVerified = AR.numVerified();
    R.Stats = AR.Stats;
    if (AR.Cancelled && AOpts.Deadline != Clock::time_point() &&
        Clock::now() >= AOpts.Deadline) {
      R.Status = JobStatus::Timeout;
      R.Error = "deadline of " + std::to_string(O.TimeoutMs) + " ms exceeded";
    } else if (AR.Cancelled) {
      R.Status = JobStatus::Error;
      R.Error = "cancelled";
    } else if (!AR.Converged) {
      R.Status = JobStatus::NotConverged;
      R.Error = "fixpoint did not converge (MaxUpdatesPerNode exceeded)";
    } else if (R.NumVerified == R.Assertions.size()) {
      R.Status = JobStatus::Verified;
    } else {
      R.Status = JobStatus::AssertionsFailed;
    }
    if (Hooks.AfterAnalyze)
      Hooks.AfterAnalyze();

    // Lint jobs: derive findings from the stabilized invariants.  Runs
    // only on converged results (runLint refuses anything else) and folds
    // into the cached bytes -- the Lint/LintChecks options are part of the
    // fingerprint, so an analyze job never serves a lint job's slot.
    if (O.Lint && AR.Converged && !AR.Cancelled) {
      Phase = LS ? Clock::now() : Clock::time_point();
      lint::LintOptions LOpts;
      LOpts.Checks = O.LintChecks;
      R.Findings = lint::runLint(Ctx, Run.Prog, AR, *Domain, LOpts);
      R.Linted = true;
      if (LS) {
        LS->LintUs = microsSince(Phase);
        LS->HasLint = true;
      }
    }
  } catch (const std::exception &E) {
    R.Status = JobStatus::Error;
    R.Error = E.what();
  } catch (...) {
    R.Status = JobStatus::Error;
    R.Error = "unknown exception";
  }
  R.DurationMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Begin).count();
}
