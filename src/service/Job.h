//===- service/Job.h - The analysis job pipeline ----------------*- C++ -*-===//
///
/// \file
/// The unit of work of the analysis service: one (program text, domain
/// spec, options) triple in, one structured result out, and runJob(), the
/// one pipeline that computes it.  The scheduler's workers, cai-analyze
/// and cai-lint all call runJob; they differ only in the JobHooks they
/// lend it and in how they render the JobRun it leaves behind.  Jobs are
/// fully isolated -- each gets its own TermContext, domain instances and
/// caches on the thread that runs it -- so a batch's results are
/// independent of worker count and scheduling order (the batch
/// determinism test runs `--jobs 8` against `--jobs 1` and asserts
/// byte-identical output).
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_JOB_H
#define CAI_SERVICE_JOB_H

#include "analysis/Analyzer.h"
#include "ir/Program.h"
#include "lint/Lint.h"
#include "service/DomainFactory.h"
#include "term/TermContext.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cai {

namespace obs {
class ProvenanceRecorder;
class Tracer;
} // namespace obs

namespace service {

struct LifecycleSample;

/// Per-job analysis options.  Everything that can change the analysis
/// *result* participates in the cache fingerprint (service/Fingerprint.h);
/// TimeoutMs and TestCrash do not, because their outcomes are never
/// cached.
struct JobOptions {
  std::string DomainSpec = "logical:poly,uf";
  /// "" (none), "comm" (Section 5.1) or "arity" (Section 5.2).
  std::string Encode;
  unsigned WideningDelay = 4;
  unsigned NarrowingPasses = 3;
  bool SemanticConvergence = true;
  bool Memoize = true;
  /// Polyhedra row cap; SIZE_MAX keeps the build-wide default, 0 means
  /// unlimited (cai-analyze --poly-max-rows, "poly_max_rows" on the wire).
  size_t PolyMaxRows = SIZE_MAX;
  /// Run the semantic lint passes (lint/Lint.h) after the fixpoint and
  /// attach the findings to the result.  Result-affecting (a lint job's
  /// findings are part of the cached bytes), so both fields fold into the
  /// canonical fingerprint.
  bool Lint = false;
  /// Lint check selection (LintOptions::Checks); empty = every check.
  std::string LintChecks;
  /// Per-job deadline in milliseconds; 0 = none.  Enforced cooperatively
  /// by the fixpoint engine (AnalyzerOptions::Deadline): the job reports
  /// JobStatus::Timeout, the process is never killed.
  uint64_t TimeoutMs = 0;
  /// Test hook: the worker throws before analyzing, exercising the
  /// crash-isolation path (the service's analogue of --test-break-join).
  bool TestCrash = false;
};

/// One submitted analysis.
struct JobSpec {
  /// Caller-chosen id, echoed on the result; batch results sort by it.
  uint64_t Id = 0;
  /// Display name (file path, manifest name, or gen/NNNN).
  std::string Name;
  std::string ProgramText;
  /// Stable identity of the program *across edits* ("program_id" on the
  /// wire): successive versions of one source share it.  Keys the
  /// snapshot tier (service/SnapshotCache.h) only -- it never enters the
  /// result fingerprint, so it cannot change what a job computes.
  std::string ProgramId;
  /// True for `analyze_edit` requests: the service may seed the run with
  /// the retained fixpoint snapshot of the previous version (matched by
  /// ProgramId, or fuzzily by canonical-text prefix).  Results are
  /// bit-identical to a plain analyze by construction.
  bool Edit = false;
  JobOptions Opts;
  /// Stamped by AnalysisScheduler::submit() for the telemetry channel's
  /// queue-wait span.  Never serialized; results stay timing-free.
  std::chrono::steady_clock::time_point EnqueueTime{};
};

/// How a job ended.  Every path is a structured per-job outcome -- a
/// worker converts thrown errors into JobStatus::Error rather than letting
/// one bad job take down the batch.
enum class JobStatus : uint8_t {
  Verified,         ///< Converged, every assertion verified.
  AssertionsFailed, ///< Converged, at least one assertion not verified.
  NotConverged,     ///< MaxUpdatesPerNode exceeded; verdicts unsound.
  ParseError,       ///< Program text did not parse.
  BadDomain,        ///< Domain spec or encode option did not parse.
  Timeout,          ///< Cooperative deadline hit (JobOptions::TimeoutMs).
  Error,            ///< The job threw; message in JobResult::Error.
};

/// Stable wire name for a status ("verified", "parse-error", ...).
const char *statusName(JobStatus S);

/// Inverse of statusName(); returns false when \p Name is not a known
/// status (the persist tier treats that as a corrupt record).
bool statusFromName(const std::string &Name, JobStatus *S);

/// True when \p S counts as a verification success for the batch exit
/// code (`cai-batch` exits non-zero if any job's status fails this).
inline bool jobVerified(JobStatus S) { return S == JobStatus::Verified; }

/// True when a result with status \p S is deterministic and complete, and
/// therefore admissible to the ResultCache.  Timeouts and crashes are
/// excluded (a retry could succeed); parse and spec errors are excluded
/// as cheap to recompute.
inline bool jobCacheable(JobStatus S) {
  return S == JobStatus::Verified || S == JobStatus::AssertionsFailed ||
         S == JobStatus::NotConverged;
}

/// Everything one job produces.
struct JobResult {
  uint64_t Id = 0;
  std::string Name;
  JobStatus Status = JobStatus::Error;
  /// Canonical job fingerprint (hex), the ResultCache key.
  std::string Fingerprint;
  /// The built lattice's display name ("poly >< uf"), empty on errors.
  std::string Domain;
  /// Diagnostic for ParseError/BadDomain/Error.
  std::string Error;
  std::vector<AssertionVerdict> Assertions;
  /// True when the lint passes ran (JobOptions::Lint on a converged,
  /// parseable job); the wire line then carries a "findings" array even
  /// when it is empty.
  bool Linted = false;
  /// Lint findings (only when Linted; part of the cached bytes).
  std::vector<lint::LintFinding> Findings;
  unsigned NumVerified = 0;
  AnalyzerStats Stats;
  /// Served from the ResultCache (Stats/assertions replay the original
  /// run's).
  bool CacheHit = false;
  /// Wall time this job took on its worker; informational only and
  /// deliberately absent from the deterministic wire serialization.
  double DurationMs = 0;
};

/// What a caller lends one runJob() call besides the spec.  Every member
/// is optional; the defaults run a plain, unobserved analysis.
struct JobHooks {
  /// Cooperative cancellation (AnalyzerOptions::CancelFlag).
  const std::atomic<bool> *Cancel = nullptr;
  /// Warm edit path: a prior version's snapshot to seed the fixpoint
  /// with, and where to record this run's (AnalyzerOptions::SnapshotIn/Out).
  const FixpointSnapshot *SnapIn = nullptr;
  FixpointSnapshot *SnapOut = nullptr;
  /// Receives the parse, analyze and lint timings; null: no clock reads.
  LifecycleSample *Phases = nullptr;
  /// Copied onto JobResult::Fingerprint (the scheduler's cache key).
  std::string Fingerprint;
  /// Called once on the built domain; returns the lattice to analyze
  /// with, owned through \p Factory.  cai-analyze stacks its fault
  /// injection and contract checker here, so their names reach the result.
  std::function<LogicalLattice *(DomainFactory &Factory, LogicalLattice &)>
      Decorate;
  /// Installed on the calling thread around Analyzer::run alone, so lint
  /// and rendering stay out of the trace and the provenance record.
  obs::Tracer *Tracer = nullptr;
  obs::ProvenanceRecorder *Recorder = nullptr;
  /// Called after Analyzer::run and before lint.  cai-analyze snapshots
  /// the metrics registry here, because lint's entailment queries bump
  /// the product counters that --stats prints.
  std::function<void()> AfterAnalyze;
};

/// Everything one runJob() call leaves behind: the result plus the
/// objects cai-analyze renders from.  The domain and the program point
/// into the context, so a JobRun stays where it was built.
struct JobRun {
  JobRun() : Factory(Ctx) {}

  TermContext Ctx;
  DomainFactory Factory;
  /// The lattice the analysis ran on, decorators included; null when the
  /// job ended before the domain was built.
  LogicalLattice *Domain = nullptr;
  /// The analyzed program, after the optional symbol encoding.
  Program Prog;
  AnalysisResult Analysis;
  JobResult Result;
};

/// Runs \p Spec in full on the calling thread: builds the context, the
/// domain and the program, analyzes under the options and \p Hooks,
/// derives the status, runs lint for lint jobs, and converts any throw
/// into JobStatus::Error.  Never throws.  Spec and parse errors end before
/// any analysis and keep DurationMs at 0.
void runJob(const JobSpec &Spec, const JobHooks &Hooks, JobRun &Run);

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_JOB_H
