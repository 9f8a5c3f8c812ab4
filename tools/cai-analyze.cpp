//===- tools/cai-analyze.cpp - Command-line analysis driver ----------------===//
///
/// Analyzes a mini-language program with a chosen domain combination and
/// prints invariants and assertion verdicts.
///
///   cai-analyze [options] <program.imp>
///
///   --domain=<spec>   affine | poly | uf | parity | sign | lists
///                     | direct:<d1>,<d2>
///                     | reduced:<d1>,<d2>
///                     | logical:<d1>,<d2>        (default logical:poly,uf)
///                     Product components may themselves be products,
///                     written with parentheses:
///                     logical:(logical:affine,uf),lists
///   --invariants      print the invariant at every program node
///   --encode=comm     apply the Section 5.1 commutative encoding first
///   --encode=arity    apply the Section 5.2 arity-reduction encoding
///   --widening-delay=N
///   --timeout-ms=N    cooperative deadline: the fixpoint engine checks the
///                     clock at step boundaries and stops cleanly once the
///                     deadline passes (exit 4, nothing is killed)
///   --poly-max-rows=N cap on intermediate constraint-system rows in the
///                     polyhedra domain; excess rows are havocked (sound
///                     over-approximation, counted as poly.havoc.*).
///                     0 = unlimited, default 2048
///   --stats           print fixpoint-engine counters (edge evaluations,
///                     memo-cache hit rates, saturation rounds, WTO shape)
///                     plus every metric in the registry, sorted, so two
///                     identical runs print byte-identical output
///   --no-memo         disable lattice-operation and transfer memoization
///                     (results are identical either way; for measurement)
///   --trace-out=FILE  record the run as Chrome trace_event JSON (load the
///                     file in chrome://tracing or https://ui.perfetto.dev)
///   --metrics-out=FILE
///                     write the metrics registry as nested JSON; also
///                     enables the per-phase time histograms
///   --metrics-format=json|prom
///                     --metrics-out format: nested JSON (default) or
///                     Prometheus text exposition
///   --explain[=SEL]   record precision-loss provenance and, for each
///                     failed assertion (or just the one whose label or
///                     node number matches SEL), print the exact lattice
///                     step -- join, widening, component join/widening,
///                     quantification -- that discarded the needed facts,
///                     and which component domain dropped them
///   --check[=MODE]    soundness self-audit (docs/SOUNDNESS.md); MODE is
///                     contracts -- wrap the domain in the online
///                       lattice-contract checker: every join/widen/meet/
///                       existQuant during the analysis is verified as an
///                       upper/lower bound via the domain's own entailment,
///                       violations attributed to the exact engine step;
///                     oracle -- after a converged run, replay the program
///                       concretely under exact rational semantics and
///                       assert every reached state satisfies the fixpoint
///                       invariant at its node;
///                     all (the default) -- both
///   --check-traces=N  concrete replays for the oracle (default 32)
///   --check-seed=N    base RNG seed for the oracle replays (default 1)
///   --test-break-join[=N]
///                     testing hook: deliberately break the domain's join
///                     (return the left operand) from the N-th call onward
///                     so the checker's detection path can be exercised
///   --lint[=SEL]      run the semantic lint passes over the stabilized
///                     invariants (docs/LINT.md) and print the findings;
///                     SEL is a comma-separated subset of unreachable,
///                     branch, divzero, bounds, deadstore, uninit
///   --lint-format=text|sarif
///                     findings as human-readable lines (default) or as a
///                     single-line SARIF 2.1.0 log (the last stdout line)
///   --lint-baseline=FILE
///                     suppress findings whose baseline key appears in
///                     FILE (one key per line; see cai-lint
///                     --write-baseline)
///
/// Exit code: 0 if every assertion verified and the fixpoint converged,
/// 1 otherwise, 2 on usage/parse errors, 3 if --check found a soundness
/// or contract violation, 4 if --timeout-ms expired before convergence.
/// Lint findings do not change the exit code.
///
//===----------------------------------------------------------------------===//

#include "check/CheckedLattice.h"
#include "check/FaultInjection.h"
#include "interp/Oracle.h"
#include "lint/Lint.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "service/Job.h"
#include "support/Decimal.h"
#include "support/TextIO.h"
#include "term/Printer.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

using namespace cai;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: cai-analyze [--domain=<spec>] [--invariants] [--stats]\n"
      "                   [--encode=comm|arity] [--widening-delay=N]\n"
      "                   [--timeout-ms=N] [--poly-max-rows=N] [--no-memo]\n"
      "                   [--trace-out=FILE] [--metrics-out=FILE]\n"
      "                   [--metrics-format=json|prom]\n"
      "                   [--explain[=<label|node>]]\n"
      "                   [--check[=oracle|contracts|all]] [--check-traces=N]\n"
      "                   [--check-seed=N] [--test-break-join[=N]]\n"
      "                   [--lint[=checks]] [--lint-format=text|sarif]\n"
      "                   [--lint-baseline=FILE]\n"
      "                   <program.imp>\n"
      "domain specs: affine poly uf parity sign lists arrays\n"
      "              direct:<a>,<b>  reduced:<a>,<b>  logical:<a>,<b>\n"
      "              nested: logical:(logical:affine,uf),lists\n"
      "exit codes:   0 all assertions verified and fixpoint converged\n"
      "              1 some assertion failed or fixpoint did not converge\n"
      "              2 usage, parse, or I/O error\n"
      "              3 --check found a soundness or contract violation\n"
      "              4 --timeout-ms expired before convergence\n");
}

/// Reads the N of `--flag=N` (\p Prefix is the length of `--flag=`)
/// into \p Out; on a malformed or out-of-range N prints the diagnostic
/// and returns false.
template <typename T>
bool numberFlag(const std::string &Arg, size_t Prefix, T &Out,
                T Max = std::numeric_limits<T>::max()) {
  std::string Value = Arg.substr(Prefix);
  if (parseDecimal(Value, Out, Max))
    return true;
  std::fprintf(stderr, "error: %s expects a number, got '%s'\n",
               Arg.substr(0, Prefix - 1).c_str(), Value.c_str());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path;
  std::string TraceOut;
  std::string MetricsOut;
  std::string MetricsFormat = "json";
  std::string ExplainSel;
  bool ShowInvariants = false;
  bool ShowStats = false;
  bool Explain = false;
  bool CheckContracts = false;
  bool CheckOracle = false;
  bool BreakJoin = false;
  unsigned BreakJoinFrom = 0;
  std::string LintFormat = "text";
  std::string LintBaseline;
  interp::OracleOptions OracleOpts;
  service::JobSpec Spec;
  service::JobOptions &Opts = Spec.Opts;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--domain=", 0) == 0) {
      Opts.DomainSpec = Arg.substr(9);
    } else if (Arg == "--invariants") {
      ShowInvariants = true;
    } else if (Arg.rfind("--encode=", 0) == 0) {
      Opts.Encode = Arg.substr(9);
      if (!Opts.Encode.empty() && Opts.Encode != "comm" &&
          Opts.Encode != "arity") {
        std::fprintf(stderr, "error: unknown --encode '%s'\n",
                     Opts.Encode.c_str());
        return 2;
      }
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TraceOut = Arg.substr(12);
      if (TraceOut.empty()) {
        std::fprintf(stderr, "error: --trace-out expects a file name\n");
        return 2;
      }
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Arg.substr(14);
      if (MetricsOut.empty()) {
        std::fprintf(stderr, "error: --metrics-out expects a file name\n");
        return 2;
      }
    } else if (Arg.rfind("--metrics-format=", 0) == 0) {
      MetricsFormat = Arg.substr(17);
      if (MetricsFormat != "json" && MetricsFormat != "prom") {
        std::fprintf(stderr,
                     "error: --metrics-format expects 'json' or 'prom'\n");
        return 2;
      }
    } else if (Arg == "--explain") {
      Explain = true;
    } else if (Arg.rfind("--explain=", 0) == 0) {
      Explain = true;
      ExplainSel = Arg.substr(10);
    } else if (Arg == "--check" || Arg == "--check=all") {
      CheckContracts = CheckOracle = true;
    } else if (Arg == "--check=contracts") {
      CheckContracts = true;
    } else if (Arg == "--check=oracle") {
      CheckOracle = true;
    } else if (Arg.rfind("--check=", 0) == 0) {
      std::fprintf(stderr, "error: unknown --check mode '%s'\n",
                   Arg.substr(8).c_str());
      return 2;
    } else if (Arg.rfind("--check-traces=", 0) == 0) {
      if (!numberFlag(Arg, 15, OracleOpts.Traces))
        return 2;
    } else if (Arg.rfind("--check-seed=", 0) == 0) {
      if (!numberFlag(Arg, 13, OracleOpts.Seed))
        return 2;
    } else if (Arg == "--lint") {
      Opts.Lint = true;
    } else if (Arg.rfind("--lint=", 0) == 0) {
      Opts.Lint = true;
      Opts.LintChecks = Arg.substr(7);
      std::string LintErr;
      if (!lint::validateLintChecks(Opts.LintChecks, &LintErr)) {
        std::fprintf(stderr, "error: %s\n", LintErr.c_str());
        return 2;
      }
    } else if (Arg.rfind("--lint-format=", 0) == 0) {
      LintFormat = Arg.substr(14);
      if (LintFormat != "text" && LintFormat != "sarif") {
        std::fprintf(stderr,
                     "error: --lint-format expects 'text' or 'sarif'\n");
        return 2;
      }
    } else if (Arg.rfind("--lint-baseline=", 0) == 0) {
      LintBaseline = Arg.substr(16);
      if (LintBaseline.empty()) {
        std::fprintf(stderr, "error: --lint-baseline expects a file name\n");
        return 2;
      }
    } else if (Arg == "--test-break-join") {
      BreakJoin = true;
    } else if (Arg.rfind("--test-break-join=", 0) == 0) {
      if (!numberFlag(Arg, 18, BreakJoinFrom))
        return 2;
      BreakJoin = true;
    } else if (Arg.rfind("--widening-delay=", 0) == 0) {
      if (!numberFlag(Arg, 17, Opts.WideningDelay))
        return 2;
    } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
      if (!numberFlag(Arg, 13, Opts.TimeoutMs))
        return 2;
    } else if (Arg.rfind("--poly-max-rows=", 0) == 0) {
      // SIZE_MAX itself means "keep the build-wide default".
      if (!numberFlag(Arg, 16, Opts.PolyMaxRows, SIZE_MAX - 1))
        return 2;
    } else if (Arg == "--stats") {
      ShowStats = true;
    } else if (Arg == "--no-memo") {
      Opts.Memoize = false;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (Path.empty()) {
    usage();
    return 2;
  }

  if (!readFile(Path, Spec.ProgramText)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 2;
  }

  std::set<std::string> Baseline;
  if (!LintBaseline.empty()) {
    std::string BaselineText;
    if (!readFile(LintBaseline, BaselineText)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", LintBaseline.c_str());
      return 2;
    }
    Baseline = lint::parseBaseline(BaselineText);
  }

  // Observability: tracer, timing histograms, provenance recorder.
  service::JobHooks Hooks;
  obs::Tracer Tracer;
  if (!TraceOut.empty())
    Hooks.Tracer = &Tracer;
  if (!MetricsOut.empty())
    obs::MetricsRegistry::global().enableTiming(true);
  obs::ProvenanceRecorder Recorder;
  // The contract checker reads the recorder's engine-step context to
  // attribute violations, so checking implies recording.
  if (Explain || CheckContracts)
    Hooks.Recorder = &Recorder;

  // Decorator stack: Checked(Broken(Domain)).  The fault-injection layer
  // sits inside so the checker convicts it like any other buggy domain.
  check::CheckedLattice *Checker = nullptr;
  Hooks.Decorate = [&](service::DomainFactory &Factory, LogicalLattice &D) {
    LogicalLattice *Top = &D;
    if (BreakJoin)
      Top = Factory.keep(
          std::make_unique<check::BrokenJoinLattice>(*Top, BreakJoinFrom));
    if (CheckContracts) {
      auto Checked = std::make_unique<check::CheckedLattice>(*Top);
      Checker = Checked.get();
      Top = Factory.keep(std::move(Checked));
    }
    return Top;
  };

  // The registry is read before lint runs: lint's entailment queries bump
  // product counters that belong to no fixpoint step.
  std::string MetricsText, MetricsFile;
  Hooks.AfterAnalyze = [&] {
    obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
    std::ostringstream Text, File;
    if (ShowStats)
      Registry.writeText(Text);
    if (!MetricsOut.empty() && MetricsFormat == "prom")
      Registry.writePrometheus(File);
    else if (!MetricsOut.empty())
      Registry.writeJson(File);
    MetricsText = Text.str();
    MetricsFile = File.str();
  };

  service::JobRun Run;
  service::runJob(Spec, Hooks, Run);
  const service::JobResult &Job = Run.Result;
  switch (Job.Status) {
  case service::JobStatus::BadDomain:
    std::fprintf(stderr, "error: bad --domain spec: %s\n", Job.Error.c_str());
    return 2;
  case service::JobStatus::ParseError:
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Job.Error.c_str());
    return 2;
  case service::JobStatus::Error:
    std::fprintf(stderr, "error: %s\n", Job.Error.c_str());
    return 2;
  default:
    break;
  }

  if (!TraceOut.empty()) {
    std::ofstream TOut(TraceOut);
    if (!TOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n", TraceOut.c_str());
      return 2;
    }
    Tracer.writeJson(TOut);
    std::fprintf(stderr, "trace:      %zu events -> %s\n", Tracer.numEvents(),
                 TraceOut.c_str());
  }
  if (!MetricsOut.empty()) {
    std::ofstream MOut(MetricsOut);
    if (!MOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n", MetricsOut.c_str());
      return 2;
    }
    MOut << MetricsFile;
  }

  if (Job.Status == service::JobStatus::Timeout) {
    // The deadline fired: the engine stopped cleanly at a step boundary,
    // and the partial invariants are untrustworthy by construction.
    std::fprintf(stderr,
                 "error: analysis exceeded --timeout-ms=%llu "
                 "(cancelled at a fixpoint step boundary)\n",
                 static_cast<unsigned long long>(Opts.TimeoutMs));
    return 4;
  }

  TermContext &Ctx = Run.Ctx;
  const Program &Analyzed = Run.Prog;
  const AnalysisResult &R = Run.Analysis;
  std::printf("domain:     %s\n", Job.Domain.c_str());
  std::printf("converged:  %s\n", R.Converged ? "yes" : "no");
  std::printf("stats:      %lu joins, %lu widenings, %lu transfers, "
              "max %u updates/node\n",
              R.Stats.Joins, R.Stats.Widenings, R.Stats.Transfers,
              R.Stats.MaxNodeUpdates);
  if (ShowStats) {
    std::printf("engine:     %u WTO components, %lu edge evals "
                "(%lu answered by transfer cache), %lu entailment checks\n",
                R.Stats.WtoComponents, R.Stats.EdgeEvals,
                R.Stats.TransferCacheHits, R.Stats.EntailmentChecks);
    std::printf("memo:       %s, %lu hits / %lu misses (%.1f%% hit rate), "
                "%lu saturation rounds\n",
                Opts.Memoize ? "on" : "off", R.Stats.CacheHits,
                R.Stats.CacheMisses, 100.0 * R.Stats.cacheHitRate(),
                R.Stats.SaturationRounds);
    // Every registered metric, one sorted "name = value" line each: the
    // map-backed registry makes two identical runs print byte-identical
    // blocks (tool_stats_deterministic relies on this).
    std::printf("metrics:\n");
    std::istringstream In(MetricsText);
    for (std::string Line; std::getline(In, Line);)
      std::printf("  %s\n", Line.c_str());
  }

  if (ShowInvariants) {
    std::printf("\ninvariants:\n");
    for (NodeId N = 0; N < Analyzed.numNodes(); ++N)
      std::printf("  node %-4u %s\n", N,
                  toString(Ctx, R.Invariants[N]).c_str());
  }

  std::printf("\nassertions:\n");
  for (size_t I = 0; I < R.Assertions.size(); ++I) {
    const Assertion &A = Analyzed.assertions()[I];
    std::printf("  %-20s %-12s %s\n", R.Assertions[I].Label.c_str(),
                R.Assertions[I].Verified ? "VERIFIED" : "not-verified",
                toString(Ctx, A.Fact).c_str());
  }

  std::string LintSarif;
  if (Opts.Lint) {
    std::vector<lint::LintFinding> Findings =
        lint::applyBaseline(Job.Findings, Baseline);
    if (LintFormat == "sarif") {
      // Deferred to the very last stdout line so SARIF consumers can peel
      // it off the human-readable report with `tail -1`.
      LintSarif = lint::renderSarif(Findings, Path);
    } else {
      std::printf("\nlint:       %zu finding%s\n", Findings.size(),
                  Findings.size() == 1 ? "" : "s");
      std::istringstream LintIn(lint::renderText(Findings, Path));
      for (std::string Line; std::getline(LintIn, Line);)
        std::printf("  %s\n", Line.c_str());
    }
  }

  if (Explain) {
    // Matches either the assertion label or the cutpoint (node number).
    auto Selected = [&](const Assertion &A) {
      return ExplainSel.empty() || ExplainSel == A.Label ||
             ExplainSel == std::to_string(A.Node);
    };
    std::printf("\nprecision-loss provenance (%zu events recorded):\n",
                Recorder.events().size());
    bool Any = false;
    for (size_t I = 0; I < R.Assertions.size(); ++I) {
      const Assertion &A = Analyzed.assertions()[I];
      if (R.Assertions[I].Verified || !Selected(A))
        continue;
      Any = true;
      std::printf("  %s (node %u): %s\n", A.Label.c_str(), A.Node,
                  toString(Ctx, A.Fact).c_str());
      std::string Text = Recorder.explain(Ctx, A.Node, A.Fact);
      if (Text.empty()) {
        std::printf("    no lattice step dropped a related fact -- the "
                    "domain never established it\n");
        continue;
      }
      std::istringstream In(Text);
      for (std::string Line; std::getline(In, Line);)
        std::printf("    %s\n", Line.c_str());
    }
    if (!Any)
      std::printf("  %s\n", ExplainSel.empty()
                                ? "every assertion verified"
                                : "no failed assertion matches the selector");
  }

  bool CheckViolated = false;
  if (Checker) {
    std::printf("\ncontracts:  %lu entailment probes, %zu violations\n",
                Checker->checksRun(), Checker->violations().size());
    for (const check::CheckViolation &V : Checker->violations())
      std::fprintf(stderr, "%s\n", Checker->describe(V).c_str());
    CheckViolated |= !Checker->violations().empty();
  }
  if (CheckOracle) {
    if (!R.Converged) {
      std::fprintf(stderr,
                   "check: oracle skipped -- fixpoint did not converge, so "
                   "the invariants under-approximate by construction\n");
    } else {
      interp::OracleReport Rep =
          interp::checkSoundness(Ctx, Analyzed, R, *Run.Domain, OracleOpts);
      std::printf("oracle:     %u traces, %lu states, %lu invariant atoms "
                  "checked, %zu violations\n",
                  Rep.Traces, Rep.StatesChecked, Rep.AtomsChecked,
                  Rep.Violations.size());
      for (const interp::OracleViolation &V : Rep.Violations)
        std::fprintf(stderr, "%s\n", interp::describe(Ctx, V).c_str());
      CheckViolated |= !Rep.ok();
    }
  }

  unsigned Verified = R.numVerified();
  std::printf("\n%u/%zu assertions verified\n", Verified,
              R.Assertions.size());
  if (!LintSarif.empty())
    std::printf("%s\n", LintSarif.c_str());
  if (CheckViolated) {
    std::fprintf(stderr, "error: soundness self-audit failed (see "
                         "violations above)\n");
    return 3;
  }
  if (!R.Converged) {
    // A truncated fixpoint means the invariants may under-approximate
    // reachable states, so even an all-VERIFIED report is not trustworthy.
    std::fprintf(stderr, "error: fixpoint did not converge "
                         "(MaxUpdatesPerNode exceeded); verdicts unsound\n");
    return 1;
  }
  return Verified == R.Assertions.size() ? 0 : 1;
}
