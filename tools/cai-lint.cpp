//===- tools/cai-lint.cpp - Standalone semantic lint driver ----------------===//
///
/// Runs the abstract interpreter to a fixpoint, then the semantic lint
/// passes (docs/LINT.md) over the stabilized invariants, and reports the
/// findings.  Unlike cai-analyze --lint, the exit code reflects the lint
/// verdict, so the tool drops into CI pipelines directly.
///
///   cai-lint [options] <program.imp>
///
///   --domain=<spec>   domain combination (cai-analyze syntax; default
///                     logical:poly,uf)
///   --checks=SEL      comma-separated subset of unreachable, branch,
///                     divzero, bounds, deadstore, uninit (default: all)
///   --format=text|sarif
///                     human-readable lines (default) or a SARIF 2.1.0 log
///   --baseline=FILE   suppress findings whose key appears in FILE
///   --write-baseline=FILE
///                     write the current findings as a baseline file and
///                     exit 0 (nothing is reported)
///   --encode=comm|arity
///                     apply a Section 5 symbol encoding before analysis
///   --widening-delay=N
///   --no-memo         disable fixpoint memoization
///
/// Exit code: 0 if no findings survive the baseline, 1 if any finding is
/// reported, 2 on usage/parse/I/O errors, 3 if the fixpoint did not
/// converge (the invariants cannot be trusted, so no findings are
/// derived).
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "service/Job.h"
#include "support/Decimal.h"
#include "support/TextIO.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace cai;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: cai-lint [--domain=<spec>] [--checks=<sel,...>]\n"
               "                [--format=text|sarif] [--baseline=FILE]\n"
               "                [--write-baseline=FILE] [--encode=comm|arity]\n"
               "                [--widening-delay=N] [--no-memo]\n"
               "                <program.imp>\n"
               "checks:    unreachable branch divzero bounds deadstore uninit\n"
               "exit codes: 0 no findings, 1 findings reported,\n"
               "            2 usage/parse/I/O error, 3 fixpoint did not "
               "converge\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path;
  std::string Format = "text";
  std::string BaselinePath;
  std::string WriteBaselinePath;
  service::JobSpec Spec;
  service::JobOptions &Opts = Spec.Opts;
  Opts.Lint = true;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--domain=", 0) == 0) {
      Opts.DomainSpec = Arg.substr(9);
    } else if (Arg.rfind("--checks=", 0) == 0) {
      Opts.LintChecks = Arg.substr(9);
      std::string LintErr;
      if (!lint::validateLintChecks(Opts.LintChecks, &LintErr)) {
        std::fprintf(stderr, "error: %s\n", LintErr.c_str());
        return 2;
      }
    } else if (Arg.rfind("--format=", 0) == 0) {
      Format = Arg.substr(9);
      if (Format != "text" && Format != "sarif") {
        std::fprintf(stderr, "error: --format expects 'text' or 'sarif'\n");
        return 2;
      }
    } else if (Arg.rfind("--baseline=", 0) == 0) {
      BaselinePath = Arg.substr(11);
      if (BaselinePath.empty()) {
        std::fprintf(stderr, "error: --baseline expects a file name\n");
        return 2;
      }
    } else if (Arg.rfind("--write-baseline=", 0) == 0) {
      WriteBaselinePath = Arg.substr(17);
      if (WriteBaselinePath.empty()) {
        std::fprintf(stderr, "error: --write-baseline expects a file name\n");
        return 2;
      }
    } else if (Arg.rfind("--encode=", 0) == 0) {
      Opts.Encode = Arg.substr(9);
      if (Opts.Encode != "comm" && Opts.Encode != "arity") {
        std::fprintf(stderr, "error: unknown --encode '%s'\n",
                     Opts.Encode.c_str());
        return 2;
      }
    } else if (Arg.rfind("--widening-delay=", 0) == 0) {
      if (!parseDecimal(Arg.substr(17), Opts.WideningDelay)) {
        std::fprintf(stderr,
                     "error: --widening-delay expects a number, got '%s'\n",
                     Arg.substr(17).c_str());
        return 2;
      }
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
  if (!BaselinePath.empty()) {
    std::string BaselineText;
    if (!readFile(BaselinePath, BaselineText)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", BaselinePath.c_str());
      return 2;
    }
    Baseline = lint::parseBaseline(BaselineText);
  }

  service::JobRun Run;
  service::runJob(Spec, {}, Run);
  const service::JobResult &R = Run.Result;
  switch (R.Status) {
  case service::JobStatus::Verified:
  case service::JobStatus::AssertionsFailed:
    break;
  case service::JobStatus::NotConverged:
    std::fprintf(stderr, "error: fixpoint did not converge; the invariants "
                         "cannot justify lint findings\n");
    return 3;
  case service::JobStatus::BadDomain:
    std::fprintf(stderr, "error: bad --domain spec: %s\n", R.Error.c_str());
    return 2;
  case service::JobStatus::ParseError:
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), R.Error.c_str());
    return 2;
  default:
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 2;
  }

  std::vector<lint::LintFinding> Findings =
      lint::applyBaseline(R.Findings, Baseline);

  if (!WriteBaselinePath.empty()) {
    std::ofstream BOut(WriteBaselinePath);
    if (!BOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   WriteBaselinePath.c_str());
      return 2;
    }
    BOut << lint::renderBaseline(Findings);
    std::fprintf(stderr, "baseline: %zu finding%s -> %s\n", Findings.size(),
                 Findings.size() == 1 ? "" : "s", WriteBaselinePath.c_str());
    return 0;
  }

  if (Format == "sarif")
    std::printf("%s\n", lint::renderSarif(Findings, Path).c_str());
  else
    std::fputs(lint::renderText(Findings, Path).c_str(), stdout);
  return Findings.empty() ? 0 : 1;
}
