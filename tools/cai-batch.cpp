//===- tools/cai-batch.cpp - Batch analysis front end ----------------------===//
///
/// Runs a batch of analyses through the sharded scheduler and prints one
/// deterministic JSON result line per job, sorted by job id.
///
///   cai-batch [options] [program.imp | directory]...
///
/// Job sources (combine freely; ids are assigned in submission order):
///   <program.imp>     one job per file argument
///   <directory>       one job per *.imp file underneath, sorted by path
///   --manifest=FILE   JSON-lines manifest; each line is an analyze request
///                     (see docs/SERVICE.md): {"name":...,"program":"..."} or
///                     {"program_file":"path", "domain":..., "options":{...}}.
///                     program_file paths resolve relative to the working
///                     directory.
///   --gen=N           N generated programs (interp::ProgramGen with nested
///                     function composition, MaxFnDepth 3)
///   --gen-seed=S      base seed for --gen (job K uses seed S+K; default 1)
///
/// Options for positional/--gen jobs (manifest entries carry their own):
///   --domain=<spec>   same grammar as cai-analyze (default logical:poly,uf)
///   --encode=comm|arity
///   --timeout-ms=N    per-job cooperative deadline
///   --lint[=sel]      run the lint passes after each fixpoint; result lines
///                     gain a "findings" array (sel as in cai-lint --checks)
///   --no-memo         disable transfer memoization (for determinism tests)
///
/// Scheduler:
///   --jobs=N          worker threads (default 1)
///   --cache-bytes=N   result-cache byte budget (default 64 MiB, 0 disables)
///   --persist-dir=DIR attach the disk cache tier: results append to a
///                     checksummed record log and survive across runs
///                     (replayed into the memory cache on startup)
///   --persist-budget=N  on-disk byte budget, enforced by log compaction
///                     (0 = unbounded)
///   --repeat=N        submit the whole job list N times, waiting for the
///                     batch to drain between passes (so pass 2+ exercises
///                     the warm cache deterministically; default 1)
///   --stats           print a summary JSON line to stderr at the end
///   --trace-out=FILE  merged Chrome trace across worker shards
///   --metrics-out=FILE merged metrics (shard sums) across shards
///   --metrics-format=json|prom  --metrics-out format (default json)
///
/// Telemetry (wall-clock channel; stdout result bytes are unaffected):
///   --telemetry-out=FILE  enable lifecycle telemetry, write the report
///                     JSON line (per-phase latency percentiles, queue
///                     depth, worker utilization, cache hit rates, slow
///                     jobs) to FILE ('-' for stderr)
///   --slow-ms=N       jobs slower than N ms get an exemplar engine trace
///   --exemplar-dir=DIR  where slow-job traces go (Perfetto-loadable)
///   --event-log=FILE  append the structured JSON-lines event log
///
/// Output lines carry no timing and fields in a fixed order, so two runs
/// over the same inputs are byte-identical regardless of --jobs (the
/// batch-determinism test compares `--jobs 8` against `--jobs 1`).  The
/// "cached" field is deterministic provided the job list has no duplicate
/// fingerprints within one pass (duplicates may race the cache under
/// --jobs > 1; --repeat passes are safe because of the drain barrier).
///
/// Exit code: 0 if every job's status is "verified", 1 if any job failed
/// verification (assertion failures, non-convergence, timeouts, errors),
/// 2 on usage or I/O errors.
///
//===----------------------------------------------------------------------===//

#include "interp/ProgramGen.h"
#include "lint/Lint.h"
#include "obs/EventLog.h"
#include "obs/Metrics.h"
#include "persist/PersistStore.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "support/Decimal.h"
#include "support/TextIO.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace cai;
using namespace cai::service;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: cai-batch [options] [program.imp | directory]...\n"
      "  --manifest=FILE    JSON-lines job manifest\n"
      "  --gen=N            N generated programs  --gen-seed=S  base seed\n"
      "  --domain=<spec>    domain for positional/--gen jobs\n"
      "  --encode=comm|arity  --timeout-ms=N  per-job options\n"
      "  --lint[=sel]       lint each job (sel as in cai-lint --checks)\n"
      "  --no-memo          disable transfer memoization\n"
      "  --jobs=N           worker threads (default 1)\n"
      "  --cache-bytes=N    result-cache budget (default 64 MiB, 0 = off)\n"
      "  --persist-dir=DIR  disk cache tier (survives across runs)\n"
      "  --persist-budget=N on-disk byte budget (0 = unbounded)\n"
      "  --repeat=N         run the job list N times (warm-cache passes)\n"
      "  --stats            summary JSON line on stderr\n"
      "  --trace-out=FILE   merged Chrome trace    --metrics-out=FILE\n"
      "  --metrics-format=json|prom   --metrics-out format\n"
      "  --telemetry-out=FILE  lifecycle latency report ('-' = stderr)\n"
      "  --slow-ms=N        exemplar traces for jobs slower than N ms\n"
      "  --exemplar-dir=DIR --event-log=FILE\n"
      "exit codes: 0 all verified, 1 some job failed, 2 usage/I/O error\n");
}

bool parseCount(const std::string &Arg, size_t Prefix, uint64_t &Out,
                uint64_t Max = UINT64_MAX) {
  if (parseDecimal(Arg.substr(Prefix), Out, Max))
    return true;
  std::fprintf(stderr, "error: '%s' expects a number\n",
               Arg.substr(0, Prefix).c_str());
  return false;
}

/// readFile, naming the file on stderr when it cannot be opened.
bool readProgram(const std::string &Path, std::string &Out) {
  if (readFile(Path, Out))
    return true;
  std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  std::string Manifest;
  std::string TraceOut;
  std::string MetricsOut;
  std::string MetricsFormat = "json";
  std::string TelemetryOut;
  std::string ExemplarDir;
  std::string EventLogPath;
  JobOptions Defaults;
  uint64_t Gen = 0;
  uint64_t GenSeed = 1;
  uint64_t Workers = 1;
  uint64_t CacheBytes = 64ull << 20;
  uint64_t Repeat = 1;
  uint64_t SlowMs = 0;
  uint64_t PersistBudget = 0;
  std::string PersistDir;
  bool ShowStats = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--manifest=", 0) == 0) {
      Manifest = Arg.substr(11);
    } else if (Arg.rfind("--gen=", 0) == 0) {
      if (!parseCount(Arg, 6, Gen))
        return 2;
    } else if (Arg.rfind("--gen-seed=", 0) == 0) {
      if (!parseCount(Arg, 11, GenSeed))
        return 2;
    } else if (Arg.rfind("--domain=", 0) == 0) {
      Defaults.DomainSpec = Arg.substr(9);
    } else if (Arg.rfind("--encode=", 0) == 0) {
      Defaults.Encode = Arg.substr(9);
    } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parseCount(Arg, 13, Defaults.TimeoutMs))
        return 2;
    } else if (Arg == "--lint") {
      Defaults.Lint = true;
    } else if (Arg.rfind("--lint=", 0) == 0) {
      Defaults.Lint = true;
      Defaults.LintChecks = Arg.substr(7);
      std::string LintErr;
      if (!lint::validateLintChecks(Defaults.LintChecks, &LintErr)) {
        std::fprintf(stderr, "error: %s\n", LintErr.c_str());
        return 2;
      }
    } else if (Arg == "--no-memo") {
      Defaults.Memoize = false;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseCount(Arg, 7, Workers, UINT_MAX) || Workers == 0) {
        std::fprintf(stderr, "error: --jobs expects a positive number\n");
        return 2;
      }
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      if (!parseCount(Arg, 14, CacheBytes))
        return 2;
    } else if (Arg.rfind("--persist-dir=", 0) == 0) {
      PersistDir = Arg.substr(14);
    } else if (Arg.rfind("--persist-budget=", 0) == 0) {
      if (!parseCount(Arg, 17, PersistBudget))
        return 2;
    } else if (Arg.rfind("--repeat=", 0) == 0) {
      if (!parseCount(Arg, 9, Repeat) || Repeat == 0) {
        std::fprintf(stderr, "error: --repeat expects a positive number\n");
        return 2;
      }
    } else if (Arg == "--stats") {
      ShowStats = true;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TraceOut = Arg.substr(12);
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Arg.substr(14);
    } else if (Arg.rfind("--metrics-format=", 0) == 0) {
      MetricsFormat = Arg.substr(17);
      if (MetricsFormat != "json" && MetricsFormat != "prom") {
        std::fprintf(stderr,
                     "error: --metrics-format expects 'json' or 'prom'\n");
        return 2;
      }
    } else if (Arg.rfind("--telemetry-out=", 0) == 0) {
      TelemetryOut = Arg.substr(16);
    } else if (Arg.rfind("--slow-ms=", 0) == 0) {
      if (!parseCount(Arg, 10, SlowMs))
        return 2;
    } else if (Arg.rfind("--exemplar-dir=", 0) == 0) {
      ExemplarDir = Arg.substr(15);
    } else if (Arg.rfind("--event-log=", 0) == 0) {
      EventLogPath = Arg.substr(12);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }

  // Assemble the job list (one pass; --repeat resubmits it).
  std::vector<JobSpec> Batch;
  uint64_t NextId = 0;

  for (const std::string &Path : Paths) {
    std::error_code EC;
    std::vector<std::string> Files;
    if (std::filesystem::is_directory(Path, EC)) {
      for (const auto &Entry :
           std::filesystem::recursive_directory_iterator(Path, EC))
        if (Entry.is_regular_file() && Entry.path().extension() == ".imp")
          Files.push_back(Entry.path().string());
      std::sort(Files.begin(), Files.end());
      if (Files.empty()) {
        std::fprintf(stderr, "error: no .imp files under '%s'\n",
                     Path.c_str());
        return 2;
      }
    } else {
      Files.push_back(Path);
    }
    for (const std::string &File : Files) {
      JobSpec Spec;
      Spec.Id = NextId++;
      Spec.Name = File;
      Spec.Opts = Defaults;
      if (!readProgram(File, Spec.ProgramText))
        return 2;
      Batch.push_back(std::move(Spec));
    }
  }

  if (!Manifest.empty()) {
    std::ifstream In(Manifest);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Manifest.c_str());
      return 2;
    }
    unsigned LineNo = 0;
    for (std::string Line; std::getline(In, Line);) {
      ++LineNo;
      if (Line.find_first_not_of(" \t\r") == std::string::npos)
        continue;
      std::string Error;
      std::optional<Request> Req = parseRequest(Line, NextId, &Error);
      if (!Req || Req->Command != Request::Kind::Analyze) {
        std::fprintf(stderr, "error: %s:%u: %s\n", Manifest.c_str(), LineNo,
                     Req ? "only analyze entries are valid in a manifest"
                         : Error.c_str());
        return 2;
      }
      Req->Spec.Id = NextId++; // Manifest ids are positional.
      if (!Req->ProgramFile.empty() &&
          !readProgram(Req->ProgramFile, Req->Spec.ProgramText)) {
        // readProgram already named the missing file; add which manifest
        // entry asked for it so a long manifest is debuggable.
        std::fprintf(stderr,
                     "error: %s:%u: cannot open program_file '%s'\n",
                     Manifest.c_str(), LineNo, Req->ProgramFile.c_str());
        return 2;
      }
      Batch.push_back(std::move(Req->Spec));
    }
  }

  for (uint64_t K = 0; K < Gen; ++K) {
    interp::GenOptions GO;
    GO.Seed = GenSeed + K;
    GO.MaxFnDepth = 3; // Exercise nested composition (F(G(a, b)), towers).
    JobSpec Spec;
    Spec.Id = NextId++;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gen/%04llu",
                  static_cast<unsigned long long>(K));
    Spec.Name = Name;
    Spec.ProgramText = interp::generateProgram(GO);
    Spec.Opts = Defaults;
    Batch.push_back(std::move(Spec));
  }

  if (Batch.empty()) {
    usage();
    return 2;
  }

  SchedulerOptions SO;
  SO.Workers = static_cast<unsigned>(Workers);
  SO.CacheBytes = CacheBytes;
  SO.CollectTraces = !TraceOut.empty();
  SO.Telemetry = !TelemetryOut.empty() || SlowMs != 0;
  SO.SlowMs = SlowMs;
  SO.ExemplarDir = ExemplarDir;

  std::shared_ptr<persist::PersistStore> Persist;
  if (!PersistDir.empty()) {
    Persist = std::make_shared<persist::PersistStore>(PersistDir,
                                                      PersistBudget);
    std::string PersistErr;
    if (!Persist->open(&PersistErr)) {
      std::fprintf(stderr, "error: %s\n", PersistErr.c_str());
      return 2;
    }
    SO.Persist = Persist;
  }

  std::ofstream EventLogOut;
  if (!EventLogPath.empty()) {
    EventLogOut.open(EventLogPath, std::ios::app);
    if (!EventLogOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n", EventLogPath.c_str());
      return 2;
    }
    obs::EventLog::global().open(&EventLogOut);
  }

  uint64_t JobsCompleted = 0;
  bool AllVerified = true;
  {
    AnalysisScheduler Scheduler(SO);
    for (uint64_t Pass = 0; Pass < Repeat; ++Pass) {
      for (const JobSpec &Spec : Batch) {
        JobSpec Submitted = Spec;
        Submitted.Id = Pass * Batch.size() + Spec.Id;
        Scheduler.submit(std::move(Submitted));
      }
      // Drain between passes: pass N+1 then hits the warm cache instead of
      // racing pass N's in-flight duplicates.
      Scheduler.waitIdle();
    }

    std::vector<JobResult> Results = Scheduler.takeResults();
    JobsCompleted = Results.size();
    for (const JobResult &R : Results) {
      AllVerified &= jobVerified(R.Status);
      std::printf("%s\n", resultToJsonLine(R).c_str());
    }

    if (ShowStats) {
      persist::PersistStats PS;
      if (Persist)
        PS = Persist->stats();
      std::fprintf(stderr, "%s\n",
                   statsToJsonLine(Scheduler.cacheStats(),
                                   Scheduler.snapshotCacheStats(),
                                   Scheduler.incrementalStats(),
                                   Scheduler.numWorkers(), JobsCompleted,
                                   Persist ? &PS : nullptr)
                       .c_str());
    }

    if (!TraceOut.empty()) {
      std::ofstream TOut(TraceOut);
      if (!TOut) {
        std::fprintf(stderr, "error: cannot write '%s'\n", TraceOut.c_str());
        return 2;
      }
      Scheduler.writeMergedTrace(TOut);
    }
    if (!MetricsOut.empty()) {
      std::ofstream MOut(MetricsOut);
      if (!MOut) {
        std::fprintf(stderr, "error: cannot write '%s'\n", MetricsOut.c_str());
        return 2;
      }
      obs::MetricsRegistry Merged;
      Scheduler.mergeMetricsInto(Merged);
      if (MetricsFormat == "prom")
        Merged.writePrometheus(MOut);
      else
        Merged.writeJson(MOut);
    }
    if (!TelemetryOut.empty()) {
      std::string Line = Scheduler.telemetryJsonLine();
      if (TelemetryOut == "-") {
        std::fprintf(stderr, "%s\n", Line.c_str());
      } else {
        std::ofstream TeleOut(TelemetryOut);
        if (!TeleOut) {
          std::fprintf(stderr, "error: cannot write '%s'\n",
                       TelemetryOut.c_str());
          return 2;
        }
        TeleOut << Line << "\n";
      }
    }
  }

  if (Persist) {
    std::string FlushErr;
    if (!Persist->flush(&FlushErr))
      std::fprintf(stderr, "warning: persist flush failed: %s\n",
                   FlushErr.c_str());
  }
  obs::EventLog::global().open(nullptr); // Before EventLogOut destructs.
  return AllVerified ? 0 : 1;
}
