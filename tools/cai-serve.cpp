//===- tools/cai-serve.cpp - Long-running analysis service -----------------===//
///
/// A long-running analysis server speaking JSON-lines over stdin/stdout
/// (sandbox-friendly and scriptable) or, with --listen, over TCP.  Each
/// input line is one request:
///
///   {"id":1,"name":"fig1","program":"x := 0; ...","domain":"logical:poly,uf",
///    "options":{"timeout_ms":500}}       submit an analysis
///   {"id":2,"program_file":"examples/fig1.imp"}   ... from a file
///   {"cmd":"analyze_edit","program_id":"fig1","program":"x := 1; ..."}
///                                        analyze an edited program,
///                                        reusing the previous version's
///                                        fixpoint where the CFG is
///                                        unchanged (same result bytes)
///   {"cmd":"stats"}                      drain, then report statistics
///   {"cmd":"health"} (or "ping")         liveness probe -- NO drain
///   {"cmd":"telemetry"}                  live latency/utilization report
///                                        -- NO drain, wall-clock data on
///                                        its own channel
///   {"cmd":"shutdown"}                   drain outstanding jobs and exit
///
/// Responses stream as jobs complete (match them to requests by "id"; with
/// --jobs > 1 completion order is not submission order).  A malformed line
/// gets a {"status":"bad-request",...} response and the server keeps
/// going; EOF on stdin behaves like shutdown.
///
///   cai-serve [--jobs=N] [--cache-bytes=N] [--trace-out=FILE]
///             [--no-telemetry] [--slow-ms=N] [--exemplar-dir=DIR]
///             [--event-log=FILE] [--metrics-out=FILE]
///             [--metrics-format=json|prom]
///             [--listen=HOST:PORT] [--port-file=FILE]
///             [--read-timeout-ms=N] [--max-line-bytes=N]
///             [--persist-dir=DIR] [--persist-budget=N]
///
/// --listen accepts TCP connections carrying the same JSON-lines protocol
/// byte-for-byte (the stdio-vs-TCP determinism test compares them);
/// connections are served one at a time, each isolated by an optional
/// read timeout and a max-line bound -- a stalled or oversized peer loses
/// its connection, never the process.  Closing a TCP connection does NOT
/// shut the server down (unlike stdin EOF); send {"cmd":"shutdown"} or a
/// signal.  --port-file writes the actually bound port (use --listen with
/// port 0 for an ephemeral one) for harnesses.
///
/// --persist-dir attaches the disk cache tier: completed results append
/// to a checksummed record log there and survive restarts (replayed into
/// the in-memory cache on startup); --persist-budget bounds the log's
/// bytes via compaction (0 = unbounded).
///
/// SIGINT/SIGTERM shut down cleanly: drain in-flight jobs, flush + fsync
/// the persist log, emit a final `shutdown` event, exit 0.
///
/// Telemetry is ON by default (per-job lifecycle spans feed the
/// `telemetry` command); it never touches the deterministic result/stats
/// bytes.  --slow-ms=N dumps a per-job engine trace for any job slower
/// than N ms into --exemplar-dir (Perfetto-loadable).  --event-log
/// appends the structured JSON-lines event log (evictions, fallbacks,
/// failures).  --metrics-out writes merged metrics at shutdown, as
/// nested JSON or Prometheus text exposition per --metrics-format.
///
/// Exit code: 0 on clean shutdown/EOF/signal, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "net/Conn.h"
#include "net/Listener.h"
#include "obs/EventLog.h"
#include "persist/PersistStore.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "support/Decimal.h"
#include "support/TextIO.h"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

using namespace cai;
using namespace cai::service;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: cai-serve [--jobs=N] [--cache-bytes=N] "
               "[--trace-out=FILE]\n"
               "                 [--no-telemetry] [--slow-ms=N] "
               "[--exemplar-dir=DIR]\n"
               "                 [--event-log=FILE] [--metrics-out=FILE] "
               "[--metrics-format=json|prom]\n"
               "                 [--listen=HOST:PORT] [--port-file=FILE]\n"
               "                 [--read-timeout-ms=N] [--max-line-bytes=N]\n"
               "                 [--persist-dir=DIR] [--persist-budget=N]\n"
               "reads JSON-lines requests on stdin (or TCP with --listen), "
               "writes JSON-lines responses\n");
}

/// Serializes writers: results stream from worker threads while the main
/// thread answers stats and bad-request lines.  In TCP mode the active
/// connection replaces stdout as the sink (one connection at a time, and
/// the scheduler drains before the sink changes, so no response can race
/// a connection swap).
std::mutex OutMu;
net::Conn *CurrentConn = nullptr;

void printLine(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(OutMu);
  if (CurrentConn) {
    CurrentConn->writeLine(Line);
    return;
  }
  std::fputs(Line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void setSink(net::Conn *C) {
  std::lock_guard<std::mutex> Lock(OutMu);
  CurrentConn = C;
}

void printBadRequest(const std::string &Error) {
  Json Line = Json::object();
  Line.set("status", Json::str("bad-request"));
  Line.set("error", Json::str(Error));
  printLine(Line.dump());
}

/// Set by SIGINT/SIGTERM.  The handlers are installed WITHOUT SA_RESTART,
/// so a blocked accept()/read()/getline() returns EINTR and the serve
/// loops fall through to the drain path instead of dying mid-write.
std::atomic<bool> SigShutdown{false};

void onSignal(int) { SigShutdown.store(true, std::memory_order_relaxed); }

void installSignalHandlers() {
  struct sigaction SA = {};
  SA.sa_handler = onSignal;
  ::sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // Deliberately no SA_RESTART.
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN); // A dead peer is the peer's problem.
}

/// Everything one request line needs.
struct ServeContext {
  AnalysisScheduler *Scheduler = nullptr;
  std::shared_ptr<persist::PersistStore> Persist;
  uint64_t NextId = 0;
};

enum class LineOutcome { Continue, Shutdown };

/// Parses and dispatches one request line; shared verbatim by the stdio
/// and TCP front ends (which is what keeps the two transports
/// byte-identical).
LineOutcome handleLine(ServeContext &Ctx, const std::string &Line) {
  if (Line.find_first_not_of(" \t\r") == std::string::npos)
    return LineOutcome::Continue;
  std::string Error;
  std::optional<Request> Req = parseRequest(Line, Ctx.NextId, &Error);
  if (!Req) {
    printBadRequest(Error);
    return LineOutcome::Continue;
  }
  AnalysisScheduler &Scheduler = *Ctx.Scheduler;
  if (Req->Command == Request::Kind::Shutdown)
    return LineOutcome::Shutdown;
  if (Req->Command == Request::Kind::Health) {
    // Deliberately no drain: a liveness probe must not perturb
    // scheduling (stats, by contrast, drains for determinism).
    printLine(healthToJsonLine(Scheduler.numWorkers(), Scheduler.queueDepth(),
                               Scheduler.jobsFinished(),
                               Scheduler.uptimeUs()));
    return LineOutcome::Continue;
  }
  if (Req->Command == Request::Kind::Telemetry) {
    // No drain either: the hub is mutex-guarded, so a live snapshot is
    // safe while workers are mid-job.  Wall-clock data only -- this
    // line is a different channel than the deterministic stats line.
    printLine(Scheduler.telemetryJsonLine());
    return LineOutcome::Continue;
  }
  if (Req->Command == Request::Kind::Stats) {
    // Stats describe a quiesced scheduler: drain first so the numbers
    // are complete (and deterministic for the protocol test).
    Scheduler.waitIdle();
    persist::PersistStats PS;
    if (Ctx.Persist)
      PS = Ctx.Persist->stats();
    printLine(statsToJsonLine(
        Scheduler.cacheStats(), Scheduler.snapshotCacheStats(),
        Scheduler.incrementalStats(), Scheduler.numWorkers(),
        Scheduler.jobsFinished(), Ctx.Persist ? &PS : nullptr));
    return LineOutcome::Continue;
  }
  if (!Req->ProgramFile.empty() &&
      !readFile(Req->ProgramFile, Req->Spec.ProgramText)) {
    printBadRequest("cannot open '" + Req->ProgramFile + "'");
    return LineOutcome::Continue;
  }
  Ctx.NextId = Req->Spec.Id + 1;
  Scheduler.submit(std::move(Req->Spec));
  return LineOutcome::Continue;
}

/// Connection-level counters for the net.* metrics block.
struct NetCounters {
  uint64_t Connections = 0;
  uint64_t Lines = 0;
  uint64_t BadLines = 0;
  uint64_t Timeouts = 0;
  uint64_t TooLong = 0;
};

/// Serves TCP connections until a shutdown command or signal.  One
/// connection at a time: the scheduler's worker pool is the concurrency;
/// the transport stays strictly ordered so responses are byte-stable.
void serveTcp(ServeContext &Ctx, net::Listener &Listener,
              unsigned ReadTimeoutMs, size_t MaxLineBytes, NetCounters &NC) {
  bool Shutdown = false;
  while (!Shutdown && !SigShutdown.load(std::memory_order_relaxed)) {
    bool Interrupted = false;
    int Fd = Listener.acceptConn(&Interrupted);
    if (Fd < 0) {
      if (Interrupted)
        continue; // Signal: loop re-checks SigShutdown.
      break;      // Listener broke; nothing left to accept.
    }
    ++NC.Connections;
    net::Conn Conn(Fd);
    if (ReadTimeoutMs)
      Conn.setReadTimeoutMs(ReadTimeoutMs);
    Conn.setMaxLineBytes(MaxLineBytes);
    setSink(&Conn);
    for (;;) {
      std::string Line;
      net::Conn::ReadStatus RS = Conn.readLine(&Line);
      if (RS == net::Conn::ReadStatus::Line) {
        ++NC.Lines;
        if (handleLine(Ctx, Line) == LineOutcome::Shutdown) {
          Shutdown = true;
          break;
        }
        continue;
      }
      if (RS == net::Conn::ReadStatus::Timeout) {
        // Per-connection isolation: a stalled peer loses its
        // connection, the server keeps accepting.
        ++NC.Timeouts;
        printBadRequest("read timeout");
      } else if (RS == net::Conn::ReadStatus::TooLong) {
        ++NC.TooLong;
        ++NC.BadLines;
        printBadRequest("line exceeds max-line-bytes");
      } else if (RS == net::Conn::ReadStatus::Interrupted &&
                 !SigShutdown.load(std::memory_order_relaxed)) {
        continue; // Spurious signal; keep reading.
      }
      break; // Eof, Timeout, TooLong, Error, or signal-driven exit.
    }
    // Drain before the sink goes away: every in-flight job's response
    // belongs to this connection.
    Ctx.Scheduler->waitIdle();
    setSink(nullptr);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Workers = 1;
  uint64_t CacheBytes = 64ull << 20;
  uint64_t SlowMs = 0;
  uint64_t ReadTimeoutMs = 0;
  uint64_t MaxLineBytes = 32ull << 20;
  uint64_t PersistBudget = 0;
  bool Telemetry = true;
  std::string TraceOut;
  std::string ExemplarDir;
  std::string EventLogPath;
  std::string MetricsOut;
  std::string MetricsFormat = "json";
  std::string ListenAddr;
  std::string PortFile;
  std::string PersistDir;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Number = [&](size_t Prefix, uint64_t &Out,
                      uint64_t Max = UINT64_MAX) {
      if (parseDecimal(Arg.substr(Prefix), Out, Max))
        return true;
      std::fprintf(stderr, "error: '%s' expects a number\n", Arg.c_str());
      return false;
    };
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!Number(7, Workers, UINT_MAX) || Workers == 0) {
        std::fprintf(stderr, "error: --jobs expects a positive number\n");
        return 2;
      }
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      if (!Number(14, CacheBytes))
        return 2;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TraceOut = Arg.substr(12);
    } else if (Arg == "--no-telemetry") {
      Telemetry = false;
    } else if (Arg.rfind("--slow-ms=", 0) == 0) {
      if (!Number(10, SlowMs))
        return 2;
    } else if (Arg.rfind("--exemplar-dir=", 0) == 0) {
      ExemplarDir = Arg.substr(15);
    } else if (Arg.rfind("--event-log=", 0) == 0) {
      EventLogPath = Arg.substr(12);
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Arg.substr(14);
    } else if (Arg.rfind("--metrics-format=", 0) == 0) {
      MetricsFormat = Arg.substr(17);
      if (MetricsFormat != "json" && MetricsFormat != "prom") {
        std::fprintf(stderr,
                     "error: --metrics-format expects 'json' or 'prom'\n");
        return 2;
      }
    } else if (Arg.rfind("--listen=", 0) == 0) {
      ListenAddr = Arg.substr(9);
    } else if (Arg.rfind("--port-file=", 0) == 0) {
      PortFile = Arg.substr(12);
    } else if (Arg.rfind("--read-timeout-ms=", 0) == 0) {
      if (!Number(18, ReadTimeoutMs))
        return 2;
    } else if (Arg.rfind("--max-line-bytes=", 0) == 0) {
      if (!Number(17, MaxLineBytes))
        return 2;
    } else if (Arg.rfind("--persist-dir=", 0) == 0) {
      PersistDir = Arg.substr(14);
    } else if (Arg.rfind("--persist-budget=", 0) == 0) {
      if (!Number(17, PersistBudget))
        return 2;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  installSignalHandlers();

  SchedulerOptions SO;
  SO.Workers = static_cast<unsigned>(Workers);
  SO.CacheBytes = CacheBytes;
  SO.CollectTraces = !TraceOut.empty();
  SO.Telemetry = Telemetry;
  SO.SlowMs = SlowMs;
  SO.ExemplarDir = ExemplarDir;

  std::ofstream EventLogOut;
  if (!EventLogPath.empty()) {
    EventLogOut.open(EventLogPath, std::ios::app);
    if (!EventLogOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n", EventLogPath.c_str());
      return 2;
    }
    obs::EventLog::global().open(&EventLogOut);
  }

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

  net::Listener Listener;
  if (!ListenAddr.empty()) {
    std::string NetErr;
    if (!Listener.listenOn(ListenAddr, &NetErr)) {
      std::fprintf(stderr, "error: %s\n", NetErr.c_str());
      return 2;
    }
    if (!PortFile.empty()) {
      std::ofstream PF(PortFile);
      if (!PF) {
        std::fprintf(stderr, "error: cannot write '%s'\n", PortFile.c_str());
        return 2;
      }
      PF << Listener.port() << "\n";
    }
  }

  ServeContext Ctx;
  AnalysisScheduler Scheduler(SO);
  Ctx.Scheduler = &Scheduler;
  Ctx.Persist = Persist;
  Scheduler.onResult(
      [](const JobResult &R) { printLine(resultToJsonLine(R)); });

  const char *ShutdownReason = "eof";
  NetCounters NC;
  if (Listener.valid()) {
    serveTcp(Ctx, Listener, static_cast<unsigned>(ReadTimeoutMs),
             static_cast<size_t>(MaxLineBytes), NC);
    ShutdownReason = SigShutdown.load(std::memory_order_relaxed)
                         ? "signal"
                         : "shutdown-command";
    Listener.close();
  } else {
    for (std::string Line; std::getline(std::cin, Line);) {
      if (handleLine(Ctx, Line) == LineOutcome::Shutdown) {
        ShutdownReason = "shutdown-command";
        break;
      }
      if (SigShutdown.load(std::memory_order_relaxed))
        break;
    }
    if (SigShutdown.load(std::memory_order_relaxed))
      ShutdownReason = "signal";
  }

  // Clean shutdown, whatever the trigger (command, EOF, SIGINT/SIGTERM):
  // drain in-flight jobs, make the persist log durable, emit the final
  // shutdown event, then export traces/metrics.
  Scheduler.waitIdle();
  bool PersistFlushed = true;
  if (Persist) {
    std::string FlushErr;
    PersistFlushed = Persist->flush(&FlushErr);
    if (!PersistFlushed)
      std::fprintf(stderr, "warning: persist flush failed: %s\n",
                   FlushErr.c_str());
  }
  if (obs::EventLog::global().enabled())
    obs::EventLog::global().emit(
        obs::Severity::Info, "service", "shutdown",
        {obs::EventField::str("reason", ShutdownReason),
         obs::EventField::num("jobs_completed", Scheduler.jobsFinished()),
         obs::EventField::num("persist_flushed", PersistFlushed ? 1 : 0)});
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
    if (!ListenAddr.empty()) {
      Merged.counter("net.connections").inc(NC.Connections);
      Merged.counter("net.lines").inc(NC.Lines);
      Merged.counter("net.bad_lines").inc(NC.BadLines);
      Merged.counter("net.timeouts").inc(NC.Timeouts);
      Merged.counter("net.too_long").inc(NC.TooLong);
    }
    if (MetricsFormat == "prom")
      Merged.writePrometheus(MOut);
    else
      Merged.writeJson(MOut);
  }
  obs::EventLog::global().open(nullptr); // Before EventLogOut destructs.
  return 0;
}
