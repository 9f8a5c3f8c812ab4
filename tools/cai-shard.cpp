//===- tools/cai-shard.cpp - Fingerprint-sharded front end -----------------===//
///
/// Routes the JSON-lines protocol across N cai-serve backends so N
/// processes behave as one cache: every analyze request is fingerprinted
/// locally (the same canonical fingerprint the backends key their caches
/// by) and forwarded to backend `low64(fingerprint) mod N`.  The same
/// job therefore always lands on the same process -- its ResultCache and
/// persist log -- regardless of submission order or repetition.
///
///   cai-shard --backend=HOST:PORT [--backend=HOST:PORT ...]
///
/// reads requests on stdin, writes responses on stdout, one line per
/// request in request order (forwarding is synchronous: a request's
/// response is relayed before the next request is read, which is what
/// makes the 2-shard output byte-identical to a 1-process run).
///
/// Fan-out commands:
///   stats      broadcast to every backend; the per-backend lines are
///              summed field-by-field deterministically (backend index
///              order, hit rates recomputed from the summed counters)
///              into one stats line
///   health     broadcast; workers/queue/jobs summed, uptime_us is the
///              maximum (wall-clock channel)
///   shutdown   broadcast, then exit; plain EOF closes the connections
///              and leaves the backends running
///
/// `program_file` requests are resolved locally (backends may run in
/// other working directories or on other hosts).  `telemetry` is not
/// fan-out-able (per-process wall-clock report) and answers bad-request.
///
/// Exit code: 0 on EOF/shutdown, 1 if a backend connection broke, 2 on
/// usage errors.
///
//===----------------------------------------------------------------------===//

#include "net/ShardRouter.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "support/TextIO.h"

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

using namespace cai;
using namespace cai::service;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: cai-shard --backend=HOST:PORT [--backend=HOST:PORT "
               "...]\n"
               "routes JSON-lines requests on stdin across the backends by "
               "fingerprint,\n"
               "writes JSON-lines responses on stdout\n");
}

void printLine(const std::string &Line) {
  std::fputs(Line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void printBadRequest(const std::string &Error) {
  Json Line = Json::object();
  Line.set("status", Json::str("bad-request"));
  Line.set("error", Json::str(Error));
  printLine(Line.dump());
}

/// Sums \p Objs (one per backend, structurally identical) field by field
/// in the first object's order: integers add, nested objects recurse,
/// everything else copies from the first.  "hit_rate_permille" is then
/// recomputed from the summed "hits"/"misses" of its block -- a rate is
/// not a sum.
Json sumStatsObjects(const std::vector<const Json *> &Objs) {
  Json Out = Json::object();
  for (const auto &[Key, V] : Objs[0]->fields()) {
    if (V.isObject()) {
      std::vector<const Json *> Children;
      for (const Json *O : Objs) {
        const Json *C = O->get(Key);
        if (!C || !C->isObject())
          return Json::object(); // Shape mismatch; caller reports it.
        Children.push_back(C);
      }
      Out.set(Key, sumStatsObjects(Children));
      continue;
    }
    if (V.kind() == Json::Kind::Int) {
      int64_t Sum = 0;
      for (const Json *O : Objs) {
        const Json *C = O->get(Key);
        Sum += C && C->isNumber() ? C->asInt() : 0;
      }
      Out.set(Key, Json::integer(Sum));
      continue;
    }
    Out.set(Key, V);
  }
  const Json *Rate = Out.get("hit_rate_permille");
  const Json *Hits = Out.get("hits");
  const Json *Misses = Out.get("misses");
  if (Rate && Hits && Misses) {
    int64_t H = Hits->asInt(), Lookups = H + Misses->asInt();
    // Rebuild with the recomputed rate in place (Json has no in-place
    // update; field order must be preserved).
    Json Fixed = Json::object();
    for (const auto &[Key, V] : Out.fields())
      Fixed.set(Key, Key == "hit_rate_permille"
                         ? Json::integer(Lookups == 0 ? 0
                                                      : (H * 1000) / Lookups)
                         : V);
    return Fixed;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Backends;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--backend=", 0) == 0) {
      // Accept comma-separated lists too: --backend=a:1,b:2.
      std::string Rest = Arg.substr(10);
      size_t Start = 0;
      while (Start <= Rest.size()) {
        size_t Comma = Rest.find(',', Start);
        std::string One = Rest.substr(
            Start, Comma == std::string::npos ? std::string::npos
                                              : Comma - Start);
        if (!One.empty()) {
          std::string Host;
          uint16_t Port = 0;
          if (!net::parseHostPort(One, &Host, &Port)) {
            std::fprintf(stderr,
                         "error: bad backend address '%s' (want HOST:PORT)\n",
                         One.c_str());
            usage();
            return 2;
          }
          Backends.push_back(One);
        }
        if (Comma == std::string::npos)
          break;
        Start = Comma + 1;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Backends.empty()) {
    std::fprintf(stderr, "error: at least one --backend is required\n");
    usage();
    return 2;
  }

  net::ShardRouter Router;
  std::string Error;
  if (!Router.connect(Backends, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  auto Broadcast = [&](const std::string &Line,
                       std::vector<std::string> *Replies) -> bool {
    for (unsigned I = 0; I < Router.numBackends(); ++I)
      if (!Router.backend(I).writeLine(Line))
        return false;
    if (!Replies)
      return true;
    Replies->clear();
    for (unsigned I = 0; I < Router.numBackends(); ++I) {
      std::string Reply;
      if (Router.backend(I).readLine(&Reply) != net::Conn::ReadStatus::Line)
        return false;
      Replies->push_back(std::move(Reply));
    }
    return true;
  };

  bool SentShutdown = false;
  uint64_t NextId = 0;
  for (std::string Line; std::getline(std::cin, Line);) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::optional<Request> Req = parseRequest(Line, NextId, &Error);
    if (!Req) {
      printBadRequest(Error);
      continue;
    }
    if (Req->Command == Request::Kind::Shutdown) {
      Broadcast(requestToJsonLine(*Req), nullptr);
      SentShutdown = true;
      break;
    }
    if (Req->Command == Request::Kind::Telemetry) {
      printBadRequest("telemetry is per-process; ask a backend directly");
      continue;
    }
    if (Req->Command == Request::Kind::Stats ||
        Req->Command == Request::Kind::Health) {
      std::vector<std::string> Replies;
      if (!Broadcast(requestToJsonLine(*Req), &Replies)) {
        std::fprintf(stderr, "error: backend connection broke\n");
        return 1;
      }
      std::vector<Json> Parsed;
      std::vector<const Json *> Ptrs;
      for (const std::string &R : Replies) {
        std::optional<Json> J = Json::parse(R);
        if (!J || !J->isObject()) {
          printBadRequest("unparseable backend reply");
          Parsed.clear();
          break;
        }
        Parsed.push_back(std::move(*J));
      }
      if (Parsed.empty())
        continue;
      for (const Json &J : Parsed)
        Ptrs.push_back(&J);
      Json Merged = sumStatsObjects(Ptrs);
      if (Req->Command == Request::Kind::Health) {
        // uptime_us is wall-clock per process: report the oldest backend
        // rather than a meaningless sum.
        int64_t MaxUp = 0;
        for (const Json &J : Parsed)
          if (const Json *Up = J.get("uptime_us"))
            MaxUp = std::max(MaxUp, Up->asInt());
        Json Fixed = Json::object();
        for (const auto &[Key, V] : Merged.fields())
          Fixed.set(Key,
                    Key == "uptime_us" ? Json::integer(MaxUp) : V);
        Merged = std::move(Fixed);
      }
      printLine(Merged.dump());
      continue;
    }

    // Analyze: resolve any file reference locally, fingerprint, route.
    if (!Req->ProgramFile.empty()) {
      if (!readFile(Req->ProgramFile, Req->Spec.ProgramText)) {
        printBadRequest("cannot open '" + Req->ProgramFile + "'");
        continue;
      }
      Req->ProgramFile.clear();
    }
    NextId = Req->Spec.Id + 1;
    unsigned Shard = Router.route(fingerprintJob(Req->Spec));
    net::Conn &Backend = Router.backend(Shard);
    std::string Reply;
    if (!Backend.writeLine(requestToJsonLine(*Req)) ||
        Backend.readLine(&Reply) != net::Conn::ReadStatus::Line) {
      std::fprintf(stderr, "error: backend %u connection broke\n", Shard);
      return 1;
    }
    printLine(Reply);
  }

  (void)SentShutdown; // EOF without shutdown leaves the backends running.
  Router.closeAll();
  return 0;
}
