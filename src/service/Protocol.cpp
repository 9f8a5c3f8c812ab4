//===- service/Protocol.cpp - JSON-lines wire protocol ---------------------===//

#include "service/Protocol.h"

#include "persist/PersistStore.h"

#include <climits>
#include <cmath>
#include <cstdint>
#include <sstream>

using namespace cai;
using namespace cai::service;

namespace {

/// Reads \p V into \p Out when it is a whole number in [0, Max]: a JSON
/// integer, or an integral double such as 2.0 (range-checked as a double
/// first, so the conversion is always defined).
template <typename T> bool wholeNumber(const Json &V, T &Out, uint64_t Max) {
  uint64_t N;
  if (V.kind() == Json::Kind::Int && V.asInt() >= 0)
    N = static_cast<uint64_t>(V.asInt());
  else if (V.kind() == Json::Kind::Double && V.asDouble() >= 0 &&
           V.asDouble() < 0x1p63 && V.asDouble() == std::floor(V.asDouble()))
    N = static_cast<uint64_t>(V.asDouble());
  else
    return false;
  if (N > Max)
    return false;
  Out = static_cast<T>(N);
  return true;
}

/// Lenient field readers for resultFromJsonLine: a missing or mistyped
/// field reads as zero, empty or false.
int64_t intField(const Json &Obj, const char *Key) {
  const Json *V = Obj.get(Key);
  return V && V->isNumber() ? V->asInt() : 0;
}

std::string strField(const Json &Obj, const char *Key) {
  const Json *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

bool boolField(const Json &Obj, const char *Key) {
  const Json *V = Obj.get(Key);
  return V && V->isBool() && V->asBool();
}

} // namespace

bool cai::service::jobOptionsFromJson(const Json &Obj, JobOptions &Opts,
                                      std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  // A count must fit its field: a value that wrapped or truncated would
  // run, and be cached, as a different job.
  auto Count = [&](const std::string &Key, const Json &V, auto &Field,
                   uint64_t Max) {
    return wholeNumber(V, Field, Max) ||
           Fail("option \"" + Key + "\" must be a whole number in [0, " +
                std::to_string(Max) + "]");
  };
  if (const Json *Domain = Obj.get("domain")) {
    if (!Domain->isString())
      return Fail("\"domain\" must be a string");
    Opts.DomainSpec = Domain->asString();
  }
  const Json *Options = Obj.get("options");
  if (!Options)
    return true;
  if (!Options->isObject())
    return Fail("\"options\" must be an object");
  for (const auto &[Key, V] : Options->fields()) {
    if (Key == "encode") {
      if (!V.isString())
        return Fail("option \"encode\" must be a string");
      Opts.Encode = V.asString();
    } else if (Key == "widening_delay") {
      if (!Count(Key, V, Opts.WideningDelay, UINT_MAX))
        return false;
    } else if (Key == "narrowing_passes") {
      if (!Count(Key, V, Opts.NarrowingPasses, UINT_MAX))
        return false;
    } else if (Key == "semantic_convergence") {
      if (!V.isBool())
        return Fail("option \"semantic_convergence\" must be a boolean");
      Opts.SemanticConvergence = V.asBool();
    } else if (Key == "memoize") {
      if (!V.isBool())
        return Fail("option \"memoize\" must be a boolean");
      Opts.Memoize = V.asBool();
    } else if (Key == "poly_max_rows") {
      if (!Count(Key, V, Opts.PolyMaxRows, INT64_MAX))
        return false;
    } else if (Key == "lint") {
      if (!V.isBool())
        return Fail("option \"lint\" must be a boolean");
      Opts.Lint = V.asBool();
    } else if (Key == "lint_checks") {
      if (!V.isString())
        return Fail("option \"lint_checks\" must be a string");
      std::string LintErr;
      if (!lint::validateLintChecks(V.asString(), &LintErr))
        return Fail(LintErr);
      Opts.LintChecks = V.asString();
    } else if (Key == "timeout_ms") {
      if (!Count(Key, V, Opts.TimeoutMs, INT64_MAX))
        return false;
    } else if (Key == "test_crash") {
      if (!V.isBool())
        return Fail("option \"test_crash\" must be a boolean");
      Opts.TestCrash = V.asBool();
    } else {
      return Fail("unknown option \"" + Key + "\"");
    }
  }
  return true;
}

std::optional<Request>
cai::service::parseRequest(const std::string &Line, uint64_t DefaultId,
                           std::string *Error) {
  std::optional<Json> J = Json::parse(Line, Error);
  if (!J)
    return std::nullopt;
  auto Fail = [&](const std::string &Msg) -> std::optional<Request> {
    if (Error)
      *Error = Msg;
    return std::nullopt;
  };
  if (!J->isObject())
    return Fail("request must be a JSON object");

  Request Req;
  if (const Json *Cmd = J->get("cmd")) {
    if (!Cmd->isString())
      return Fail("\"cmd\" must be a string");
    if (Cmd->asString() == "stats") {
      Req.Command = Request::Kind::Stats;
      return Req;
    }
    if (Cmd->asString() == "shutdown") {
      Req.Command = Request::Kind::Shutdown;
      return Req;
    }
    if (Cmd->asString() == "health" || Cmd->asString() == "ping") {
      Req.Command = Request::Kind::Health;
      return Req;
    }
    if (Cmd->asString() == "telemetry") {
      Req.Command = Request::Kind::Telemetry;
      return Req;
    }
    if (Cmd->asString() == "analyze_edit") {
      // Falls through to the analyze parse below with the edit flag set.
      Req.Spec.Edit = true;
    } else if (Cmd->asString() == "lint") {
      // An analyze with the lint passes on: same parse, same result line
      // plus a "findings" array.
      Req.Spec.Opts.Lint = true;
    } else {
      return Fail("unknown cmd \"" + Cmd->asString() + "\"");
    }
  }

  Req.Command = Request::Kind::Analyze;
  Req.Spec.Id = DefaultId;
  if (const Json *Id = J->get("id")) {
    if (!wholeNumber(*Id, Req.Spec.Id, INT64_MAX))
      return Fail("\"id\" must be a whole number in [0, " +
                  std::to_string(INT64_MAX) + "]");
  }
  if (const Json *Name = J->get("name")) {
    if (!Name->isString())
      return Fail("\"name\" must be a string");
    Req.Spec.Name = Name->asString();
  }
  if (const Json *Pid = J->get("program_id")) {
    if (!Pid->isString())
      return Fail("\"program_id\" must be a string");
    Req.Spec.ProgramId = Pid->asString();
  }
  const Json *Program = J->get("program");
  const Json *ProgramFile = J->get("program_file");
  if (Program && ProgramFile)
    return Fail("give either \"program\" or \"program_file\", not both");
  if (Program) {
    if (!Program->isString())
      return Fail("\"program\" must be a string");
    Req.Spec.ProgramText = Program->asString();
  } else if (ProgramFile) {
    if (!ProgramFile->isString())
      return Fail("\"program_file\" must be a string");
    Req.ProgramFile = ProgramFile->asString();
    if (Req.Spec.Name.empty())
      Req.Spec.Name = Req.ProgramFile;
  } else {
    return Fail("request needs \"program\" or \"program_file\"");
  }
  if (!jobOptionsFromJson(*J, Req.Spec.Opts, Error))
    return std::nullopt;
  return Req;
}

std::string cai::service::resultToJsonLine(const JobResult &R) {
  Json Line = Json::object();
  Line.set("id", Json::integer(static_cast<int64_t>(R.Id)));
  Line.set("name", Json::str(R.Name));
  Line.set("fingerprint", Json::str(R.Fingerprint));
  Line.set("status", Json::str(statusName(R.Status)));
  Line.set("domain", Json::str(R.Domain));
  Line.set("cached", Json::boolean(R.CacheHit));
  Line.set("verified", Json::integer(R.NumVerified));
  Json Asserts = Json::array();
  for (const AssertionVerdict &V : R.Assertions) {
    Json A = Json::object();
    A.set("label", Json::str(V.Label));
    A.set("verified", Json::boolean(V.Verified));
    Asserts.push(std::move(A));
  }
  Line.set("assertions", std::move(Asserts));
  if (R.Linted) {
    Json Findings = Json::array();
    for (const lint::LintFinding &F : R.Findings) {
      Json Obj = Json::object();
      Obj.set("rule", Json::str(F.Rule));
      Obj.set("level", Json::str(F.Level));
      Obj.set("line", Json::integer(F.Line));
      Obj.set("col", Json::integer(F.Col));
      Obj.set("message", Json::str(F.Message));
      Obj.set("domain", Json::str(F.Domain));
      Findings.push(std::move(Obj));
    }
    Line.set("findings", std::move(Findings));
  }
  Json Stats = Json::object();
  Stats.set("joins", Json::integer(static_cast<int64_t>(R.Stats.Joins)));
  Stats.set("widenings",
            Json::integer(static_cast<int64_t>(R.Stats.Widenings)));
  Stats.set("transfers",
            Json::integer(static_cast<int64_t>(R.Stats.Transfers)));
  Stats.set("max_node_updates", Json::integer(R.Stats.MaxNodeUpdates));
  Line.set("stats", std::move(Stats));
  Line.set("error", Json::str(R.Error));
  return Line.dump();
}

std::optional<JobResult>
cai::service::resultFromJsonLine(std::string_view Line) {
  std::optional<Json> J = Json::parse(Line);
  if (!J || !J->isObject())
    return std::nullopt;
  JobResult R;
  R.Fingerprint = strField(*J, "fingerprint");
  if (R.Fingerprint.empty() ||
      !statusFromName(strField(*J, "status"), &R.Status))
    return std::nullopt;
  R.Domain = strField(*J, "domain");
  R.NumVerified = unsigned(intField(*J, "verified"));
  if (const Json *Asserts = J->get("assertions")) {
    if (!Asserts->isArray())
      return std::nullopt;
    for (const Json &A : Asserts->items())
      R.Assertions.push_back({strField(A, "label"), boolField(A, "verified")});
  }
  if (const Json *Findings = J->get("findings")) {
    if (!Findings->isArray())
      return std::nullopt;
    R.Linted = true;
    for (const Json &Obj : Findings->items()) {
      lint::LintFinding F;
      F.Rule = strField(Obj, "rule");
      F.Level = strField(Obj, "level");
      F.Line = uint32_t(intField(Obj, "line"));
      F.Col = uint32_t(intField(Obj, "col"));
      F.Message = strField(Obj, "message");
      F.Domain = strField(Obj, "domain");
      R.Findings.push_back(std::move(F));
    }
  }
  if (const Json *Stats = J->get("stats")) {
    if (!Stats->isObject())
      return std::nullopt;
    R.Stats.Joins = static_cast<unsigned long>(intField(*Stats, "joins"));
    R.Stats.Widenings =
        static_cast<unsigned long>(intField(*Stats, "widenings"));
    R.Stats.Transfers =
        static_cast<unsigned long>(intField(*Stats, "transfers"));
    R.Stats.MaxNodeUpdates = unsigned(intField(*Stats, "max_node_updates"));
  }
  R.Error = strField(*J, "error");
  return R;
}

std::string cai::service::statsToJsonLine(const ResultCacheStats &CS,
                                          const SnapshotCacheStats &SS,
                                          const IncrementalStats &IS,
                                          unsigned Workers,
                                          uint64_t JobsCompleted,
                                          const persist::PersistStats *PS) {
  Json Line = Json::object();
  Line.set("stats", Json::boolean(true));
  Line.set("workers", Json::integer(Workers));
  Line.set("jobs_completed", Json::integer(static_cast<int64_t>(JobsCompleted)));
  Json Cache = Json::object();
  Cache.set("hits", Json::integer(static_cast<int64_t>(CS.Hits)));
  Cache.set("misses", Json::integer(static_cast<int64_t>(CS.Misses)));
  Cache.set("insertions", Json::integer(static_cast<int64_t>(CS.Insertions)));
  Cache.set("evictions", Json::integer(static_cast<int64_t>(CS.Evictions)));
  Cache.set("entries", Json::integer(static_cast<int64_t>(CS.Entries)));
  Cache.set("bytes", Json::integer(static_cast<int64_t>(CS.Bytes)));
  Cache.set("byte_budget", Json::integer(static_cast<int64_t>(CS.ByteBudget)));
  // Tenths of a percent as an integer: deterministic without touching
  // double formatting.
  uint64_t Lookups = CS.Hits + CS.Misses;
  Cache.set("hit_rate_permille",
            Json::integer(Lookups == 0 ? 0
                                       : static_cast<int64_t>(
                                             (CS.Hits * 1000) / Lookups)));
  Line.set("cache", std::move(Cache));
  Json Snap = Json::object();
  Snap.set("hits", Json::integer(static_cast<int64_t>(SS.Hits)));
  Snap.set("misses", Json::integer(static_cast<int64_t>(SS.Misses)));
  Snap.set("insertions", Json::integer(static_cast<int64_t>(SS.Insertions)));
  Snap.set("evictions", Json::integer(static_cast<int64_t>(SS.Evictions)));
  Snap.set("entries", Json::integer(static_cast<int64_t>(SS.Entries)));
  Snap.set("bytes", Json::integer(static_cast<int64_t>(SS.Bytes)));
  Line.set("snapshot_cache", std::move(Snap));
  Json Inc = Json::object();
  Inc.set("edits", Json::integer(static_cast<int64_t>(IS.Edits)));
  Inc.set("components_reused",
          Json::integer(static_cast<int64_t>(IS.ComponentsReused)));
  Inc.set("components_recomputed",
          Json::integer(static_cast<int64_t>(IS.ComponentsRecomputed)));
  Inc.set("fallbacks", Json::integer(static_cast<int64_t>(IS.Fallbacks)));
  Line.set("incremental", std::move(Inc));
  if (PS) {
    Json P = Json::object();
    P.set("hits", Json::integer(static_cast<int64_t>(PS->Hits)));
    P.set("misses", Json::integer(static_cast<int64_t>(PS->Misses)));
    P.set("appends", Json::integer(static_cast<int64_t>(PS->Appends)));
    P.set("flushes", Json::integer(static_cast<int64_t>(PS->Flushes)));
    P.set("corrupt", Json::integer(static_cast<int64_t>(PS->Corrupt)));
    P.set("stale_files",
          Json::integer(static_cast<int64_t>(PS->StaleFiles)));
    P.set("compactions",
          Json::integer(static_cast<int64_t>(PS->Compactions)));
    P.set("evictions", Json::integer(static_cast<int64_t>(PS->Evictions)));
    P.set("replayed", Json::integer(static_cast<int64_t>(PS->Replayed)));
    P.set("live_records",
          Json::integer(static_cast<int64_t>(PS->LiveRecords)));
    P.set("log_bytes", Json::integer(static_cast<int64_t>(PS->LogBytes)));
    P.set("byte_budget",
          Json::integer(static_cast<int64_t>(PS->ByteBudget)));
    uint64_t PLookups = PS->Hits + PS->Misses;
    P.set("hit_rate_permille",
          Json::integer(PLookups == 0 ? 0
                                      : static_cast<int64_t>(
                                            (PS->Hits * 1000) / PLookups)));
    Line.set("persist", std::move(P));
  }
  return Line.dump();
}

std::string cai::service::requestToJsonLine(const Request &Req) {
  Json Line = Json::object();
  switch (Req.Command) {
  case Request::Kind::Stats:
    return Line.set("cmd", Json::str("stats")).dump();
  case Request::Kind::Shutdown:
    return Line.set("cmd", Json::str("shutdown")).dump();
  case Request::Kind::Health:
    return Line.set("cmd", Json::str("health")).dump();
  case Request::Kind::Telemetry:
    return Line.set("cmd", Json::str("telemetry")).dump();
  case Request::Kind::Analyze:
    break;
  }
  if (Req.Spec.Edit)
    Line.set("cmd", Json::str("analyze_edit"));
  Line.set("id", Json::integer(static_cast<int64_t>(Req.Spec.Id)));
  if (!Req.Spec.Name.empty())
    Line.set("name", Json::str(Req.Spec.Name));
  if (!Req.Spec.ProgramId.empty())
    Line.set("program_id", Json::str(Req.Spec.ProgramId));
  Line.set("program", Json::str(Req.Spec.ProgramText));
  const JobOptions Defaults;
  const JobOptions &O = Req.Spec.Opts;
  if (O.DomainSpec != Defaults.DomainSpec)
    Line.set("domain", Json::str(O.DomainSpec));
  Json Options = Json::object();
  if (!O.Encode.empty())
    Options.set("encode", Json::str(O.Encode));
  if (O.WideningDelay != Defaults.WideningDelay)
    Options.set("widening_delay", Json::integer(O.WideningDelay));
  if (O.NarrowingPasses != Defaults.NarrowingPasses)
    Options.set("narrowing_passes", Json::integer(O.NarrowingPasses));
  if (O.SemanticConvergence != Defaults.SemanticConvergence)
    Options.set("semantic_convergence",
                Json::boolean(O.SemanticConvergence));
  if (O.Memoize != Defaults.Memoize)
    Options.set("memoize", Json::boolean(O.Memoize));
  // SIZE_MAX means "build default" and has no wire spelling (the wire
  // value 0 means unlimited), so only a real cap is forwarded.
  if (O.PolyMaxRows != Defaults.PolyMaxRows)
    Options.set("poly_max_rows",
                Json::integer(static_cast<int64_t>(O.PolyMaxRows)));
  if (O.Lint != Defaults.Lint)
    Options.set("lint", Json::boolean(O.Lint));
  if (!O.LintChecks.empty())
    Options.set("lint_checks", Json::str(O.LintChecks));
  if (O.TimeoutMs != Defaults.TimeoutMs)
    Options.set("timeout_ms",
                Json::integer(static_cast<int64_t>(O.TimeoutMs)));
  if (O.TestCrash)
    Options.set("test_crash", Json::boolean(true));
  if (!Options.fields().empty())
    Line.set("options", std::move(Options));
  return Line.dump();
}

std::string cai::service::healthToJsonLine(unsigned Workers,
                                           uint64_t QueueDepth,
                                           uint64_t JobsFinished,
                                           uint64_t UptimeUs) {
  Json Line = Json::object();
  Line.set("health", Json::str("ok"));
  Line.set("workers", Json::integer(Workers));
  Line.set("queue_depth", Json::integer(static_cast<int64_t>(QueueDepth)));
  Line.set("jobs_finished", Json::integer(static_cast<int64_t>(JobsFinished)));
  Line.set("uptime_us", Json::integer(static_cast<int64_t>(UptimeUs)));
  return Line.dump();
}
