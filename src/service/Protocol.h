//===- service/Protocol.h - JSON-lines wire protocol ------------*- C++ -*-===//
///
/// \file
/// The analysis service's wire format, shared by `cai-serve` (requests and
/// responses over stdin/stdout) and `cai-batch` (manifest entries in,
/// result lines out).  One JSON object per line; responses emit fields in
/// a fixed order and carry no timing, so a batch's output is byte-stable
/// across worker counts and runs (the `--jobs 8` vs `--jobs 1` determinism
/// test compares the bytes).
///
/// Request lines (cai-serve):
///   {"id":1,"name":"fig1","program":"x := 0; ...","domain":"logical:poly,uf",
///    "options":{"encode":"comm","widening_delay":4,"timeout_ms":500}}
///   {"cmd":"analyze_edit","program_id":"fig1","program":"x := 1; ..."}
///   {"cmd":"stats"}
///   {"cmd":"shutdown"}
///
/// `analyze_edit` is a plain analyze whose result may be computed
/// incrementally: the service seeds the fixpoint with the retained
/// snapshot of the program's previous version (matched by "program_id",
/// or fuzzily by canonical-text prefix when the id is absent).  The
/// response line is byte-identical to what a plain analyze would emit.
///
/// Manifest entries (cai-batch --manifest) use the same shape minus "id"
/// (ids are assigned by position) and may name a file instead of inline
/// text: {"program_file":"examples/fig1.imp", ...}.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_PROTOCOL_H
#define CAI_SERVICE_PROTOCOL_H

#include "service/Job.h"
#include "service/Json.h"
#include "service/ResultCache.h"
#include "service/SnapshotCache.h"

#include <optional>
#include <string>

namespace cai {
namespace persist {
struct PersistStats;
}
namespace service {

/// One parsed request line.
struct Request {
  enum class Kind : uint8_t {
    Analyze,   ///< Submit the job in Spec (after resolving ProgramFile).
    Stats,     ///< {"cmd":"stats"} -- report scheduler/cache statistics.
    Shutdown,  ///< {"cmd":"shutdown"} -- drain and exit.
    Health,    ///< {"cmd":"health"} / {"cmd":"ping"} -- liveness, NO drain.
    Telemetry, ///< {"cmd":"telemetry"} -- live timing report, NO drain.
  };

  Kind Command = Kind::Analyze;
  JobSpec Spec;
  /// Non-empty when the request named a file ("program_file") instead of
  /// inline text; the caller resolves it into Spec.ProgramText (the
  /// protocol layer does no I/O).
  std::string ProgramFile;
};

/// Applies the "domain" and "options" fields of \p Obj onto \p Opts.
/// Unknown option keys are errors (they are more likely typos than
/// intentions).  Returns false and sets \p Error on failure.
bool jobOptionsFromJson(const Json &Obj, JobOptions &Opts, std::string *Error);

/// Parses one request line.  \p DefaultId is used when the object carries
/// no "id" (cai-serve numbers requests by arrival).  Returns std::nullopt
/// and sets \p Error on malformed input.
std::optional<Request> parseRequest(const std::string &Line,
                                    uint64_t DefaultId, std::string *Error);

/// Serializes \p R as one deterministic JSON result line (no newline):
/// fixed field order, no timing fields.  The line is also the payload of
/// a persist record (persist/PersistStore.h), so this and
/// resultFromJsonLine() are the only code that names a result's fields.
std::string resultToJsonLine(const JobResult &R);

/// Reads back a line resultToJsonLine() wrote: fingerprint, status,
/// domain, verdicts, findings, the four stats the line carries, and the
/// error.  The request-side fields (id, name, cached) are not read -- a
/// served result takes them from the request it answers -- so they stay
/// 0, empty and false, as do the stats and the finding node the line
/// leaves out.  Returns std::nullopt on malformed input: not a JSON
/// object, no fingerprint, an unknown status, "assertions" or "findings"
/// not an array, or "stats" not an object.
std::optional<JobResult> resultFromJsonLine(std::string_view Line);

/// Serializes service statistics as one JSON line (no newline).  \p PS,
/// when non-null, appends a "persist" block (disk-tier counters) after
/// the in-memory blocks -- servers without a persist tier emit the
/// pre-existing line bytes unchanged.
std::string statsToJsonLine(const ResultCacheStats &CS,
                            const SnapshotCacheStats &SS,
                            const IncrementalStats &IS, unsigned Workers,
                            uint64_t JobsCompleted,
                            const persist::PersistStats *PS = nullptr);

/// Re-serializes \p Req as one request line the server's parseRequest()
/// accepts, options included (only non-default ones are emitted).  The
/// shard router uses this to forward requests it had to parse for
/// fingerprinting; Analyze requests must carry inline program text
/// (resolve ProgramFile first -- file paths are meaningless across
/// process boundaries).
std::string requestToJsonLine(const Request &Req);

/// The `health`/`ping` reply: one JSON line (no newline) describing
/// liveness without draining the queue -- unlike `stats`, asking does not
/// perturb scheduling, which is what makes it a usable liveness probe.
/// UptimeUs is wall-clock and therefore a telemetry-channel field; health
/// lines are never part of the deterministic protocol output.
std::string healthToJsonLine(unsigned Workers, uint64_t QueueDepth,
                             uint64_t JobsFinished, uint64_t UptimeUs);

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_PROTOCOL_H
