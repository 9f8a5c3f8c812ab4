//===- perfbench/tool/Verify.cpp - Correctness gate ------------------------===//
///
/// `pbtool verify --workload W --seed S --requests F --answers F --out F`
///
/// Checks one answer line per request line:
///
///  * the answer is a completed analysis (status verified or
///    assertions-failed) with one verdict per assertion of the program;
///  * tracks: every assertion is verified (the logical product proves all
///    four track kinds);
///  * every workload: no assertion claimed verified is falsified by seeded
///    concrete traces of its program (interp::runTrace, which shares no
///    code with the analyzer);
///  * session: an answer that the server may have served from the result
///    cache, the persist tier or a snapshot replay (resubmissions, lint
///    requests and edits) equals the cold answer of
///    AnalysisScheduler::runJobIsolated for the same program and options,
///    ignoring "id", "name" and "cached".  Cold answers are computed once
///    per fingerprint.
///
/// Output: one JSON object with a pass flag per request, the first
/// failures, and the assertion tallies.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "interp/ConcreteInterp.h"
#include "ir/ProgramParser.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "term/TermContext.h"

#include <map>

using namespace cai;
using namespace cai::service;

namespace pb {
namespace {

/// \p Answer re-serialized without the fields a cache hit may change.
std::string withoutIdentity(const Json &Answer) {
  Json Out = Json::object();
  for (const auto &[Key, V] : Answer.fields())
    if (Key != "id" && Key != "name" && Key != "cached")
      Out.set(Key, V);
  return Out.dump();
}

/// Runs seeded concrete traces of \p Text and returns a description of
/// the first verified assertion a reached state falsifies ("" if none).
std::string falsifiedVerdict(const std::string &Text,
                             const std::map<std::string, bool> &Verified,
                             uint64_t Seed) {
  TermContext Ctx;
  Ctx.getPredicate("even", 1);
  Ctx.getPredicate("odd", 1);
  Ctx.getPredicate("positive", 1);
  Ctx.getPredicate("negative", 1);
  std::optional<Program> P = parseProgram(Ctx, Text);
  if (!P)
    return "program does not parse";
  if (P->assertions().size() != Verified.size())
    return "verdict count differs from the program's assertions";
  std::vector<std::vector<const Assertion *>> AtNode(P->numNodes());
  for (const Assertion &A : P->assertions()) {
    auto It = Verified.find(A.Label);
    if (It != Verified.end() && It->second)
      AtNode[A.Node].push_back(&A);
  }
  std::string Found;
  interp::TraceOptions TO;
  for (uint64_t T = 0; T < 8 && Found.empty(); ++T) {
    interp::runTrace(
        Ctx, *P, Seed * 0x9e3779b97f4a7c15ull + T + 1, TO,
        [&](NodeId N, const interp::Env &E, interp::ConcreteModel &M) {
          for (const Assertion *A : AtNode[N]) {
            bool Ok = true;
            if (!M.evalAtom(A->Fact, E, Ok) && Ok) {
              Found = A->Label + " verified but falsified by trace " +
                      std::to_string(T);
              return false;
            }
          }
          return true;
        });
  }
  return Found;
}

} // namespace

int cmdVerify(const Flags &F) {
  Workload W = workloadByName(F.get("workload"));
  uint64_t Seed = F.num("seed", 1);
  std::vector<std::string> Requests = readLines(F.get("requests"));
  std::vector<std::string> Answers = readLines(F.get("answers"));
  std::map<std::string, std::string> Cold; // Fingerprint -> cold answer.

  Json Ok = Json::array();
  Json Failures = Json::array();
  uint64_t Assertions = 0, VerifiedCount = 0, Failed = 0;
  uint64_t NextId = 0;
  for (size_t I = 0; I < Requests.size(); ++I) {
    std::string Why;
    std::string Error;
    std::optional<Request> Req = parseRequest(Requests[I], NextId, &Error);
    if (!Req)
      throw std::runtime_error("request " + std::to_string(I) + ": " + Error);
    NextId = Req->Spec.Id + 1;
    const JobSpec &Spec = Req->Spec;
    std::optional<Json> A;
    if (I < Answers.size())
      A = Json::parse(Answers[I]);
    const Json *Status = A ? A->get("status") : nullptr;
    const Json *Verdicts = A ? A->get("assertions") : nullptr;
    if (!Status || !Verdicts || !Verdicts->isArray()) {
      Why = "no analysis answer";
    } else if (Status->asString() != "verified" &&
               Status->asString() != "assertions-failed") {
      Why = "status " + Status->asString();
    } else {
      std::map<std::string, bool> Verified;
      for (const Json &V : Verdicts->items()) {
        const Json *L = V.get("label"), *B = V.get("verified");
        if (L && B)
          Verified[L->asString()] = B->asBool();
      }
      unsigned NumVerified = 0;
      for (const auto &[Label, V] : Verified)
        NumVerified += V;
      Assertions += Verified.size();
      VerifiedCount += NumVerified;
      if (W == Workload::Tracks && (Verified.size() != 4 || NumVerified != 4))
        Why = "a track assertion is not verified";
      if (Why.empty())
        Why = falsifiedVerdict(Spec.ProgramText, Verified, Seed + I);
      const bool MaybeReplayed = W == Workload::Session &&
                                 (Spec.Edit || Spec.Opts.Lint ||
                                  Req->Spec.Name.rfind("resubmit/", 0) == 0);
      if (Why.empty() && MaybeReplayed) {
        std::string FP = fingerprintJob(Spec);
        auto It = Cold.find(FP);
        if (It == Cold.end()) {
          JobResult R = AnalysisScheduler::runJobIsolated(Spec, nullptr);
          It = Cold.emplace(FP, withoutIdentity(parseJson(resultToJsonLine(R))))
                   .first;
        }
        if (It->second != withoutIdentity(*A))
          Why = "answer differs from the cold in-process answer";
      }
    }
    Ok.push(Json::boolean(Why.empty()));
    if (!Why.empty()) {
      ++Failed;
      if (Failures.items().size() < 20)
        Failures.push(Json::object()
                          .set("request", Json::integer(int64_t(I)))
                          .set("why", Json::str(Why)));
    }
  }
  Json Out = Json::object();
  Out.set("ok", std::move(Ok))
      .set("failed", Json::integer(int64_t(Failed)))
      .set("failures", std::move(Failures))
      .set("assertions", Json::integer(int64_t(Assertions)))
      .set("verified", Json::integer(int64_t(VerifiedCount)));
  writeFile(F.get("out"), Out.dump() + "\n");
  return Failed == 0 ? 0 : 1;
}

} // namespace pb
