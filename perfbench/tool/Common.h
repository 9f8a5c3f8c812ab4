//===- perfbench/tool/Common.h - Shared pieces of pbtool --------*- C++ -*-===//
///
/// \file
/// pbtool is the compiled half of the perfbench benchmark (perfbench/run.py
/// is the other half).  Subcommands:
///
///   gen     seeded request streams for the tracks, loops and session
///           workloads, plus the plan (expected cache/snapshot counts)
///   drive   one closed-loop client for cai-serve over stdio: launch
///           timings, untimed warm-up, timed requests, stats, VmHWM
///   replay  the same requests in-process through the service's public
///           entry points, untraced and traced (layer timers + spans)
///   verify  correctness checks on a list of answers
///
/// Every subcommand takes "--name value" flags and writes its results to
/// files named by flags; errors go to stderr with exit code 2.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "service/Json.h"

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace pb {

using cai::service::Json;

/// "--name value" command-line flags.
class Flags {
public:
  Flags(int Argc, char **Argv, int First);
  /// The flag's value; throws when it is absent.
  const std::string &get(const std::string &Name) const;
  uint64_t num(const std::string &Name, uint64_t Default) const;
  bool has(const std::string &Name) const { return Values.count(Name) != 0; }

private:
  std::map<std::string, std::string> Values;
};

std::vector<std::string> readLines(const std::string &Path);
std::string readFile(const std::string &Path);
void writeFile(const std::string &Path, const std::string &Text);
/// Parses \p Text as JSON; throws on malformed input.
Json parseJson(const std::string &Text);

/// Restricts this process (and the children it starts) to the highest
/// CPU it may run on.  A closed-loop client and its server never compute
/// at the same time, so sharing a CPU costs nothing and turns every
/// request/response hand-off into a local context switch instead of a
/// cross-CPU wake-up, which on a VM is the noisiest part of a small
/// request's latency.
void pinToOneCpu();

/// The workloads, by name.
enum class Workload { Tracks, Loops, Session };
Workload workloadByName(const std::string &Name);

int cmdGen(const Flags &F);
int cmdDrive(const Flags &F);
int cmdReplay(const Flags &F);
int cmdVerify(const Flags &F);

} // namespace pb

#endif // PERFBENCH_COMMON_H
