//===- perfbench/tool/main.cpp - pbtool entry point ------------------------===//

#include "Common.h"

#include <cstdio>
#include <fstream>
#include <sched.h>
#include <sstream>

namespace pb {

Flags::Flags(int Argc, char **Argv, int First) {
  for (int I = First; I < Argc; I += 2) {
    std::string Name = Argv[I];
    if (Name.rfind("--", 0) != 0 || I + 1 >= Argc)
      throw std::runtime_error("expected '--name value', got '" + Name + "'");
    Values[Name.substr(2)] = Argv[I + 1];
  }
}

const std::string &Flags::get(const std::string &Name) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    throw std::runtime_error("missing flag --" + Name);
  return It->second;
}

uint64_t Flags::num(const std::string &Name, uint64_t Default) const {
  auto It = Values.find(Name);
  return It == Values.end() ? Default : std::stoull(It->second);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read '" + Path + "'");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::istringstream In(readFile(Path));
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  if (!Out)
    throw std::runtime_error("cannot write '" + Path + "'");
}

Json parseJson(const std::string &Text) {
  std::string Error;
  std::optional<Json> J = Json::parse(Text, &Error);
  if (!J)
    throw std::runtime_error("bad JSON: " + Error);
  return std::move(*J);
}

void pinToOneCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof Allowed, &Allowed) != 0)
    return; // Unpinned runs still measure correctly, only noisier.
  for (int C = CPU_SETSIZE - 1; C >= 0; --C) {
    if (!CPU_ISSET(C, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(C, &One);
    sched_setaffinity(0, sizeof One, &One);
    return;
  }
}

Workload workloadByName(const std::string &Name) {
  if (Name == "tracks")
    return Workload::Tracks;
  if (Name == "loops")
    return Workload::Loops;
  if (Name == "session")
    return Workload::Session;
  throw std::runtime_error("unknown workload '" + Name + "'");
}

} // namespace pb

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: pbtool gen|drive|replay|verify --flag value ...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  try {
    pb::Flags F(Argc, Argv, 2);
    if (Cmd == "gen")
      return pb::cmdGen(F);
    if (Cmd == "drive")
      return pb::cmdDrive(F);
    if (Cmd == "replay")
      return pb::cmdReplay(F);
    if (Cmd == "verify")
      return pb::cmdVerify(F);
    std::fprintf(stderr, "pbtool: unknown subcommand '%s'\n", Cmd.c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "pbtool %s: %s\n", Cmd.c_str(), E.what());
  }
  return 2;
}
