//===- obs/Trace.cpp - Scoped event tracing --------------------------------===//

#include "obs/Trace.h"

#include "support/TextIO.h"

using namespace cai;
using namespace cai::obs;

thread_local Tracer *Tracer::Active = nullptr;

void Tracer::writeEvents(std::ostream &OS, unsigned Tid, bool &First) const {
  // The begin events whose matching end has not been recorded yet; they
  // are closed at MaxTs below so partial traces still load.
  unsigned Open = 0;
  uint64_t MaxTs = 0;
  for (const Event &E : Events) {
    if (!First)
      OS << ",";
    First = false;
    MaxTs = E.TsUs > MaxTs ? E.TsUs : MaxTs;
    OS << "{\"ph\":\"" << E.Ph << "\",\"pid\":1,\"tid\":" << Tid
       << ",\"ts\":" << E.TsUs;
    if (E.Ph == 'E') {
      if (Open)
        --Open;
      OS << "}";
      continue;
    }
    if (E.Ph == 'B')
      ++Open;
    OS << ",\"name\":";
    writeJsonString(OS, E.Name);
    OS << ",\"cat\":";
    writeJsonString(OS, E.Cat ? E.Cat : "cai");
    if (E.Ph == 'i')
      OS << ",\"s\":\"t\"";
    if (E.Ph == 'C') {
      OS << ",\"args\":{\"value\":" << E.Value << "}";
    } else if (!E.Args.empty()) {
      OS << ",\"args\":{";
      for (size_t I = 0; I < E.Args.size(); ++I) {
        if (I)
          OS << ",";
        writeJsonString(OS, E.Args[I].Key);
        OS << ":";
        writeJsonString(OS, E.Args[I].Value);
      }
      OS << "}";
    }
    OS << "}";
  }
  for (; Open > 0; --Open) {
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"ph\":\"E\",\"pid\":1,\"tid\":" << Tid << ",\"ts\":" << MaxTs
       << "}";
  }
}

void Tracer::writeJson(std::ostream &OS) const {
  OS << "{\"traceEvents\":[";
  bool First = true;
  writeEvents(OS, 1, First);
  OS << "],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::writeMergedJson(std::ostream &OS,
                             const std::vector<const Tracer *> &Shards) {
  OS << "{\"traceEvents\":[";
  bool First = true;
  for (size_t I = 0; I < Shards.size(); ++I)
    if (Shards[I])
      Shards[I]->writeEvents(OS, static_cast<unsigned>(I + 1), First);
  OS << "],\"displayTimeUnit\":\"ms\"}\n";
}
