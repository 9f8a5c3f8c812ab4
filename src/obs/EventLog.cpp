//===- obs/EventLog.cpp - Structured JSON-lines event log ------------------===//

#include "obs/EventLog.h"

#include "support/TextIO.h"

using namespace cai;
using namespace cai::obs;

const char *cai::obs::severityName(Severity S) {
  switch (S) {
  case Severity::Debug:
    return "debug";
  case Severity::Info:
    return "info";
  case Severity::Warn:
    return "warn";
  case Severity::Error:
    return "error";
  }
  return "info";
}

EventLog &EventLog::global() {
  static EventLog *L = new EventLog(); // Leaked like MetricsRegistry.
  return *L;
}

void EventLog::open(std::ostream *OS) {
  std::lock_guard<std::mutex> Lock(Mu);
  Out = OS;
  if (OS)
    Epoch = std::chrono::steady_clock::now();
  Enabled.store(OS != nullptr, std::memory_order_relaxed);
}

namespace {

/// True when \p N is one of the post-burst emission points: a power of
/// two (so the log thins out exponentially instead of going silent).
bool powerOfTwo(uint64_t N) { return N != 0 && (N & (N - 1)) == 0; }

} // namespace

void EventLog::emit(Severity Sev, const std::string &Component,
                    const std::string &Event,
                    std::vector<EventField> Fields) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Out)
    return; // Raced a close.
  uint64_t N = ++Occurrences[Component + "/" + Event];
  if (N > BurstLimit && !powerOfTwo(N)) {
    ++Suppressed;
    return;
  }
  uint64_t TsUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
  std::ostream &OS = *Out;
  OS << "{\"seq\":" << ++NextSeq << ",\"ts_us\":" << TsUs << ",\"severity\":\""
     << severityName(Sev) << "\",\"component\":";
  writeJsonString(OS, Component);
  OS << ",\"event\":";
  writeJsonString(OS, Event);
  if (N > BurstLimit)
    OS << ",\"repeats\":" << N;
  OS << ",\"fields\":{";
  bool First = true;
  for (const EventField &F : Fields) {
    if (!First)
      OS << ",";
    First = false;
    writeJsonString(OS, F.Key);
    OS << ":";
    if (F.Raw)
      OS << F.Value;
    else
      writeJsonString(OS, F.Value);
  }
  OS << "}}\n";
  OS.flush();
  ++Emitted;
}

EventLog::Stats EventLog::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return {Emitted, Suppressed};
}

void EventLog::resetForTest() {
  std::lock_guard<std::mutex> Lock(Mu);
  Out = nullptr;
  Enabled.store(false, std::memory_order_relaxed);
  NextSeq = Emitted = Suppressed = 0;
  Occurrences.clear();
}
