//===- obs/Trace.h - Scoped event tracing ------------------------*- C++ -*-===//
///
/// \file
/// A scoped event tracer that turns one analysis run into a Chrome
/// `trace_event` JSON artifact (load it in chrome://tracing or Perfetto).
/// The instrumented spans cover the phases the cost model of Section 4.4
/// cares about: WTO component iterations, edge transfers, joins and
/// widenings, Nelson-Oppen saturation rounds, simplex solves, and
/// congruence-closure propagation.
///
/// Cost discipline:
///  * tracer disabled (the default): every span macro is a single load and
///    branch on a global pointer -- the bench_fixpoint E15 ablation pins
///    the overhead under 2%;
///  * null sink: a Tracer constructed with Sink::Discard runs the full
///    instrumentation path but buffers no events, isolating the probe cost
///    from the JSON-buffer cost in the ablation.
///
/// The tracer is deliberately not thread-safe: one analysis runs on one
/// thread (see QueryCache.h for the same contract), and sharded analyses
/// get a tracer per shard.  Installation is therefore thread-local --
/// every worker of the analysis service installs its own shard tracer --
/// and each tracer asserts (debug builds keep assertions on) that all
/// recording happens on the thread that adopted it.  Shards share an
/// epoch and are merged deterministically on export by writeMergedJson,
/// which maps shard index I to trace thread id I+1.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_OBS_TRACE_H
#define CAI_OBS_TRACE_H

#include <cassert>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cai {
namespace obs {

/// One key/value annotation on a span ("args" in the trace_event format).
struct TraceArg {
  const char *Key;
  std::string Value;
};

/// An in-memory trace_event recorder.  Spans are duration events (phase
/// "B"/"E"); instants are phase "i"; counters are phase "C".
class Tracer {
public:
  enum class Sink : uint8_t {
    Buffer,  ///< Record events for writeJson().
    Discard, ///< Run the probes, keep nothing (the E15 null sink).
  };

  explicit Tracer(Sink S = Sink::Buffer)
      : Mode(S), Owner(std::this_thread::get_id()) {
    Start = std::chrono::steady_clock::now();
  }
  /// Shard constructor: timestamps are relative to the shared \p Epoch so
  /// merged shard timelines align.
  Tracer(Sink S, std::chrono::steady_clock::time_point Epoch)
      : Mode(S), Start(Epoch), Owner(std::this_thread::get_id()) {}

  /// The tracer installed on the calling thread, or nullptr when tracing
  /// is off.  Every probe site checks this once; the macros below do it
  /// for you.
  static Tracer *active() { return Active; }

  /// Installs \p T as the calling thread's tracer (nullptr disables
  /// tracing on this thread).  The caller keeps ownership and must
  /// uninstall before destroying it.
  static void install(Tracer *T) { Active = T; }

  /// Rebinds the ownership assertion to the calling thread.  A scheduler
  /// constructs shard tracers up front, then each worker adopts its shard
  /// before installing it.  Only legal while no span is open.
  void adoptByCurrentThread() {
    assert(Depth == 0 && "cannot adopt a tracer with open spans");
    Owner = std::this_thread::get_id();
  }

  void begin(const char *Name, const char *Cat) {
    assertOwned();
    ++Depth;
    if (Mode == Sink::Discard)
      return;
    Events.push_back({'B', Name, Cat, nowUs(), {}, 0});
  }
  void begin(const char *Name, const char *Cat, std::vector<TraceArg> Args) {
    assertOwned();
    ++Depth;
    if (Mode == Sink::Discard)
      return;
    Events.push_back({'B', Name, Cat, nowUs(), std::move(Args), 0});
  }
  void end() {
    assertOwned();
    if (Depth == 0)
      return; // Unbalanced end; keep the buffer well-formed.
    --Depth;
    if (Mode == Sink::Discard)
      return;
    Events.push_back({'E', nullptr, nullptr, nowUs(), {}, 0});
  }
  void instant(const char *Name, const char *Cat,
               std::vector<TraceArg> Args = {}) {
    assertOwned();
    if (Mode == Sink::Discard)
      return;
    Events.push_back({'i', Name, Cat, nowUs(), std::move(Args), 0});
  }
  void counter(const char *Name, const char *Cat, double Value) {
    assertOwned();
    if (Mode == Sink::Discard)
      return;
    Events.push_back({'C', Name, Cat, nowUs(), {}, Value});
  }

  size_t numEvents() const { return Events.size(); }
  /// Current span nesting depth (open B events); 0 when balanced.
  unsigned depth() const { return Depth; }
  void clear() {
    assertOwned();
    Events.clear();
    Depth = 0;
    Start = std::chrono::steady_clock::now();
  }

  /// Writes the buffered events as a Chrome trace_event JSON object
  /// ({"traceEvents": [...], "displayTimeUnit": "ms"}).  Unclosed spans
  /// are closed at the final timestamp so the artifact always loads.
  void writeJson(std::ostream &OS) const;

  /// Merges \p Shards into one Chrome trace_event JSON object: shard I's
  /// events carry "tid" I+1, so the viewer renders one lane per shard.
  /// The shard order is the caller's vector order, making the merged
  /// artifact deterministic for a fixed shard assignment.  Callers must
  /// have joined the shard threads first (this reads the buffers).
  static void writeMergedJson(std::ostream &OS,
                              const std::vector<const Tracer *> &Shards);

private:
  struct Event {
    char Ph;
    const char *Name; ///< Null for 'E' events.
    const char *Cat;
    uint64_t TsUs;
    std::vector<TraceArg> Args;
    double Value; ///< Counter value for 'C' events.
  };

  uint64_t nowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

  /// Cross-thread use of one shard corrupts the span nesting silently;
  /// fail loudly instead (assertions stay on in this project's optimized
  /// builds, see the top-level CMakeLists).
  void assertOwned() const {
    assert(Owner == std::this_thread::get_id() &&
           "Tracer used from a thread other than its owner; shard tracers "
           "must be adopted (adoptByCurrentThread) before use");
  }

  /// Emits this tracer's events (plus synthetic closers for unfinished
  /// spans) into an open traceEvents array; \p First tracks the comma
  /// state across shards.
  void writeEvents(std::ostream &OS, unsigned Tid, bool &First) const;

  Sink Mode;
  unsigned Depth = 0;
  std::vector<Event> Events;
  std::chrono::steady_clock::time_point Start;
  std::thread::id Owner;
  static thread_local Tracer *Active;
};

/// RAII span: opens on construction if a tracer is installed, closes on
/// destruction.  Capturing the tracer pointer at construction keeps the
/// pair balanced even if the tracer is swapped mid-scope.
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Cat) : T(Tracer::active()) {
    if (T)
      T->begin(Name, Cat);
  }
  TraceSpan(const char *Name, const char *Cat, std::vector<TraceArg> Args)
      : T(Tracer::active()) {
    if (T)
      T->begin(Name, Cat, std::move(Args));
  }
  ~TraceSpan() {
    if (T)
      T->end();
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  Tracer *T;
};

} // namespace obs
} // namespace cai

#ifndef CAI_OBS_CONCAT
#define CAI_OBS_CONCAT_(A, B) A##B
#define CAI_OBS_CONCAT(A, B) CAI_OBS_CONCAT_(A, B)
#endif
/// Opens a span for the rest of the enclosing scope.  Name and Cat must be
/// string literals (they are stored by pointer).
#define CAI_TRACE_SPAN(Name, Cat)                                              \
  ::cai::obs::TraceSpan CAI_OBS_CONCAT(CaiTraceSpan_, __COUNTER__)(Name, Cat)
/// Same, with {"key", value} annotations; the argument list is only
/// evaluated when a tracer is installed.
#define CAI_TRACE_SPAN_ARGS(Name, Cat, ...)                                    \
  ::cai::obs::TraceSpan CAI_OBS_CONCAT(CaiTraceSpan_, __COUNTER__)(            \
      Name, Cat,                                                               \
      ::cai::obs::Tracer::active()                                             \
          ? ::std::vector<::cai::obs::TraceArg>{__VA_ARGS__}                   \
          : ::std::vector<::cai::obs::TraceArg>{})
#define CAI_TRACE_INSTANT(Name, Cat, ...)                                      \
  do {                                                                         \
    if (::cai::obs::Tracer *CaiT = ::cai::obs::Tracer::active())               \
      CaiT->instant(Name, Cat, {__VA_ARGS__});                                 \
  } while (0)

#endif // CAI_OBS_TRACE_H
