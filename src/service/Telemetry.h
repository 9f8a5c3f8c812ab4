//===- service/Telemetry.h - Request-scoped service telemetry ----*- C++ -*-===//
///
/// \file
/// The scheduler's live telemetry: per-job lifecycle phase latencies
/// (queued -> scheduled -> parsed -> analyzed -> cache-write ->
/// responded), queue-depth and worker-utilization gauges sampled at job
/// boundaries, and the slow-job exemplar ledger.  Everything here lives on
/// the *telemetry channel*: it is wall-clock data, different on every run,
/// and therefore deliberately separate from the deterministic stats line
/// and result protocol (which stay byte-identical with telemetry on).
///
/// Concurrency: unlike the per-worker shard MetricsRegistries (which
/// assert single-thread ownership and can only be read after a drain),
/// the hub is one mutex-guarded structure.  That is what makes the
/// `telemetry` and `health` wire commands *no-drain*: the serving thread
/// can snapshot the hub while workers are mid-job without racing them.
/// Workers touch the hub once per job (a handful of histogram records
/// under one uncontended lock), so the cost stays inside the <=2%
/// telemetry bar -- and when telemetry is off the scheduler never calls
/// in at all.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_TELEMETRY_H
#define CAI_SERVICE_TELEMETRY_H

#include "obs/Metrics.h"
#include "service/Json.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace cai {
namespace service {

/// Microseconds from \p Since to now: one lifecycle phase.
inline uint64_t microsSince(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

/// Wall-clock phase durations of one job's lifecycle, in microseconds.
/// Queue and respond are measured by the scheduler around executeOrServe;
/// parse/analyze/lint come from inside runJob (service/Job.h); cache-write
/// wraps the cache publish.  Cache hits have no parse/analyze/cache-write
/// phases (the Has* flags keep their histograms honest).
struct LifecycleSample {
  uint64_t QueueUs = 0;     ///< submit() to dequeue on a worker.
  uint64_t ParseUs = 0;     ///< Program text to IR.
  uint64_t AnalyzeUs = 0;   ///< Fixpoint + assertion checking.
  uint64_t LintUs = 0;      ///< Semantic lint passes (lint jobs only).
  uint64_t CacheWriteUs = 0; ///< Result/snapshot cache publish.
  uint64_t RespondUs = 0;   ///< Result callback + publication.
  uint64_t TotalUs = 0;     ///< submit() to responded.
  bool HasParse = false;
  bool HasAnalyze = false;
  bool HasLint = false;
  bool HasCacheWrite = false;
  bool CacheHit = false;
};

/// One retained slow-job record (jobs over SchedulerOptions::SlowMs).
struct SlowJobRecord {
  uint64_t Id = 0;
  std::string Name;
  uint64_t TotalUs = 0;
  /// Exemplar trace file path; empty when no exemplar dir is configured.
  std::string TracePath;
};

/// The hub.  All members under one mutex; see file comment.
class TelemetryHub {
public:
  /// Retained slow-job records (newest evicts oldest beyond this).
  static constexpr size_t MaxSlowRecords = 32;

  explicit TelemetryHub(bool Enabled) : On(Enabled) {
    Epoch = std::chrono::steady_clock::now();
  }

  bool enabled() const { return On; }

  /// Records one completed job's lifecycle phases.  \p Worker indexes the
  /// per-worker busy-time accounting for the utilization gauge.
  void recordJob(const LifecycleSample &S, unsigned Worker);

  /// Samples the submission-side queue depth (called on submit()).
  void sampleQueueDepth(uint64_t Depth);

  void recordSlowJob(SlowJobRecord R);

  /// Microseconds since the hub (scheduler) was constructed.
  uint64_t uptimeUs() const;

  /// Folds the lifecycle histograms and telemetry counters into \p Into
  /// under "service.telemetry.*" (for --metrics-out / Prometheus).
  void mergeInto(obs::MetricsRegistry &Into) const;

  /// The telemetry report: histogram summaries per lifecycle phase
  /// (count/min/max/p50/p90/p99), queue-depth stats, per-worker busy
  /// time, and the slow-job ledger.  Safe to call while workers run.
  Json report(unsigned Workers) const;

private:
  /// Appends {count,sum_us,min_us,max_us,p50_us,p90_us,p99_us} for \p H.
  static Json histogramJson(const obs::LatencyHistogram &H);

  bool On;
  std::chrono::steady_clock::time_point Epoch;

  mutable std::mutex Mu;
  obs::LatencyHistogram QueueH, ParseH, AnalyzeH, LintH, CacheWriteH,
      RespondH, TotalH;
  obs::LatencyHistogram QueueDepthH; ///< Depth samples, not times.
  uint64_t QueueDepthPeak = 0;
  uint64_t JobsRecorded = 0;
  uint64_t CacheHits = 0;
  std::vector<uint64_t> WorkerBusyUs; ///< Grown on demand per worker.
  std::deque<SlowJobRecord> Slow;
  uint64_t SlowTotal = 0;
};

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_TELEMETRY_H
