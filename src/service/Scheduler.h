//===- service/Scheduler.h - Sharded analysis worker pool -------*- C++ -*-===//
///
/// \file
/// The analysis service's engine: a fixed pool of worker threads fanning
/// (program, domain-spec, options) jobs out of one queue.  Isolation is
/// the design center --
///
///  * every job runs through runJob (service/Job.h), the pipeline
///    cai-analyze and cai-lint call too, and builds its own TermContext,
///    domain tree and caches, so results are bit-identical regardless of
///    worker count or scheduling order (the batch determinism test
///    enforces this);
///  * every worker owns a shard Tracer and MetricsRegistry, installed
///    thread-locally at thread start; shards are merged deterministically
///    (shard index order) on export, closing the ROADMAP's "per-shard
///    tracers merged on export" item;
///  * a job that throws becomes a structured JobStatus::Error result, a
///    job that overruns its deadline becomes JobStatus::Timeout via the
///    fixpoint engine's cooperative cancellation -- one bad job never
///    takes down the batch or the process;
///  * completed results are published to a shared LRU ResultCache keyed
///    by canonical job fingerprint, so repeated submissions are served
///    from memory;
///  * a second cache tier (SnapshotCache) retains each program's latest
///    fixpoint snapshot by *identity*: an `analyze_edit` job whose exact
///    fingerprint misses is seeded with the previous version's snapshot,
///    so only the WTO components downstream of the edit re-iterate.  The
///    result stays bit-identical to a from-scratch run (the incremental
///    differential test enforces byte equality).
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_SCHEDULER_H
#define CAI_SERVICE_SCHEDULER_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "persist/PersistStore.h"
#include "service/Job.h"
#include "service/ResultCache.h"
#include "service/SnapshotCache.h"
#include "service/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cai {
namespace service {

struct SchedulerOptions {
  /// Worker threads; 0 is clamped to 1.
  unsigned Workers = 1;
  /// ResultCache byte budget; 0 disables caching.
  size_t CacheBytes = 64ull << 20;
  /// SnapshotCache byte budget (retained fixpoint snapshots for the warm
  /// edit path); 0 disables incremental reuse.
  size_t SnapshotCacheBytes = 64ull << 20;
  /// Record trace spans into per-worker shard tracers (writeMergedTrace).
  bool CollectTraces = false;
  /// Record per-job lifecycle spans into the TelemetryHub (the `telemetry`
  /// wire command / --telemetry-out).  Off by default: the telemetry-off
  /// configuration is the BM_BatchThroughput overhead bar.  Timing lives
  /// only on the telemetry channel; result and stats bytes are identical
  /// either way.
  bool Telemetry = false;
  /// Jobs whose wall time exceeds this many milliseconds get a slow-job
  /// ledger entry and (with ExemplarDir set) a per-job engine trace
  /// dumped to `<ExemplarDir>/slow-job-<id>.trace.json`.  0 disables;
  /// non-zero implies Telemetry.
  uint64_t SlowMs = 0;
  /// Directory for slow-job exemplar traces (created if missing).
  std::string ExemplarDir;
  /// Disk tier under the ResultCache (persist/PersistStore.h), already
  /// open()ed by the caller; null = memory-only (every existing test and
  /// tool path).  At construction its live records replay into the LRU
  /// (warm restart); at runtime a memory miss probes it before
  /// computing, and fresh cacheable results are appended.  Shared so the
  /// owning tool can flush it on signal-driven shutdown.
  std::shared_ptr<persist::PersistStore> Persist;
};

class AnalysisScheduler {
public:
  /// Called on the completing worker's thread, one call at a time (the
  /// scheduler serializes callers); keep it cheap and do not re-enter the
  /// scheduler from inside it.
  using ResultCallback = std::function<void(const JobResult &)>;

  explicit AnalysisScheduler(const SchedulerOptions &Opts = {});
  /// Discards unstarted jobs, cooperatively cancels running ones, joins.
  ~AnalysisScheduler();

  AnalysisScheduler(const AnalysisScheduler &) = delete;
  AnalysisScheduler &operator=(const AnalysisScheduler &) = delete;

  /// Streams results as they complete (cai-serve); optional.  Each
  /// result is handed over once: to \p CB when one is installed, else to
  /// the list takeResults() empties, so a streaming server keeps none.
  void onResult(ResultCallback CB);

  void submit(JobSpec Spec);

  /// Blocks until every submitted job has produced a result.
  void waitIdle();

  /// Moves out the results kept since the last call, sorted by job id:
  /// those that finished while no onResult() callback was installed.
  std::vector<JobResult> takeResults();

  unsigned numWorkers() const { return unsigned(Shards.size()); }
  ResultCacheStats cacheStats() const { return Cache.stats(); }
  SnapshotCacheStats snapshotCacheStats() const { return Snapshots.stats(); }

  /// The live telemetry hub (mutex-guarded; safe to read while workers
  /// run, unlike the shard registries).
  TelemetryHub &telemetry() { return Hub; }

  /// Jobs currently waiting in the queue (no drain; the `health` probe).
  uint64_t queueDepth() const;

  /// Results produced so far, running or not (no drain).
  uint64_t jobsFinished() const {
    return Finished.load(std::memory_order_relaxed);
  }

  /// Microseconds since construction.
  uint64_t uptimeUs() const { return Hub.uptimeUs(); }

  /// One JSON line for the `telemetry` wire command / --telemetry-out:
  /// the hub report plus live cache hit-rate blocks.  No drain; wall
  /// clock data, so deliberately a different channel than the
  /// deterministic stats line.
  std::string telemetryJsonLine();

  IncrementalStats incrementalStats() const {
    return {Edits.load(std::memory_order_relaxed),
            ComponentsReused.load(std::memory_order_relaxed),
            ComponentsRecomputed.load(std::memory_order_relaxed),
            IncrementalFallbacks.load(std::memory_order_relaxed)};
  }

  /// Merged Chrome trace_event JSON across shards (tid = shard index + 1).
  /// Only meaningful while idle; empty unless CollectTraces.
  void writeMergedTrace(std::ostream &OS) const;

  /// Folds every shard registry (in shard index order) plus the cache
  /// counters (service.cache.*) into \p Into.  Only meaningful while
  /// idle.  The merged counters equal the per-shard sums by construction
  /// (obs_test/service_test pin this).
  void mergeMetricsInto(obs::MetricsRegistry &Into) const;

  /// Runs one job in full isolation on the calling thread through runJob
  /// (service/Job.h), fingerprint included, under \p Cancel.  For callers
  /// that want the result of a cold, uncached analysis.
  static JobResult runJobIsolated(const JobSpec &Spec,
                                  const std::atomic<bool> *Cancel);

private:
  struct Shard {
    obs::MetricsRegistry Registry;
    std::unique_ptr<obs::Tracer> Trace; ///< Null unless CollectTraces.
  };

  void workerMain(unsigned Index);
  /// Cache lookup, else runCaptured + cache publish.  \p LS, when
  /// non-null, receives the parse/analyze/cache-write phase timings and
  /// the cache-hit flag (telemetry only).
  JobResult executeOrServe(const JobSpec &Spec, LifecycleSample *LS);
  /// runJob under the scheduler's cancel flag, with the job's fingerprint
  /// \p FP, plus the slow-job exemplar capture wrapper.
  JobResult runCaptured(const JobSpec &Spec, std::string FP,
                        const FixpointSnapshot *SnapIn,
                        FixpointSnapshot *SnapOut, LifecycleSample *LS);
  /// Event-log reporting for failed/degraded outcomes.
  void noteOutcome(const JobSpec &Spec, const JobResult &R);

  SchedulerOptions Opts;
  ResultCache Cache;
  SnapshotCache Snapshots;
  TelemetryHub Hub;
  /// Results produced (any status, hits included); read by the no-drain
  /// health probe, so atomic rather than under ResultsMu.
  std::atomic<uint64_t> Finished{0};

  /// Incremental counters (see incrementalStats()); bumped by workers, so
  /// atomic rather than under a lock.
  std::atomic<uint64_t> Edits{0};
  std::atomic<uint64_t> ComponentsReused{0};
  std::atomic<uint64_t> ComponentsRecomputed{0};
  std::atomic<uint64_t> IncrementalFallbacks{0};

  mutable std::mutex QueueMu; ///< mutable: queueDepth() is a const probe.
  std::condition_variable QueueCv;
  std::deque<JobSpec> Queue;
  bool Stopping = false;

  /// Set at shutdown; every running job's AnalyzerOptions::CancelFlag
  /// points here.
  std::atomic<bool> CancelAll{false};

  std::mutex ResultsMu;
  std::condition_variable IdleCv;
  std::vector<JobResult> Results; ///< Only while no Callback is installed.
  ResultCallback Callback;
  size_t Pending = 0; ///< Submitted but not yet resulted (under ResultsMu).

  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<std::thread> Threads;
};

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_SCHEDULER_H
