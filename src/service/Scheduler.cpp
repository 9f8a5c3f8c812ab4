//===- service/Scheduler.cpp - Sharded analysis worker pool ----------------===//

#include "service/Scheduler.h"

#include "obs/EventLog.h"
#include "service/Fingerprint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace cai;
using namespace cai::service;

namespace {

/// Per-status counter in the calling worker's shard registry.  The name is
/// dynamic, so this bypasses the per-site probe cache; once per job is
/// cheap.
void bumpStatusCounter(JobStatus S) {
  obs::MetricsRegistry::current()
      .counter(std::string("service.jobs.status.") + statusName(S))
      .inc();
}

} // namespace

JobResult AnalysisScheduler::runJobIsolated(const JobSpec &Spec,
                                            const std::atomic<bool> *Cancel) {
  JobHooks Hooks;
  Hooks.Cancel = Cancel;
  Hooks.Fingerprint = fingerprintJob(Spec);
  JobRun Run;
  runJob(Spec, Hooks, Run);
  return std::move(Run.Result);
}

AnalysisScheduler::AnalysisScheduler(const SchedulerOptions &O)
    : Opts(O), Cache(O.CacheBytes), Snapshots(O.SnapshotCacheBytes),
      // A slow-job threshold only makes sense with the telemetry channel
      // up, so SlowMs != 0 implies it.
      Hub(O.Telemetry || O.SlowMs != 0) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (!Opts.ExemplarDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.ExemplarDir, EC);
    // A failure surfaces later as an unwritable exemplar, which the
    // event log reports; the scheduler itself keeps going.
  }
  // Warm restart: replay the disk tier's live records into the memory
  // LRU before any worker starts, so a restarted server answers its old
  // corpus from memory at the same hit rate as a long-running one.
  if (Opts.Persist && Opts.Persist->ok())
    Opts.Persist->replayInto(Cache);
  // One epoch for every shard tracer so the merged timelines align.
  auto Epoch = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Opts.Workers; ++I) {
    auto Sh = std::make_unique<Shard>();
    if (Opts.CollectTraces)
      Sh->Trace =
          std::make_unique<obs::Tracer>(obs::Tracer::Sink::Buffer, Epoch);
    Shards.push_back(std::move(Sh));
  }
  Threads.reserve(Opts.Workers);
  for (unsigned I = 0; I < Opts.Workers; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

AnalysisScheduler::~AnalysisScheduler() {
  size_t Dropped = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping = true;
    Dropped = Queue.size();
    Queue.clear();
  }
  // Jobs already running see the flag at their next fixpoint step.
  CancelAll.store(true, std::memory_order_relaxed);
  QueueCv.notify_all();
  if (Dropped != 0) {
    std::lock_guard<std::mutex> Lock(ResultsMu);
    Pending -= Dropped;
    IdleCv.notify_all();
  }
  for (std::thread &T : Threads)
    T.join();
}

void AnalysisScheduler::onResult(ResultCallback CB) {
  std::lock_guard<std::mutex> Lock(ResultsMu);
  Callback = std::move(CB);
}

void AnalysisScheduler::submit(JobSpec Spec) {
  if (Hub.enabled())
    Spec.EnqueueTime = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> Lock(ResultsMu);
    ++Pending;
  }
  uint64_t Depth = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    assert(!Stopping && "submit() on a stopping scheduler");
    Queue.push_back(std::move(Spec));
    Depth = Queue.size();
  }
  QueueCv.notify_one();
  // Sampled at the submit boundary: the depth the job saw as it arrived.
  if (Hub.enabled())
    Hub.sampleQueueDepth(Depth);
}

uint64_t AnalysisScheduler::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMu);
  return Queue.size();
}

void AnalysisScheduler::waitIdle() {
  std::unique_lock<std::mutex> Lock(ResultsMu);
  IdleCv.wait(Lock, [&] { return Pending == 0; });
}

std::vector<JobResult> AnalysisScheduler::takeResults() {
  std::vector<JobResult> Out;
  {
    std::lock_guard<std::mutex> Lock(ResultsMu);
    Out.swap(Results);
  }
  std::sort(Out.begin(), Out.end(),
            [](const JobResult &A, const JobResult &B) { return A.Id < B.Id; });
  return Out;
}

void AnalysisScheduler::writeMergedTrace(std::ostream &OS) const {
  std::vector<const obs::Tracer *> Ts;
  Ts.reserve(Shards.size());
  for (const std::unique_ptr<Shard> &Sh : Shards)
    Ts.push_back(Sh->Trace.get());
  obs::Tracer::writeMergedJson(OS, Ts);
}

void AnalysisScheduler::mergeMetricsInto(obs::MetricsRegistry &Into) const {
  for (const std::unique_ptr<Shard> &Sh : Shards)
    Into.mergeFrom(Sh->Registry);
  ResultCacheStats CS = Cache.stats();
  Into.counter("service.cache.hits").inc(CS.Hits);
  Into.counter("service.cache.misses").inc(CS.Misses);
  Into.counter("service.cache.insertions").inc(CS.Insertions);
  Into.counter("service.cache.evictions").inc(CS.Evictions);
  Into.gauge("service.cache.entries").set(static_cast<double>(CS.Entries));
  Into.gauge("service.cache.bytes").set(static_cast<double>(CS.Bytes));
  SnapshotCacheStats SS = Snapshots.stats();
  Into.counter("service.snapshot_cache.hits").inc(SS.Hits);
  Into.counter("service.snapshot_cache.misses").inc(SS.Misses);
  Into.counter("service.snapshot_cache.insertions").inc(SS.Insertions);
  Into.counter("service.snapshot_cache.evictions").inc(SS.Evictions);
  Into.gauge("service.snapshot_cache.entries")
      .set(static_cast<double>(SS.Entries));
  Into.gauge("service.snapshot_cache.bytes")
      .set(static_cast<double>(SS.Bytes));
  IncrementalStats IS = incrementalStats();
  Into.counter("service.incremental.edits").inc(IS.Edits);
  Into.counter("service.incremental.components_reused")
      .inc(IS.ComponentsReused);
  Into.counter("service.incremental.components_recomputed")
      .inc(IS.ComponentsRecomputed);
  Into.counter("service.incremental.fallbacks").inc(IS.Fallbacks);
  if (Opts.Persist) {
    persist::PersistStats PS = Opts.Persist->stats();
    Into.counter("persist.hits").inc(PS.Hits);
    Into.counter("persist.misses").inc(PS.Misses);
    Into.counter("persist.appends").inc(PS.Appends);
    Into.counter("persist.flushes").inc(PS.Flushes);
    Into.counter("persist.corrupt").inc(PS.Corrupt);
    Into.counter("persist.stale_files").inc(PS.StaleFiles);
    Into.counter("persist.compactions").inc(PS.Compactions);
    Into.counter("persist.evictions").inc(PS.Evictions);
    Into.counter("persist.replayed").inc(PS.Replayed);
    Into.gauge("persist.live_records")
        .set(static_cast<double>(PS.LiveRecords));
    Into.gauge("persist.log_bytes").set(static_cast<double>(PS.LogBytes));
  }
  Hub.mergeInto(Into); // service.telemetry.* (no-op when telemetry off).
}

std::string AnalysisScheduler::telemetryJsonLine() {
  Json Rep = Hub.report(numWorkers());
  auto HitRates = [](uint64_t Hits, uint64_t Misses) {
    uint64_t Total = Hits + Misses;
    Json Obj = Json::object();
    Obj.set("hits", Json::integer(static_cast<int64_t>(Hits)));
    Obj.set("misses", Json::integer(static_cast<int64_t>(Misses)));
    Obj.set("hit_rate_permille",
            Json::integer(Total == 0 ? 0
                                     : static_cast<int64_t>(Hits * 1000 /
                                                            Total)));
    return Obj;
  };
  ResultCacheStats CS = Cache.stats();
  Rep.set("result_cache", HitRates(CS.Hits, CS.Misses));
  SnapshotCacheStats SS = Snapshots.stats();
  Rep.set("snapshot_cache", HitRates(SS.Hits, SS.Misses));
  if (Opts.Persist) {
    persist::PersistStats PS = Opts.Persist->stats();
    Json PersistObj = HitRates(PS.Hits, PS.Misses);
    PersistObj.set("live_records",
                   Json::integer(static_cast<int64_t>(PS.LiveRecords)));
    PersistObj.set("log_bytes",
                   Json::integer(static_cast<int64_t>(PS.LogBytes)));
    Rep.set("persist", std::move(PersistObj));
  }
  Rep.set("queue_depth_now",
          Json::integer(static_cast<int64_t>(queueDepth())));
  Rep.set("jobs_finished",
          Json::integer(static_cast<int64_t>(jobsFinished())));
  return Rep.dump();
}

/// runJob on the scheduler's hooks, plus the slow-job exemplar capture:
/// when SlowMs is armed, a per-job tracer temporarily replaces whatever
/// tracer is installed (the shard tracer, usually), so a job that overruns
/// the threshold arrives with its own Perfetto-loadable engine trace
/// instead of being lost in the merged timeline.
JobResult AnalysisScheduler::runCaptured(const JobSpec &Spec, std::string FP,
                                         const FixpointSnapshot *SnapIn,
                                         FixpointSnapshot *SnapOut,
                                         LifecycleSample *LS) {
  std::unique_ptr<obs::Tracer> JobTracer;
  obs::Tracer *Prev = nullptr;
  if (Opts.SlowMs != 0) {
    Prev = obs::Tracer::active();
    JobTracer = std::make_unique<obs::Tracer>(obs::Tracer::Sink::Buffer);
    obs::Tracer::install(JobTracer.get());
  }
  JobHooks Hooks;
  Hooks.Cancel = &CancelAll;
  Hooks.SnapIn = SnapIn;
  Hooks.SnapOut = SnapOut;
  Hooks.Phases = LS;
  Hooks.Fingerprint = std::move(FP);
  JobRun Run;
  runJob(Spec, Hooks, Run);
  JobResult R = std::move(Run.Result);
  if (JobTracer)
    obs::Tracer::install(Prev);

  if (Opts.SlowMs != 0 && R.DurationMs > static_cast<double>(Opts.SlowMs)) {
    SlowJobRecord Rec;
    Rec.Id = R.Id;
    Rec.Name = R.Name;
    Rec.TotalUs = static_cast<uint64_t>(R.DurationMs * 1000.0);
    if (!Opts.ExemplarDir.empty()) {
      std::string Path = Opts.ExemplarDir + "/slow-job-" +
                         std::to_string(R.Id) + ".trace.json";
      std::ofstream TOut(Path);
      if (TOut) {
        JobTracer->writeJson(TOut);
        Rec.TracePath = Path;
      } else if (obs::EventLog::global().enabled()) {
        obs::EventLog::global().emit(
            obs::Severity::Error, "service.scheduler", "exemplar-write-failed",
            {obs::EventField::str("path", Path)});
      }
    }
    if (obs::EventLog::global().enabled())
      obs::EventLog::global().emit(
          obs::Severity::Warn, "service.scheduler", "slow-job",
          {obs::EventField::num("id", Rec.Id),
           obs::EventField::str("name", Rec.Name),
           obs::EventField::num("total_us", Rec.TotalUs),
           obs::EventField::str("trace", Rec.TracePath)});
    Hub.recordSlowJob(std::move(Rec));
  }
  return R;
}

void AnalysisScheduler::noteOutcome(const JobSpec &Spec, const JobResult &R) {
  obs::EventLog &Log = obs::EventLog::global();
  if (!Log.enabled())
    return;
  // Failed and degraded outcomes log as "job-<status>" ("job-timeout",
  // "job-parse-error", ...); only a thrown job is an error.
  if (R.Status != JobStatus::Verified &&
      R.Status != JobStatus::AssertionsFailed)
    Log.emit(R.Status == JobStatus::Error ? obs::Severity::Error
                                          : obs::Severity::Warn,
             "service.scheduler", std::string("job-") + statusName(R.Status),
             {obs::EventField::num("id", R.Id),
              obs::EventField::str("name", R.Name),
              obs::EventField::str("error", R.Error)});
  if (Spec.Edit && R.Stats.ComponentsReused == 0)
    Log.emit(obs::Severity::Info, "service.scheduler", "incremental-fallback",
             {obs::EventField::num("id", R.Id),
              obs::EventField::str("name", R.Name)});
}

JobResult AnalysisScheduler::executeOrServe(const JobSpec &Spec,
                                            LifecycleSample *LS) {
  std::string FP = fingerprintJob(Spec);
  // TestCrash jobs bypass both cache tiers entirely: the hook exists to
  // exercise the crash path, and crashes are not cacheable anyway.
  if (!Spec.Opts.TestCrash) {
    std::shared_ptr<const JobResult> Hit = Cache.lookup(FP);
    if (Hit) {
      CAI_METRIC_INC("service.jobs.cache_hits");
    } else if (Opts.Persist && (Hit = Opts.Persist->lookup(FP))) {
      // Disk tier: a memory miss probes the persist store before
      // computing.  A hit is promoted into the LRU (so the next
      // submission is a memory hit) and served exactly like a memory hit
      // -- same "cached":true bytes, same replayed stats.
      CAI_METRIC_INC("service.jobs.persist_hits");
      Cache.insert(FP, Hit);
    }
    if (Hit) {
      JobResult R = *Hit;
      R.Id = Spec.Id;
      R.Name = Spec.Name;
      R.CacheHit = true;
      R.DurationMs = 0;
      if (LS)
        LS->CacheHit = true;
      return R;
    }
  }

  // Snapshot tier: only jobs with a known identity (explicit program_id
  // or an analyze_edit request) pay for snapshot recording; everything
  // else runs without one.
  const bool Identified =
      !Spec.Opts.TestCrash && (!Spec.ProgramId.empty() || Spec.Edit);
  std::string Canon, OptKey;
  std::shared_ptr<const FixpointSnapshot> SnapIn;
  FixpointSnapshot SnapOut;
  if (Identified) {
    Canon = canonicalProgramText(Spec.ProgramText);
    OptKey = optionsFingerprint(Spec.Opts);
    if (Spec.Edit) {
      Edits.fetch_add(1, std::memory_order_relaxed);
      SnapIn = Snapshots.lookup(Spec.ProgramId, Canon, OptKey);
    }
  }

  JobResult R = runCaptured(Spec, FP, SnapIn.get(),
                            Identified ? &SnapOut : nullptr, LS);
  CAI_METRIC_INC("service.jobs.completed");
  bumpStatusCounter(R.Status);
  noteOutcome(Spec, R);

  if (Identified) {
    ComponentsReused.fetch_add(R.Stats.ComponentsReused,
                               std::memory_order_relaxed);
    ComponentsRecomputed.fetch_add(R.Stats.ComponentsRecomputed,
                                   std::memory_order_relaxed);
    // A fallback is an edit that ran from scratch anyway: no usable
    // snapshot, or a WTO-shape change that invalidated every component.
    if (Spec.Edit && R.Stats.ComponentsReused == 0)
      IncrementalFallbacks.fetch_add(1, std::memory_order_relaxed);
  }

  if (jobCacheable(R.Status)) {
    auto WriteBegin = LS ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point();
    Cache.insert(FP, std::make_shared<const JobResult>(R));
    if (Opts.Persist)
      Opts.Persist->append(R);
    if (SnapOut.Complete)
      Snapshots.insert(Spec.ProgramId, std::move(Canon), std::move(OptKey),
                       std::make_shared<const FixpointSnapshot>(
                           std::move(SnapOut)));
    if (LS) {
      LS->CacheWriteUs = microsSince(WriteBegin);
      LS->HasCacheWrite = true;
    }
  }
  return R;
}

void AnalysisScheduler::workerMain(unsigned Index) {
  Shard &Sh = *Shards[Index];
  // Claim the shard observability for this thread before any probe runs.
  Sh.Registry.adoptByCurrentThread();
  obs::MetricsRegistry::install(&Sh.Registry);
  if (Sh.Trace) {
    Sh.Trace->adoptByCurrentThread();
    obs::Tracer::install(Sh.Trace.get());
  }
  const bool Telemetry = Hub.enabled();
  for (;;) {
    JobSpec Spec;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        break; // Stopping, and nothing left to drain.
      Spec = std::move(Queue.front());
      Queue.pop_front();
    }
    // Lifecycle stamping (telemetry channel only): queued -> scheduled
    // here, parsed/analyzed/cache-write inside executeOrServe, responded
    // after the callback below.
    LifecycleSample LS;
    if (Telemetry)
      LS.QueueUs = microsSince(Spec.EnqueueTime);
    JobResult R = executeOrServe(Spec, Telemetry ? &LS : nullptr);
    Finished.fetch_add(1, std::memory_order_relaxed);
    auto RespondBegin = Telemetry ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point();
    {
      std::lock_guard<std::mutex> Lock(ResultsMu);
      if (Callback)
        Callback(R);
      else
        Results.push_back(std::move(R));
      if (!Telemetry)
        --Pending;
    }
    if (Telemetry) {
      // Record the lifecycle sample BEFORE retiring the job from Pending,
      // so waitIdle() (stats drain, shutdown) implies the hub has seen
      // every finished job -- phase counts equal jobs deterministically.
      LS.RespondUs = microsSince(RespondBegin);
      LS.TotalUs = microsSince(Spec.EnqueueTime);
      Hub.recordJob(LS, Index);
      std::lock_guard<std::mutex> Lock(ResultsMu);
      --Pending;
    }
    IdleCv.notify_all();
  }
  obs::Tracer::install(nullptr);
  obs::MetricsRegistry::install(nullptr);
}
