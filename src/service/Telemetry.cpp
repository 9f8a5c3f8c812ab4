//===- service/Telemetry.cpp - Request-scoped service telemetry ------------===//

#include "service/Telemetry.h"

using namespace cai;
using namespace cai::service;

void TelemetryHub::recordJob(const LifecycleSample &S, unsigned Worker) {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  ++JobsRecorded;
  if (S.CacheHit)
    ++CacheHits;
  QueueH.record(S.QueueUs);
  if (S.HasParse)
    ParseH.record(S.ParseUs);
  if (S.HasAnalyze)
    AnalyzeH.record(S.AnalyzeUs);
  if (S.HasLint)
    LintH.record(S.LintUs);
  if (S.HasCacheWrite)
    CacheWriteH.record(S.CacheWriteUs);
  RespondH.record(S.RespondUs);
  TotalH.record(S.TotalUs);
  if (Worker >= WorkerBusyUs.size())
    WorkerBusyUs.resize(Worker + 1, 0);
  // Busy time is everything between dequeue and responded: the total
  // minus the queue wait.
  WorkerBusyUs[Worker] += S.TotalUs - S.QueueUs;
}

void TelemetryHub::sampleQueueDepth(uint64_t Depth) {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  QueueDepthH.record(Depth);
  if (Depth > QueueDepthPeak)
    QueueDepthPeak = Depth;
}

void TelemetryHub::recordSlowJob(SlowJobRecord R) {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  ++SlowTotal;
  Slow.push_back(std::move(R));
  while (Slow.size() > MaxSlowRecords)
    Slow.pop_front();
}

uint64_t TelemetryHub::uptimeUs() const { return microsSince(Epoch); }

void TelemetryHub::mergeInto(obs::MetricsRegistry &Into) const {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Into.latency("service.telemetry.queue_us").merge(QueueH);
  Into.latency("service.telemetry.parse_us").merge(ParseH);
  Into.latency("service.telemetry.analyze_us").merge(AnalyzeH);
  Into.latency("service.telemetry.lint_us").merge(LintH);
  Into.latency("service.telemetry.cache_write_us").merge(CacheWriteH);
  Into.latency("service.telemetry.respond_us").merge(RespondH);
  Into.latency("service.telemetry.total_us").merge(TotalH);
  Into.latency("service.telemetry.queue_depth").merge(QueueDepthH);
  Into.counter("service.telemetry.jobs").inc(JobsRecorded);
  Into.counter("service.telemetry.slow_jobs").inc(SlowTotal);
  Into.gauge("service.telemetry.queue_depth_peak")
      .set(static_cast<double>(QueueDepthPeak));
}

Json TelemetryHub::histogramJson(const obs::LatencyHistogram &H) {
  Json O = Json::object();
  O.set("count", Json::integer(static_cast<int64_t>(H.count())));
  O.set("sum_us", Json::integer(static_cast<int64_t>(H.sum())));
  O.set("min_us", Json::integer(static_cast<int64_t>(H.min())));
  O.set("max_us", Json::integer(static_cast<int64_t>(H.max())));
  O.set("p50_us", Json::integer(static_cast<int64_t>(H.percentile(0.50))));
  O.set("p90_us", Json::integer(static_cast<int64_t>(H.percentile(0.90))));
  O.set("p99_us", Json::integer(static_cast<int64_t>(H.percentile(0.99))));
  return O;
}

Json TelemetryHub::report(unsigned Workers) const {
  Json Rep = Json::object();
  Rep.set("telemetry", Json::boolean(true));
  Rep.set("enabled", Json::boolean(On));
  Rep.set("uptime_us", Json::integer(static_cast<int64_t>(uptimeUs())));

  std::lock_guard<std::mutex> Lock(Mu);
  Rep.set("jobs_recorded", Json::integer(static_cast<int64_t>(JobsRecorded)));
  Rep.set("cache_hits", Json::integer(static_cast<int64_t>(CacheHits)));

  Json Phases = Json::object();
  Phases.set("queue_us", histogramJson(QueueH));
  Phases.set("parse_us", histogramJson(ParseH));
  Phases.set("analyze_us", histogramJson(AnalyzeH));
  Phases.set("lint_us", histogramJson(LintH));
  Phases.set("cache_write_us", histogramJson(CacheWriteH));
  Phases.set("respond_us", histogramJson(RespondH));
  Phases.set("total_us", histogramJson(TotalH));
  Rep.set("phases", std::move(Phases));

  Json Depth = Json::object();
  Depth.set("samples", Json::integer(static_cast<int64_t>(QueueDepthH.count())));
  Depth.set("p50", Json::integer(static_cast<int64_t>(QueueDepthH.percentile(0.50))));
  Depth.set("p90", Json::integer(static_cast<int64_t>(QueueDepthH.percentile(0.90))));
  Depth.set("p99", Json::integer(static_cast<int64_t>(QueueDepthH.percentile(0.99))));
  Depth.set("peak", Json::integer(static_cast<int64_t>(QueueDepthPeak)));
  Rep.set("queue_depth", std::move(Depth));

  // Worker utilization: busy microseconds per worker over the hub's
  // uptime, in permille so the report avoids double formatting.
  uint64_t Up = uptimeUs();
  Json Util = Json::array();
  for (unsigned W = 0; W < Workers; ++W) {
    uint64_t Busy = W < WorkerBusyUs.size() ? WorkerBusyUs[W] : 0;
    Json U = Json::object();
    U.set("worker", Json::integer(W));
    U.set("busy_us", Json::integer(static_cast<int64_t>(Busy)));
    U.set("utilization_permille",
          Json::integer(Up == 0 ? 0
                                : static_cast<int64_t>((Busy * 1000) / Up)));
    Util.push(std::move(U));
  }
  Rep.set("workers", std::move(Util));

  Json SlowArr = Json::array();
  for (const SlowJobRecord &R : Slow) {
    Json S = Json::object();
    S.set("id", Json::integer(static_cast<int64_t>(R.Id)));
    S.set("name", Json::str(R.Name));
    S.set("total_us", Json::integer(static_cast<int64_t>(R.TotalUs)));
    S.set("trace", Json::str(R.TracePath));
    SlowArr.push(std::move(S));
  }
  Json SlowObj = Json::object();
  SlowObj.set("total", Json::integer(static_cast<int64_t>(SlowTotal)));
  SlowObj.set("recent", std::move(SlowArr));
  Rep.set("slow_jobs", std::move(SlowObj));
  return Rep;
}
