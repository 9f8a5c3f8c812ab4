//===- obs/Metrics.h - Hierarchical metrics registry -------------*- C++ -*-===//
///
/// \file
/// A process-wide registry of named counters, gauges, and time histograms
/// -- the single export point for every statistic the analyzer, the
/// product combinators, the decision procedures and the caches produce.
/// Names are dotted paths ("simplex.solves", "analyzer.joins"); the JSON
/// export nests on the dots and the text export emits one sorted
/// "name = value" line per metric, so two identical runs print
/// byte-identical output (the --stats determinism test relies on this).
///
/// Hot-path discipline: a counter increment is one pointer-stable
/// reference cached per probe site and thread (a thread_local local,
/// revalidated against the thread's installed registry by one pointer
/// compare) plus a 64-bit add -- no lookup, no lock (one analysis per
/// thread, same contract as QueryCache).  Time histograms cost a clock
/// read per sample and are therefore gated behind enableTiming(), which
/// cai-analyze turns on with --metrics-out.
///
/// Sharding: probes resolve through MetricsRegistry::current(), which is
/// the registry installed on the calling thread (install()) or the
/// process-wide global() when none is.  The analysis service gives every
/// worker its own shard registry and merges them deterministically on
/// export (mergeFrom: counters and histograms sum, gauges last-shard
/// wins).  Each registry asserts, in builds with assertions (all of
/// ours), that mutation happens only on the thread that owns it.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_OBS_METRICS_H
#define CAI_OBS_METRICS_H

#include <cassert>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <thread>

namespace cai {
namespace obs {

/// A monotonically increasing 64-bit counter.
class Counter {
public:
  void inc(uint64_t N = 1) { V += N; }
  uint64_t value() const { return V; }

private:
  uint64_t V = 0;
};

/// A last-value-wins metric (e.g. "wto.components" of the latest run).
class Gauge {
public:
  void set(double X) { V = X; }
  double value() const { return V; }

private:
  double V = 0;
};

/// A time histogram over exponential (power-of-two microsecond) buckets,
/// plus count/sum/min/max.  Bucket I counts samples in [2^I, 2^(I+1)) us,
/// bucket 0 includes everything below 1 us.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 32;

  void record(double Us) {
    ++Count;
    Sum += Us;
    if (Count == 1 || Us < MinV)
      MinV = Us;
    if (Count == 1 || Us > MaxV)
      MaxV = Us;
    unsigned B = 0;
    while (B + 1 < NumBuckets && Us >= static_cast<double>(1ull << (B + 1)))
      ++B;
    ++Buckets[B];
  }

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double min() const { return MinV; }
  double max() const { return MaxV; }
  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }
  uint64_t bucket(unsigned I) const { return Buckets[I]; }

  /// Folds \p RHS into this histogram: counts, sums and buckets add,
  /// min/max combine.  The shard-merge primitive.
  void merge(const Histogram &RHS) {
    if (RHS.Count == 0)
      return;
    if (Count == 0 || RHS.MinV < MinV)
      MinV = RHS.MinV;
    if (Count == 0 || RHS.MaxV > MaxV)
      MaxV = RHS.MaxV;
    Count += RHS.Count;
    Sum += RHS.Sum;
    for (unsigned I = 0; I < NumBuckets; ++I)
      Buckets[I] += RHS.Buckets[I];
  }

private:
  uint64_t Count = 0;
  double Sum = 0, MinV = 0, MaxV = 0;
  uint64_t Buckets[NumBuckets] = {};
};

/// A latency histogram over log-bucketed integer microseconds with exact
/// deterministic percentile extraction.  The layout is fixed at compile
/// time (HdrHistogram-style): 8 linear sub-buckets per power-of-two
/// octave, so every bucket is at most 12.5% wide relative to its lower
/// bound, and two histograms -- or the same histogram across shards --
/// always agree bucket for bucket.  percentile() returns the lower bound
/// of the bucket containing the nearest-rank sample, clamped to
/// [min, max]; the value is therefore within 12.5% of the true sample and
/// *bucket-exact* against a sorted-vector oracle (obs_test pins both).
class LatencyHistogram {
public:
  /// 8 unit-width buckets for [0,8), then 8 sub-buckets per octave up to
  /// 2^40 us (~12.7 days); everything larger clamps into the last bucket.
  static constexpr unsigned NumBuckets = 304;

  /// The bucket index of \p Us.  For Us < 8 the bucket is Us itself; for
  /// larger values, octave k = floor(log2 Us) contributes 8 sub-buckets
  /// selected by the 3 bits below the leading bit.
  static unsigned bucketIndex(uint64_t Us) {
    if (Us < 8)
      return static_cast<unsigned>(Us);
    unsigned K = 63 - static_cast<unsigned>(countLeadingZeros(Us));
    unsigned Sub = static_cast<unsigned>((Us >> (K - 3)) & 7);
    unsigned Idx = 8 * (K - 2) + Sub;
    return Idx < NumBuckets ? Idx : NumBuckets - 1;
  }

  /// The smallest value landing in bucket \p Idx.
  static uint64_t bucketLowerBound(unsigned Idx) {
    if (Idx < 8)
      return Idx;
    unsigned K = Idx / 8 + 2;
    return static_cast<uint64_t>(8 + Idx % 8) << (K - 3);
  }

  /// One past the largest value in bucket \p Idx (UINT64_MAX for the
  /// clamping last bucket).
  static uint64_t bucketUpperBound(unsigned Idx) {
    return Idx + 1 < NumBuckets ? bucketLowerBound(Idx + 1) : UINT64_MAX;
  }

  void record(uint64_t Us) {
    ++Count;
    Sum += Us;
    if (Count == 1 || Us < MinV)
      MinV = Us;
    if (Count == 1 || Us > MaxV)
      MaxV = Us;
    ++Buckets[bucketIndex(Us)];
  }

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return MinV; }
  uint64_t max() const { return MaxV; }
  uint64_t bucket(unsigned I) const { return Buckets[I]; }

  /// The \p Q quantile (0 < Q <= 1) by nearest rank: the lower bound of
  /// the bucket holding sample number ceil(Q * count), clamped to
  /// [min, max] so p0/p100 degenerate to the exact extremes.  0 when
  /// empty.  Deterministic: depends only on bucket contents.
  uint64_t percentile(double Q) const {
    if (Count == 0)
      return 0;
    double Scaled = Q * static_cast<double>(Count);
    uint64_t Rank = static_cast<uint64_t>(Scaled);
    if (static_cast<double>(Rank) < Scaled)
      ++Rank; // ceil
    if (Rank < 1)
      Rank = 1;
    if (Rank > Count)
      Rank = Count;
    uint64_t Seen = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      Seen += Buckets[I];
      if (Seen >= Rank) {
        uint64_t V = bucketLowerBound(I);
        if (V < MinV)
          V = MinV;
        if (V > MaxV)
          V = MaxV;
        return V;
      }
    }
    return MaxV; // Unreachable when counts are consistent.
  }

  /// Folds \p RHS in: buckets/count/sum add, min/max combine.  Merging N
  /// shard histograms in any order yields the same buckets as recording
  /// every sample into one histogram (the cross-shard property test).
  void merge(const LatencyHistogram &RHS) {
    if (RHS.Count == 0)
      return;
    if (Count == 0 || RHS.MinV < MinV)
      MinV = RHS.MinV;
    if (Count == 0 || RHS.MaxV > MaxV)
      MaxV = RHS.MaxV;
    Count += RHS.Count;
    Sum += RHS.Sum;
    for (unsigned I = 0; I < NumBuckets; ++I)
      Buckets[I] += RHS.Buckets[I];
  }

private:
  static unsigned countLeadingZeros(uint64_t V) {
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_clzll(V));
#else
    unsigned N = 0;
    for (uint64_t Bit = 1ull << 63; Bit && !(V & Bit); Bit >>= 1)
      ++N;
    return N;
#endif
  }

  uint64_t Count = 0;
  uint64_t Sum = 0, MinV = 0, MaxV = 0;
  uint64_t Buckets[NumBuckets] = {};
};

/// The registry.  References returned by counter()/gauge()/histogram() are
/// stable for the process lifetime (backed by std::map nodes on a leaked
/// singleton), which is what lets probe sites cache them in local statics.
class MetricsRegistry {
public:
  MetricsRegistry() : Owner(std::this_thread::get_id()) {}

  /// The process-wide registry (never destroyed, so probe sites cached in
  /// static locals stay valid during shutdown).
  static MetricsRegistry &global();

  /// The registry probes on the calling thread resolve to: the one
  /// installed with install() on this thread, else global().
  static MetricsRegistry &current();

  /// Installs \p R as the calling thread's registry (nullptr reverts to
  /// global()).  The caller keeps ownership.  Service workers install
  /// their shard registry once, at thread start, before any probe runs.
  static void install(MetricsRegistry *R);

  /// Rebinds the ownership assertion to the calling thread; a scheduler
  /// constructs shard registries up front and each worker adopts its own.
  void adoptByCurrentThread() { Owner = std::this_thread::get_id(); }

  Counter &counter(const std::string &Name) {
    assertOwned();
    return Counters[Name];
  }
  Gauge &gauge(const std::string &Name) {
    assertOwned();
    return Gauges[Name];
  }
  Histogram &histogram(const std::string &Name) {
    assertOwned();
    return Histograms[Name];
  }
  LatencyHistogram &latency(const std::string &Name) {
    assertOwned();
    return Latencies[Name];
  }

  /// Read-only lookup; nullptr when never recorded.  Exports and tests.
  const LatencyHistogram *findLatency(const std::string &Name) const {
    auto It = Latencies.find(Name);
    return It == Latencies.end() ? nullptr : &It->second;
  }

  /// Folds \p Shard into this registry: counters and histogram contents
  /// sum; gauges take the incoming value (so merging shards in index
  /// order makes the last-writing shard win deterministically).  Reads
  /// \p Shard without asserting its ownership -- callers merge after the
  /// shard's worker has been joined.
  void mergeFrom(const MetricsRegistry &Shard);

  /// Whether ScopedTimer samples are recorded (clock reads cost ~20ns
  /// each; off by default).
  bool timingEnabled() const { return Timing; }
  void enableTiming(bool On = true) { Timing = On; }

  /// Snapshot of every counter value, for before/after deltas in tests.
  std::map<std::string, uint64_t> counterValues() const;

  /// Hierarchical JSON: dotted names become nested objects, sorted keys.
  void writeJson(std::ostream &OS) const;

  /// One sorted "name = value" line per metric (the --stats backend);
  /// histograms with no samples are left out.
  void writeText(std::ostream &OS, const std::string &Prefix = "") const;

  /// Prometheus text exposition (version 0.0.4): every metric mangled to
  /// `cai_<name with non-alphanumerics as '_'>`, counters as `counter`,
  /// gauges as `gauge`, both histogram kinds as `histogram` with
  /// cumulative `_bucket{le="..."}` series (non-empty buckets only; the
  /// final `+Inf` bucket always equals `_count`).  Sorted and
  /// deterministic like the other exports.
  void writePrometheus(std::ostream &OS) const;

  /// Zeroes every metric (counters keep their registration).  Tests only;
  /// probe-site references remain valid.
  void reset();

private:
  /// Mutating a registry from a thread that does not own it corrupts the
  /// std::map undetectably; fail loudly instead.
  void assertOwned() const {
    assert(Owner == std::this_thread::get_id() &&
           "MetricsRegistry mutated from a thread other than its owner; "
           "shard registries must be installed/adopted per worker thread");
  }

  bool Timing = false;
  std::thread::id Owner;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
  std::map<std::string, LatencyHistogram> Latencies;
};

namespace detail {

/// Per-site, per-thread probe caching: revalidates the cached reference
/// with one pointer compare so installing a different registry on this
/// thread (or never installing one) always resolves correctly.
inline Counter &currentCounter(MetricsRegistry *&Cached, Counter *&C,
                               const char *Name) {
  MetricsRegistry &Cur = MetricsRegistry::current();
  if (&Cur != Cached) {
    Cached = &Cur;
    C = &Cur.counter(Name);
  }
  return *C;
}

inline Histogram &currentHistogram(MetricsRegistry *&Cached, Histogram *&H,
                                   const char *Name) {
  MetricsRegistry &Cur = MetricsRegistry::current();
  if (&Cur != Cached) {
    Cached = &Cur;
    H = &Cur.histogram(Name);
  }
  return *H;
}

} // namespace detail

/// RAII timer recording its scope's duration (microseconds) into a
/// histogram when timing is enabled.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram &H)
      : H(MetricsRegistry::current().timingEnabled() ? &H : nullptr) {
    if (this->H)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (H)
      H->record(std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - Start)
                    .count());
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Histogram *H;
  std::chrono::steady_clock::time_point Start;
};

} // namespace obs
} // namespace cai

#ifndef CAI_OBS_CONCAT
#define CAI_OBS_CONCAT_(A, B) A##B
#define CAI_OBS_CONCAT(A, B) CAI_OBS_CONCAT_(A, B)
#endif
/// Bumps the named counter in the calling thread's registry; the registry
/// lookup happens once per site per thread (plus one pointer compare per
/// hit to revalidate against the installed registry).
#define CAI_METRIC_INC(Name)                                                   \
  do {                                                                         \
    static thread_local ::cai::obs::MetricsRegistry *CaiR = nullptr;           \
    static thread_local ::cai::obs::Counter *CaiC = nullptr;                   \
    ::cai::obs::detail::currentCounter(CaiR, CaiC, Name).inc();                \
  } while (0)
#define CAI_METRIC_ADD(Name, N)                                                \
  do {                                                                         \
    static thread_local ::cai::obs::MetricsRegistry *CaiR = nullptr;           \
    static thread_local ::cai::obs::Counter *CaiC = nullptr;                   \
    ::cai::obs::detail::currentCounter(CaiR, CaiC, Name)                       \
        .inc(static_cast<uint64_t>(N));                                        \
  } while (0)
/// Times the rest of the enclosing scope into the named histogram.
#define CAI_METRIC_TIME(Name)                                                  \
  static thread_local ::cai::obs::MetricsRegistry *CAI_OBS_CONCAT(             \
      CaiMR_, __LINE__) = nullptr;                                             \
  static thread_local ::cai::obs::Histogram *CAI_OBS_CONCAT(CaiHP_,            \
                                                            __LINE__) =       \
      nullptr;                                                                 \
  ::cai::obs::ScopedTimer CAI_OBS_CONCAT(CaiTimer_, __LINE__)(                 \
      ::cai::obs::detail::currentHistogram(                                    \
          CAI_OBS_CONCAT(CaiMR_, __LINE__), CAI_OBS_CONCAT(CaiHP_, __LINE__), \
          Name))

#endif // CAI_OBS_METRICS_H
