//===- obs/Metrics.cpp - Hierarchical metrics registry ---------------------===//

#include "obs/Metrics.h"

#include "support/TextIO.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace cai;
using namespace cai::obs;

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry *R = new MetricsRegistry(); // Leaked; see header.
  return *R;
}

/// The per-thread override; null means "use global()".
static thread_local MetricsRegistry *CurrentRegistry = nullptr;

MetricsRegistry &MetricsRegistry::current() {
  return CurrentRegistry ? *CurrentRegistry : global();
}

void MetricsRegistry::install(MetricsRegistry *R) { CurrentRegistry = R; }

void MetricsRegistry::mergeFrom(const MetricsRegistry &Shard) {
  assertOwned();
  for (const auto &[Name, C] : Shard.Counters)
    Counters[Name].inc(C.value());
  for (const auto &[Name, G] : Shard.Gauges)
    Gauges[Name].set(G.value());
  for (const auto &[Name, H] : Shard.Histograms)
    Histograms[Name].merge(H);
  for (const auto &[Name, L] : Shard.Latencies)
    Latencies[Name].merge(L);
}

std::map<std::string, uint64_t> MetricsRegistry::counterValues() const {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, C] : Counters)
    Out.emplace(Name, C.value());
  return Out;
}

void MetricsRegistry::reset() {
  for (auto &[Name, C] : Counters)
    C = Counter();
  for (auto &[Name, G] : Gauges)
    G = Gauge();
  for (auto &[Name, H] : Histograms)
    H = Histogram();
  for (auto &[Name, L] : Latencies)
    L = LatencyHistogram();
}

namespace {

/// A flattened metric ready for nesting: path segments plus a rendered
/// JSON value.
struct Flat {
  std::vector<std::string> Path;
  std::string Json;
};

std::vector<std::string> splitDots(const std::string &Name) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (true) {
    size_t Dot = Name.find('.', Pos);
    if (Dot == std::string::npos) {
      Out.push_back(Name.substr(Pos));
      return Out;
    }
    Out.push_back(Name.substr(Pos, Dot - Pos));
    Pos = Dot + 1;
  }
}

/// Emits the [Begin, End) range of sorted flattened metrics as nested JSON
/// objects, recursing on the path segment at \p Level.
void writeNested(std::ostream &OS, const std::vector<Flat> &Flats,
                 size_t Begin, size_t End, size_t Level) {
  OS << "{";
  bool First = true;
  size_t I = Begin;
  while (I < End) {
    const std::string &Seg = Flats[I].Path[Level];
    size_t J = I;
    while (J < End && Flats[J].Path.size() > Level &&
           Flats[J].Path[Level] == Seg)
      ++J;
    if (!First)
      OS << ",";
    First = false;
    writeJsonString(OS, Seg);
    OS << ":";
    if (J == I + 1 && Flats[I].Path.size() == Level + 1) {
      OS << Flats[I].Json;
    } else {
      // All entries in [I, J) share the segment; leaves whose path ends
      // here would collide with the subtree, so the flattener suffixes
      // them (see below) -- recurse unconditionally.
      writeNested(OS, Flats, I, J, Level + 1);
    }
    I = J;
  }
  OS << "}";
}

std::string renderDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

void MetricsRegistry::writeJson(std::ostream &OS) const {
  std::vector<Flat> Flats;
  auto Add = [&](const std::string &Name, std::string Json) {
    Flats.push_back({splitDots(Name), std::move(Json)});
  };
  for (const auto &[Name, C] : Counters)
    Add(Name, std::to_string(C.value()));
  for (const auto &[Name, G] : Gauges)
    Add(Name, renderDouble(G.value()));
  for (const auto &[Name, H] : Histograms) {
    std::string J = "{\"count\":" + std::to_string(H.count()) +
                    ",\"sum_us\":" + renderDouble(H.sum()) +
                    ",\"min_us\":" + renderDouble(H.min()) +
                    ",\"max_us\":" + renderDouble(H.max()) +
                    ",\"mean_us\":" + renderDouble(H.mean()) + "}";
    Add(Name, std::move(J));
  }
  for (const auto &[Name, L] : Latencies) {
    std::string J = "{\"count\":" + std::to_string(L.count()) +
                    ",\"sum_us\":" + std::to_string(L.sum()) +
                    ",\"min_us\":" + std::to_string(L.min()) +
                    ",\"max_us\":" + std::to_string(L.max()) +
                    ",\"p50_us\":" + std::to_string(L.percentile(0.50)) +
                    ",\"p90_us\":" + std::to_string(L.percentile(0.90)) +
                    ",\"p99_us\":" + std::to_string(L.percentile(0.99)) + "}";
    Add(Name, std::move(J));
  }
  // Sort by path; a leaf that is also an interior node ("a.b" next to
  // "a.b.c") would produce a duplicate key, so suffix the leaf segment.
  std::sort(Flats.begin(), Flats.end(),
            [](const Flat &A, const Flat &B) { return A.Path < B.Path; });
  for (size_t I = 0; I + 1 < Flats.size(); ++I) {
    const auto &P = Flats[I].Path, &Q = Flats[I + 1].Path;
    if (P.size() < Q.size() &&
        std::equal(P.begin(), P.end(), Q.begin()))
      Flats[I].Path.back() += "$value";
  }
  std::sort(Flats.begin(), Flats.end(),
            [](const Flat &A, const Flat &B) { return A.Path < B.Path; });
  writeNested(OS, Flats, 0, Flats.size(), 0);
  OS << "\n";
}

void MetricsRegistry::writeText(std::ostream &OS,
                                const std::string &Prefix) const {
  // std::map iteration is sorted, so the output is deterministic across
  // runs by construction.
  for (const auto &[Name, C] : Counters)
    if (Name.rfind(Prefix, 0) == 0)
      OS << Name << " = " << C.value() << "\n";
  for (const auto &[Name, G] : Gauges)
    if (Name.rfind(Prefix, 0) == 0)
      OS << Name << " = " << renderDouble(G.value()) << "\n";
  // A histogram without samples (time histograms are off unless
  // --metrics-out asks for them) has nothing to say here.
  for (const auto &[Name, H] : Histograms)
    if (Name.rfind(Prefix, 0) == 0 && H.count() != 0)
      OS << Name << " = {count " << H.count() << ", mean "
         << renderDouble(H.mean()) << "us, max " << renderDouble(H.max())
         << "us}\n";
  for (const auto &[Name, L] : Latencies)
    if (Name.rfind(Prefix, 0) == 0 && L.count() != 0)
      OS << Name << " = {count " << L.count() << ", p50 "
         << L.percentile(0.50) << "us, p90 " << L.percentile(0.90)
         << "us, p99 " << L.percentile(0.99) << "us, max " << L.max()
         << "us}\n";
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Everything the
/// registry's dotted names contain outside that set becomes '_', and the
/// `cai_` prefix both namespaces the export and keeps a leading digit from
/// ever starting the name.
std::string promName(const std::string &Name) {
  std::string Out = "cai_";
  for (char Ch : Name) {
    bool Ok = (Ch >= 'a' && Ch <= 'z') || (Ch >= 'A' && Ch <= 'Z') ||
              (Ch >= '0' && Ch <= '9') || Ch == '_';
    Out += Ok ? Ch : '_';
  }
  return Out;
}

void promHeader(std::ostream &OS, const std::string &PName,
                const std::string &Orig, const char *Type) {
  OS << "# HELP " << PName << " cai metric " << Orig << "\n";
  OS << "# TYPE " << PName << " " << Type << "\n";
}

} // namespace

void MetricsRegistry::writePrometheus(std::ostream &OS) const {
  // std::map iteration order makes every section sorted and repeatable.
  for (const auto &[Name, C] : Counters) {
    std::string P = promName(Name);
    promHeader(OS, P, Name, "counter");
    OS << P << " " << C.value() << "\n";
  }
  for (const auto &[Name, G] : Gauges) {
    std::string P = promName(Name);
    promHeader(OS, P, Name, "gauge");
    OS << P << " " << renderDouble(G.value()) << "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string P = promName(Name);
    promHeader(OS, P, Name, "histogram");
    uint64_t Cum = 0;
    for (unsigned I = 0; I < Histogram::NumBuckets; ++I) {
      if (H.bucket(I) == 0)
        continue;
      Cum += H.bucket(I);
      // Bucket I covers [2^I, 2^(I+1)) us; le is the exclusive upper
      // bound, which over-approximates by at most one ulp of the grid.
      OS << P << "_bucket{le=\"" << (1ull << (I + 1)) << "\"} " << Cum
         << "\n";
    }
    OS << P << "_bucket{le=\"+Inf\"} " << H.count() << "\n";
    OS << P << "_sum " << renderDouble(H.sum()) << "\n";
    OS << P << "_count " << H.count() << "\n";
  }
  for (const auto &[Name, L] : Latencies) {
    std::string P = promName(Name);
    promHeader(OS, P, Name, "histogram");
    uint64_t Cum = 0;
    for (unsigned I = 0; I < LatencyHistogram::NumBuckets; ++I) {
      if (L.bucket(I) == 0)
        continue;
      Cum += L.bucket(I);
      uint64_t Ub = LatencyHistogram::bucketUpperBound(I);
      if (Ub == UINT64_MAX)
        continue; // The clamping bucket; the +Inf line below covers it.
      OS << P << "_bucket{le=\"" << Ub << "\"} " << Cum << "\n";
    }
    OS << P << "_bucket{le=\"+Inf\"} " << L.count() << "\n";
    OS << P << "_sum " << L.sum() << "\n";
    OS << P << "_count " << L.count() << "\n";
  }
}
