//===- perfbench/tool/Gen.cpp - Seeded request streams ---------------------===//
///
/// `pbtool gen --workload W --seed S --count N --warmup M --segments K
///             --out DIR` writes
///
///   DIR/requests.jsonl  the N timed request lines, exactly as sent
///   DIR/warmup.jsonl    M untimed warm-up lines per server lifetime
///                       (drawn from a disjoint seed)
///   DIR/history.jsonl   session only: the programs that fill the persist
///                       store before the server under test starts
///   DIR/plan.json       request kinds, and the counters each of the K
///                       server lifetimes must report
///
/// Everything is a pure function of (workload, seed, count): no clock, no
/// cost-based filtering.  Programs are kept distinct by canonical text
/// (service::canonicalProgramText), so tracks and loops never hit the
/// result cache.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "interp/ConcreteInterp.h"
#include "interp/ProgramGen.h"
#include "service/Fingerprint.h"

#include <set>

using cai::interp::SplitMix64;

namespace pb {
namespace {

/// Independent sub-streams of one workload seed.
enum Stream : uint64_t {
  TimedPrograms = 1,
  WarmupPrograms = 2,
  HistoryPrograms = 3,
  Mix = 4,
  FreshPrograms = 5,
};

uint64_t streamSeed(uint64_t Seed, uint64_t S) {
  SplitMix64 R(Seed * 0x9e3779b97f4a7c15ull + S * 0xd1b54a32d192ed03ull);
  return R.next();
}

/// Figure 1 track programs as .imp text: one track per kind (affine, uf,
/// reduced, mixed) with the update and assertion templates of
/// src/workloads/Workloads.cpp, shuffled, 1-2 branch-wrapped updates and
/// 0-2 havoc'd noise variables.
class TrackGen {
public:
  explicit TrackGen(uint64_t Seed) : R(Seed) {}

  std::string next() {
    struct Track {
      int Kind; // 0 affine, 1 uf, 2 reduced, 3 mixed
      unsigned Id;
      int K;
    };
    std::vector<Track> Tracks;
    for (int Kind = 0; Kind < 4; ++Kind)
      Tracks.push_back({Kind, unsigned(Kind), 1 + int(R.below(4))});
    for (size_t I = Tracks.size() - 1; I > 0; --I)
      std::swap(Tracks[I], Tracks[R.below(I + 1)]);
    unsigned Branches = 1 + unsigned(R.below(2));
    unsigned Noise = unsigned(R.below(3));

    std::string Out;
    auto Line = [&](unsigned Indent, const std::string &S) {
      Out.append(Indent, ' ');
      Out += S;
      Out += '\n';
    };
    auto Var = [](const char *Base, const Track &T) {
      return std::string(Base) + std::to_string(T.Id);
    };
    for (const Track &T : Tracks) {
      int C = int(R.below(5));
      std::string X = Var("x", T), Y = Var("y", T);
      Line(0, X + " := " + std::to_string(C) + ";");
      switch (T.Kind) {
      case 0:
        Line(0, Y + " := " + std::to_string(2 * C) + ";");
        break;
      case 1:
        Line(0, Y + " := F(" + std::to_string(C) + ");");
        break;
      case 2:
        Line(0, Y + " := " + std::to_string(C) + ";");
        break;
      default:
        Line(0, Y + " := F(" + std::to_string(C + T.K) + ");");
        break;
      }
    }
    for (unsigned N = 0; N < Noise; ++N)
      Line(0, "noise" + std::to_string(N) + " := " +
                  std::to_string(R.below(7)) + ";");

    auto Update = [&](unsigned Indent, const Track &T, int Variant) {
      std::string X = Var("x", T), Y = Var("y", T);
      switch (T.Kind) {
      case 0: {
        int Step = 1 + Variant;
        Line(Indent, X + " := " + X + " + " + std::to_string(Step) + ";");
        Line(Indent, Y + " := " + Y + " + " + std::to_string(2 * Step) + ";");
        return;
      }
      case 1:
        Line(Indent, X + " := F(" + X + ");");
        Line(Indent, Y + " := F(" + Y + ");");
        return;
      case 2:
        Line(Indent, X + " := F(2*" + X + " - " + Y + ");");
        Line(Indent, Y + " := F(" + Y + ");");
        return;
      default:
        Line(Indent, X + " := F(" + std::to_string(T.K) + " + " + X + ");");
        Line(Indent, Y + " := F(" + Y + " + " + std::to_string(T.K) + ");");
        return;
      }
    };
    Line(0, "while (*) {");
    size_t Plain = Tracks.size() - std::min<size_t>(Branches, Tracks.size());
    for (size_t I = 0; I < Tracks.size(); ++I) {
      if (I < Plain) {
        Update(2, Tracks[I], 0);
        continue;
      }
      Line(2, "if (*) {");
      Update(4, Tracks[I], 0);
      Line(2, "} else {");
      Update(4, Tracks[I], 1);
      Line(2, "}");
    }
    for (unsigned N = 0; N < Noise; ++N)
      Line(2, "noise" + std::to_string(N) + " := *;");
    Line(0, "}");
    for (const Track &T : Tracks) {
      std::string X = Var("x", T), Y = Var("y", T);
      switch (T.Kind) {
      case 0:
        Line(0, "assert(" + Y + " = 2*" + X + ");");
        break;
      case 1:
        Line(0, "assert(" + Y + " = F(" + X + "));");
        break;
      case 2:
        Line(0, "assert(" + Y + " = " + X + ");");
        break;
      default:
        Line(0, "assert(" + Y + " = F(" + X + " + " + std::to_string(T.K) +
                    "));");
        break;
      }
    }
    return Out;
  }

private:
  SplitMix64 R;
};

/// interp::generateProgram programs: one while loop over at most four
/// statements, no nesting, three variables, F/G applications and theory
/// predicates on.  The generator's default shape (ten statements, two
/// loops, nesting depth two) is heavy tailed under logical:poly,uf: one
/// program took a fifth of a 1000-program run and the p99 latency of
/// 1900-program runs spread by a third across seeds.  This shape keeps a
/// single cost peak (largest program under 2% of a run).
class LoopGen {
public:
  explicit LoopGen(uint64_t Seed) : R(Seed) {}
  std::string next() {
    cai::interp::GenOptions O;
    O.Seed = R.next();
    O.MaxStmts = 4;
    O.MaxLoops = 1;
    O.MaxDepth = 1;
    return cai::interp::generateProgram(O);
  }

private:
  SplitMix64 R;
};

/// Rejects programs whose canonical text was seen before, across every
/// stream of one run (timed, warm-up, history, fresh).
class DistinctSet {
public:
  bool insert(const std::string &Text) {
    return Seen.insert(cai::service::canonicalProgramText(Text)).second;
  }

private:
  std::set<std::string> Seen;
};

template <typename GenT>
std::string nextDistinct(GenT &G, DistinctSet &Seen) {
  for (;;) {
    std::string P = G.next();
    if (Seen.insert(P))
      return P;
  }
}

std::string requestLine(uint64_t Id, const std::string &Name,
                        const std::string &Program, const std::string &Domain,
                        bool Lint = false, const std::string &EditId = "") {
  Json J = Json::object();
  if (!EditId.empty())
    J.set("cmd", Json::str("analyze_edit"));
  J.set("id", Json::integer(int64_t(Id)));
  J.set("name", Json::str(Name));
  if (!EditId.empty())
    J.set("program_id", Json::str(EditId));
  J.set("program", Json::str(Program));
  if (!Domain.empty())
    J.set("domain", Json::str(Domain));
  if (Lint)
    J.set("options", Json::object().set("lint", Json::boolean(true)));
  return J.dump();
}

/// A presentation-only variant of \p Text: the canonical text (and so the
/// fingerprint) is unchanged, and so is the byte offset of every
/// statement, which names the assertions ("assert@<offset>").  Variants
/// only touch the end of the text or rewrite the leading comment in
/// place.
std::string present(const std::string &Text, SplitMix64 &R, uint64_t Serial) {
  std::string Body = Text.substr(0, Text.size() - 1); // Drop the final '\n'.
  switch (R.below(6)) {
  case 0:
    return Text + "\n";
  case 1:
    return Text + "// resubmission " + std::to_string(Serial) + "\n";
  case 2:
    return Body + std::string(1 + R.below(3), ' ') + "\n";
  case 3:
    return Body + "\r\n";
  case 4: {
    size_t Eol = Text.find('\n');
    std::string Fill = " resubmission " + std::to_string(Serial);
    Fill.resize(Eol - 2, '.');
    return "//" + Fill + Text.substr(Eol);
  }
  default:
    return Text;
  }
}

/// \p Base with its final statement (always a top-level assert) replaced:
/// version \p V of an edited program.
std::string editVersion(const std::string &Base, uint64_t V) {
  size_t LastLine = Base.rfind('\n', Base.size() - 2) + 1;
  return Base.substr(0, LastLine) + "assert(a <= " + std::to_string(20 + V) +
         ");\n";
}

/// What the plan implies for the counters of one server lifetime.
struct Expect {
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t SnapshotHits = 0, SnapshotMisses = 0;
  uint64_t Edits = 0, Fallbacks = 0;
  uint64_t Replayed = 0, PersistAppends = 0;

  Json toJson() const {
    auto I = [](uint64_t V) { return Json::integer(int64_t(V)); };
    Json J = Json::object();
    J.set("cache_hits", I(CacheHits))
        .set("cache_misses", I(CacheMisses))
        .set("snapshot_hits", I(SnapshotHits))
        .set("snapshot_misses", I(SnapshotMisses))
        .set("edits", I(Edits))
        .set("fallbacks", I(Fallbacks))
        .set("replayed", I(Replayed))
        .set("persist_appends", I(PersistAppends));
    return J;
  }
  void add(const Expect &O) {
    CacheHits += O.CacheHits;
    CacheMisses += O.CacheMisses;
    SnapshotHits += O.SnapshotHits;
    SnapshotMisses += O.SnapshotMisses;
    Edits += O.Edits;
    Fallbacks += O.Fallbacks;
    Replayed += O.Replayed;
    PersistAppends += O.PersistAppends;
  }
};

} // namespace

int cmdGen(const Flags &F) {
  Workload W = workloadByName(F.get("workload"));
  uint64_t Seed = F.num("seed", 1);
  uint64_t Count = F.num("count", 100);
  uint64_t WarmupCount = F.num("warmup", 5);
  uint64_t Segments = F.num("segments", 1);
  const std::string &Dir = F.get("out");
  if (Segments == 0 || Count < Segments)
    throw std::runtime_error("need at least one request per segment");

  // The run is Segments server lifetimes in a row: lifetime K answers
  // WarmupCount warm-up requests, then timed requests
  // [K*Count/Segments, (K+1)*Count/Segments), as pbtool drive splits them.
  std::vector<Expect> Seg(Segments);
  auto SegmentOf = [&](uint64_t I) {
    return ((I + 1) * Segments - 1) / Count;
  };
  DistinctSet Seen;
  std::vector<std::string> Timed, Warmup, History, Kinds;
  uint64_t Id = 1;

  if (W == Workload::Tracks || W == Workload::Loops) {
    std::string Domain = W == Workload::Tracks ? "logical:affine,uf" : "";
    const char *Prefix = W == Workload::Tracks ? "tracks/" : "loops/";
    auto Emit = [&](auto &G, uint64_t N, std::vector<std::string> &Into,
                    const std::string &Tag) {
      for (uint64_t I = 0; I < N; ++I, ++Id)
        Into.push_back(requestLine(Id, Prefix + Tag + std::to_string(I),
                                   nextDistinct(G, Seen), Domain));
    };
    if (W == Workload::Tracks) {
      TrackGen Wg(streamSeed(Seed, WarmupPrograms)),
          Tg(streamSeed(Seed, TimedPrograms));
      Emit(Wg, WarmupCount * Segments, Warmup, "warmup");
      Emit(Tg, Count, Timed, "");
    } else {
      LoopGen Wg(streamSeed(Seed, WarmupPrograms)),
          Tg(streamSeed(Seed, TimedPrograms));
      Emit(Wg, WarmupCount * Segments, Warmup, "warmup");
      Emit(Tg, Count, Timed, "");
    }
    Kinds.assign(Count, "program");
    for (uint64_t I = 0; I < Count; ++I)
      ++Seg[SegmentOf(I)].CacheMisses;
  } else {
    // Edits go to the first EditIds history programs, lint requests to
    // the last LintPool; the mix is 60% resubmissions, 25% edits, 10%
    // lint, 5% fresh programs.
    constexpr uint64_t HistorySize = 2000, EditIds = 300, LintPool = 200;
    static_assert(EditIds + LintPool <= HistorySize, "pools overlap");
    LoopGen Hg(streamSeed(Seed, HistoryPrograms));
    std::vector<std::string> Base;
    for (uint64_t I = 0; I < HistorySize; ++I) {
      Base.push_back(nextDistinct(Hg, Seen));
      History.push_back(
          requestLine(I + 1, "history/" + std::to_string(I), Base.back(), ""));
    }
    LoopGen Wg(streamSeed(Seed, WarmupPrograms));
    for (uint64_t I = 0; I < WarmupCount * Segments; ++I, ++Id)
      Warmup.push_back(requestLine(Id, "warmup/" + std::to_string(I),
                                   nextDistinct(Wg, Seen), ""));

    SplitMix64 R(streamSeed(Seed, Mix));
    LoopGen Fg(streamSeed(Seed, FreshPrograms));
    std::vector<uint64_t> Versions(EditIds, 0);
    std::vector<std::set<uint64_t>> EditedIn(Segments);
    std::set<uint64_t> Linted;
    for (uint64_t I = 0; I < Count; ++I, ++Id) {
      Expect &E = Seg[SegmentOf(I)];
      uint64_t Dice = R.below(100);
      std::string Name = std::to_string(I);
      if (Dice < 60) {
        // A history program in a new presentation: the store replayed it
        // into the result cache.
        uint64_t H = R.below(HistorySize);
        Kinds.push_back("resubmit");
        Timed.push_back(requestLine(Id, "resubmit/" + Name,
                                    present(Base[H], R, I), ""));
        ++E.CacheHits;
      } else if (Dice < 85) {
        uint64_t P = R.below(EditIds);
        Kinds.push_back("edit");
        Timed.push_back(requestLine(Id, "edit/" + Name,
                                    editVersion(Base[P], Versions[P]++), "",
                                    false, "p" + std::to_string(P)));
        ++E.CacheMisses;
        ++E.PersistAppends;
        ++E.Edits;
        // The snapshot tier is memory-only: the first edit of each
        // program in a server lifetime runs from scratch.
        if (EditedIn[SegmentOf(I)].insert(P).second) {
          ++E.SnapshotMisses;
          ++E.Fallbacks;
        } else {
          ++E.SnapshotHits;
        }
      } else if (Dice < 95) {
        uint64_t H = HistorySize - 1 - R.below(LintPool);
        Kinds.push_back("lint");
        Timed.push_back(requestLine(Id, "lint/" + Name,
                                    present(Base[H], R, I), "", true));
        // Only the first lint of a program runs; later ones hit, from
        // memory or from the store.
        if (Linted.insert(H).second) {
          ++E.CacheMisses;
          ++E.PersistAppends;
        } else {
          ++E.CacheHits;
        }
      } else {
        Kinds.push_back("fresh");
        Timed.push_back(
            requestLine(Id, "fresh/" + Name, nextDistinct(Fg, Seen), ""));
        ++E.CacheMisses;
        ++E.PersistAppends;
      }
    }
    // Every append is a new fingerprint, so each lifetime replays the
    // history plus everything earlier lifetimes appended (warm-up too).
    uint64_t Stored = HistorySize;
    for (Expect &E : Seg) {
      E.Replayed = Stored;
      Stored += E.PersistAppends + WarmupCount;
    }
  }

  auto Join = [](const std::vector<std::string> &Lines) {
    std::string Out;
    for (const std::string &L : Lines)
      Out += L + "\n";
    return Out;
  };
  writeFile(Dir + "/requests.jsonl", Join(Timed));
  writeFile(Dir + "/warmup.jsonl", Join(Warmup));
  writeFile(Dir + "/history.jsonl", Join(History));

  // "lifetimes": each server's whole counters, warm-up included (warm-up
  // requests are fresh programs: misses, and appends on session);
  // "timed": the sum over lifetimes without warm-up, which is what the
  // in-process replay counts.
  Json Lifetimes = Json::array();
  Expect Sum;
  for (const Expect &E : Seg) {
    Sum.add(E);
    Expect Whole = E;
    Whole.CacheMisses += WarmupCount;
    if (W == Workload::Session)
      Whole.PersistAppends += WarmupCount;
    Lifetimes.push(Whole.toJson());
  }
  Json KindList = Json::array();
  for (const std::string &K : Kinds)
    KindList.push(Json::str(K));
  Json Out = Json::object();
  Out.set("requests", Json::integer(int64_t(Timed.size())))
      .set("segments", Json::integer(int64_t(Segments)))
      .set("kinds", std::move(KindList))
      .set("lifetimes", std::move(Lifetimes))
      .set("timed", Sum.toJson());
  writeFile(Dir + "/plan.json", Out.dump() + "\n");
  return 0;
}

} // namespace pb
