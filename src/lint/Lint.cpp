//===- lint/Lint.cpp - Invariant-derived diagnostics -----------------------===//

#include "lint/Lint.h"

#include "ir/WTO.h"
#include "lint/Dataflow.h"
#include "service/Json.h"
#include "term/Printer.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

using namespace cai;
using namespace cai::lint;

namespace {

/// Selector names, in canonical order.
const char *const Selectors[] = {"unreachable", "branch",    "divzero",
                                 "bounds",      "deadstore", "uninit"};

/// Bitmask of enabled selectors parsed from a comma-separated selection.
unsigned parseSelection(const std::string &Checks, std::string *Unknown) {
  if (Checks.empty())
    return ~0u;
  unsigned Mask = 0;
  size_t Pos = 0;
  while (Pos <= Checks.size()) {
    size_t Comma = Checks.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Checks.size();
    std::string Name = Checks.substr(Pos, Comma - Pos);
    if (!Name.empty()) {
      bool Found = false;
      for (size_t I = 0; I < std::size(Selectors); ++I)
        if (Name == Selectors[I]) {
          Mask |= 1u << I;
          Found = true;
        }
      if (!Found) {
        if (Unknown)
          *Unknown = Name;
        return 0;
      }
    }
    Pos = Comma + 1;
  }
  return Mask;
}

unsigned selectorBit(const char *Name) {
  for (size_t I = 0; I < std::size(Selectors); ++I)
    if (std::string(Name) == Selectors[I])
      return 1u << I;
  return 0;
}

/// Joins the distinct attributeAtom answers for \p Atoms with '+', in
/// sorted order -- the finding's provenance string.
std::string attributeAtoms(const LogicalLattice &Lattice,
                           const std::vector<Atom> &Atoms) {
  std::set<std::string> Names;
  for (const Atom &A : Atoms)
    Names.insert(Lattice.attributeAtom(A));
  std::string Out;
  for (const std::string &N : Names) {
    if (!Out.empty())
      Out += "+";
    Out += N;
  }
  return Out.empty() ? Lattice.name() : Out;
}

/// Collector for the per-point term checks (division, indexing).
class PointChecker {
public:
  PointChecker(TermContext &Ctx, const Program &P,
               const AnalysisResult &Result, const LogicalLattice &Lattice,
               unsigned Mask, std::vector<LintFinding> &Out)
      : Ctx(Ctx), P(P), Result(Result), Lattice(Lattice), Mask(Mask),
        Out(Out) {}

  /// Scans every subterm of \p T in the state holding at node \p N.
  void scan(Term T, NodeId N) {
    if (!T->isApp())
      return;
    const std::string &Name = Ctx.info(T->symbol()).Name;
    const auto &Args = T->args();
    if ((Name == "div" || Name == "mod") && Args.size() == 2)
      checkDivisor(T, Args[1], N);
    if ((Name == "select" && Args.size() == 2) ||
        (Name == "update" && Args.size() == 3))
      checkIndex(T, Args[1], N);
    for (Term Arg : Args)
      scan(Arg, N);
  }

private:
  /// True (and records provenance) if the invariant at \p N entails any of
  /// \p Safety.
  bool provesAny(NodeId N, const std::vector<Atom> &Safety,
                 std::string *Provenance) {
    for (const Atom &A : Safety)
      if (Lattice.entails(Result.Invariants[N], A)) {
        if (Provenance)
          *Provenance = attributeAtoms(Lattice, {A});
        return true;
      }
    return false;
  }

  void emit(NodeId N, const char *Rule, std::string Message,
            std::string Domain) {
    SourceLoc Loc = P.nodeLoc(N);
    Out.push_back(LintFinding{Rule, "warning", Loc.Line, Loc.Col, N,
                              std::move(Message), std::move(Domain)});
  }

  void checkDivisor(Term App, Term D, NodeId N) {
    if (!(Mask & selectorBit("divzero")) || !seen(N, App, 0))
      return;
    if (D->isNumber()) {
      if (D->number().isZero())
        emit(N, "possible-division-by-zero",
             "division by zero: divisor of '" + toString(Ctx, App) +
                 "' is 0",
             Lattice.name());
      return;
    }
    // Nonzero means >= 1 or <= -1 under integer semantics; the sign
    // predicates positive(t) <=> t >= 1 and negative(t) <=> t <= -1 give
    // the sign domain a way to answer too.
    std::vector<Atom> Safety = {
        Atom::mkLe(Ctx, Ctx.mkNum(1), D),
        Atom::mkLe(Ctx, D, Ctx.mkNum(-1)),
        Atom(Ctx.getPredicate("positive", 1), {D}),
        Atom(Ctx.getPredicate("negative", 1), {D}),
    };
    if (provesAny(N, Safety, nullptr))
      return;
    // Unproven nonzero: if the invariant pins the divisor to exactly 0 the
    // division is definite, not merely possible.
    Atom AtMostZero = Atom::mkLe(Ctx, D, Ctx.mkNum(0));
    Atom AtLeastZero = Atom::mkLe(Ctx, Ctx.mkNum(0), D);
    if (Lattice.entails(Result.Invariants[N], AtMostZero) &&
        Lattice.entails(Result.Invariants[N], AtLeastZero)) {
      emit(N, "possible-division-by-zero",
           "division by zero: divisor '" + toString(Ctx, D) + "' is always 0",
           attributeAtoms(Lattice, {AtMostZero, AtLeastZero}));
      return;
    }
    emit(N, "possible-division-by-zero",
         "possible division by zero: cannot prove divisor '" +
             toString(Ctx, D) + "' nonzero",
         Lattice.name());
  }

  void checkIndex(Term App, Term I, NodeId N) {
    if (!(Mask & selectorBit("bounds")) || !seen(N, App, 1))
      return;
    if (I->isNumber()) {
      if (I->number().sign() < 0)
        emit(N, "possible-out-of-bounds-index",
             "out-of-bounds index: index of '" + toString(Ctx, App) +
                 "' is negative",
             Lattice.name());
      return;
    }
    std::vector<Atom> Safety = {
        Atom::mkLe(Ctx, Ctx.mkNum(0), I),
        Atom(Ctx.getPredicate("positive", 1), {I}),
    };
    if (provesAny(N, Safety, nullptr))
      return;
    emit(N, "possible-out-of-bounds-index",
         "possible out-of-bounds index: cannot prove index '" +
             toString(Ctx, I) + "' nonnegative",
         Lattice.name());
  }

  /// Dedup: each (node, application term, check) reports at most once.
  bool seen(NodeId N, Term App, int Check) {
    return Seen.emplace(N, App->id(), Check).second;
  }

  TermContext &Ctx;
  const Program &P;
  const AnalysisResult &Result;
  const LogicalLattice &Lattice;
  unsigned Mask;
  std::vector<LintFinding> &Out;
  std::set<std::tuple<NodeId, uint32_t, int>> Seen;
};

} // namespace

const std::vector<std::string> &lint::lintSelectors() {
  static const std::vector<std::string> Names(std::begin(Selectors),
                                              std::end(Selectors));
  return Names;
}

bool lint::validateLintChecks(const std::string &Checks, std::string *Error) {
  std::string Unknown;
  if (Checks.empty() || parseSelection(Checks, &Unknown) != 0)
    return true;
  if (Error) {
    *Error = "unknown lint check '" + Unknown + "' (valid: ";
    for (size_t I = 0; I < std::size(Selectors); ++I)
      *Error += std::string(I ? "," : "") + Selectors[I];
    *Error += ")";
  }
  return false;
}

std::vector<LintFinding> lint::runLint(TermContext &Ctx, const Program &P,
                                       const AnalysisResult &Result,
                                       const LogicalLattice &Lattice,
                                       const LintOptions &Opts) {
  std::vector<LintFinding> Out;
  // Unconverged or cancelled runs have untrusted invariants; deriving
  // "unreachable" or "always" claims from them would be unsound.
  if (!Result.Converged || Result.Cancelled ||
      Result.Invariants.size() != P.numNodes())
    return Out;
  unsigned Mask = parseSelection(Opts.Checks, nullptr);
  if (Mask == 0)
    return Out;

  const auto &Edges = P.edges();
  const auto &Preds = P.predecessors();
  auto Bottom = [&](NodeId N) { return Result.Invariants[N].isBottom(); };

  // ---- unreachable-code: bottom invariant at a located statement node.
  // Only the frontier of a dead region reports (first dead statement after
  // live code), so a dead block yields one finding, not one per statement.
  if (Mask & selectorBit("unreachable")) {
    for (NodeId N = 0; N < P.numNodes(); ++N) {
      if (!Bottom(N) || !P.nodeLoc(N).isValid())
        continue;
      bool Frontier = N == P.entry();
      for (size_t EdgeIdx : Preds[N])
        Frontier |= !Bottom(Edges[EdgeIdx].From);
      if (!Frontier)
        continue;
      SourceLoc Loc = P.nodeLoc(N);
      Out.push_back(LintFinding{
          "unreachable-code", "warning", Loc.Line, Loc.Col, N,
          "unreachable code: no execution reaches this statement",
          Lattice.name()});
    }
  }

  // ---- branch-always-true / branch-always-false: assume edges leaving a
  // multi-way node, judged by entailment against the source invariant and
  // by the transfer producing bottom.
  if (Mask & selectorBit("branch")) {
    Analyzer Interp(Lattice);
    const auto &Succs = P.successors();
    for (NodeId N = 0; N < P.numNodes(); ++N) {
      if (Bottom(N) || Succs[N].size() < 2)
        continue;
      for (size_t EdgeIdx : Succs[N]) {
        const Edge &E = Edges[EdgeIdx];
        if (E.Act.Kind != ActionKind::Assume || E.Act.Cond.isTop() ||
            E.Act.Cond.isBottom())
          continue;
        std::vector<Atom> Atoms(E.Act.Cond.begin(), E.Act.Cond.end());
        bool AllEntailed = true;
        for (const Atom &A : Atoms)
          AllEntailed &= Lattice.entails(Result.Invariants[N], A);
        SourceLoc Loc = P.nodeLoc(N);
        std::string CondText = toString(Ctx, E.Act.Cond);
        if (AllEntailed) {
          Out.push_back(LintFinding{
              "branch-always-true", "warning", Loc.Line, Loc.Col, N,
              "branch condition '" + CondText + "' always holds",
              attributeAtoms(Lattice, Atoms)});
          continue;
        }
        Conjunction Taken = Interp.transfer(E.Act, Result.Invariants[N]);
        if (Taken.isBottom() || Lattice.isUnsat(Taken))
          Out.push_back(LintFinding{
              "branch-always-false", "warning", Loc.Line, Loc.Col, N,
              "branch condition '" + CondText + "' never holds",
              attributeAtoms(Lattice, Atoms)});
      }
    }
  }

  // ---- per-point term checks: division and array indexing.
  if (Mask & (selectorBit("divzero") | selectorBit("bounds"))) {
    PointChecker Checker(Ctx, P, Result, Lattice, Mask, Out);
    for (const Edge &E : Edges) {
      if (Bottom(E.From))
        continue;
      if (E.Act.Kind == ActionKind::Assign)
        Checker.scan(E.Act.Value, E.From);
      if (E.Act.Kind == ActionKind::Assume && !E.Act.Cond.isBottom())
        for (const Atom &A : E.Act.Cond.atoms())
          for (Term Arg : A.args())
            Checker.scan(Arg, E.From);
    }
    for (const Assertion &A : P.assertions()) {
      if (Bottom(A.Node))
        continue;
      for (Term Arg : A.Fact.args())
        Checker.scan(Arg, A.Node);
    }
  }

  // ---- dataflow checks: dead stores and uninitialized reads.
  if (Mask & (selectorBit("deadstore") | selectorBit("uninit"))) {
    WTO Wto(P);
    DataflowResult Flow = runDataflow(P, Wto);

    if (Mask & selectorBit("deadstore")) {
      for (const Edge &E : Edges) {
        if (E.Act.Kind != ActionKind::Assign || Bottom(E.From))
          continue;
        size_t Col = Flow.indexOf(E.Act.Var);
        if (Col == SIZE_MAX || Flow.LiveAt[E.To][Col])
          continue;
        SourceLoc Loc = P.nodeLoc(E.From);
        Out.push_back(LintFinding{
            "dead-store", "note", Loc.Line, Loc.Col, E.From,
            "dead store: value assigned to '" + toString(Ctx, E.Act.Var) +
                "' is never read",
            "dataflow"});
      }
    }

    if (Mask & selectorBit("uninit")) {
      // A read of x at a point where x is assigned on some path from
      // entry but not on all of them.  Never-assigned variables are
      // treated as program inputs and stay silent.
      auto CheckReads = [&](const std::vector<Term> &Read, NodeId At) {
        if (Bottom(At))
          return;
        for (Term V : Read) {
          size_t Col = Flow.indexOf(V);
          if (Col == SIZE_MAX || Flow.MustDefAt[At][Col] ||
              !Flow.MayDefAt[At][Col])
            continue;
          SourceLoc Loc = P.nodeLoc(At);
          Out.push_back(LintFinding{
              "uninitialized-read", "note", Loc.Line, Loc.Col, At,
              "possibly uninitialized read of '" + toString(Ctx, V) + "'",
              "dataflow"});
        }
      };
      for (const Edge &E : Edges) {
        std::vector<Term> Read;
        if (E.Act.Kind == ActionKind::Assign)
          collectVars(E.Act.Value, Read);
        if (E.Act.Kind == ActionKind::Assume && !E.Act.Cond.isBottom())
          for (const Atom &A : E.Act.Cond.atoms())
            A.collectVars(Read);
        CheckReads(Read, E.From);
      }
      for (const Assertion &A : P.assertions()) {
        std::vector<Term> Read;
        A.Fact.collectVars(Read);
        CheckReads(Read, A.Node);
      }
    }
  }

  // Deterministic order and exact dedup (e.g. a loop head and its
  // pre-head share the `while` statement's location).
  std::sort(Out.begin(), Out.end(),
            [](const LintFinding &A, const LintFinding &B) {
              return std::tie(A.Line, A.Col, A.Rule, A.Message, A.Node) <
                     std::tie(B.Line, B.Col, B.Rule, B.Message, B.Node);
            });
  Out.erase(std::unique(Out.begin(), Out.end(),
                        [](const LintFinding &A, const LintFinding &B) {
                          return A.Rule == B.Rule && A.Line == B.Line &&
                                 A.Col == B.Col && A.Message == B.Message;
                        }),
            Out.end());
  return Out;
}

std::string lint::renderText(const std::vector<LintFinding> &Findings,
                             const std::string &File) {
  std::ostringstream OS;
  for (const LintFinding &F : Findings)
    OS << File << ":" << F.Line << ":" << F.Col << ": " << F.Level << ": "
       << F.Message << " [" << F.Rule << "] <" << F.Domain << ">\n";
  return OS.str();
}

std::string lint::renderSarif(const std::vector<LintFinding> &Findings,
                              const std::string &File) {
  using service::Json;

  struct RuleInfo {
    const char *Id;
    const char *Description;
  };
  static const RuleInfo Rules[] = {
      {"unreachable-code", "No execution reaches this statement."},
      {"branch-always-true", "The branch condition is entailed by the "
                             "invariant and always holds."},
      {"branch-always-false", "The branch condition contradicts the "
                              "invariant and never holds."},
      {"possible-division-by-zero",
       "The invariant does not prove the divisor nonzero."},
      {"possible-out-of-bounds-index",
       "The invariant does not prove the index nonnegative."},
      {"dead-store", "The assigned value is never read."},
      {"uninitialized-read",
       "The variable is assigned on some paths to this read but not all."},
  };

  Json RuleArr = Json::array();
  for (const RuleInfo &R : Rules) {
    Json Rule = Json::object();
    Rule.set("id", Json::str(R.Id));
    Json Desc = Json::object();
    Desc.set("text", Json::str(R.Description));
    Rule.set("shortDescription", std::move(Desc));
    RuleArr.push(std::move(Rule));
  }

  Json Driver = Json::object();
  Driver.set("name", Json::str("cai-lint"));
  Driver.set("version", Json::str("1.0.0"));
  Driver.set("informationUri", Json::str("docs/LINT.md"));
  Driver.set("rules", std::move(RuleArr));
  Json Tool = Json::object();
  Tool.set("driver", std::move(Driver));

  Json Results = Json::array();
  for (const LintFinding &F : Findings) {
    Json Msg = Json::object();
    Msg.set("text", Json::str(F.Message));
    Json Artifact = Json::object();
    Artifact.set("uri", Json::str(File));
    Json Region = Json::object();
    Region.set("startLine", Json::integer(F.Line == 0 ? 1 : F.Line));
    Region.set("startColumn", Json::integer(F.Col == 0 ? 1 : F.Col));
    Json Physical = Json::object();
    Physical.set("artifactLocation", std::move(Artifact));
    Physical.set("region", std::move(Region));
    Json Location = Json::object();
    Location.set("physicalLocation", std::move(Physical));
    Json Locations = Json::array();
    Locations.push(std::move(Location));
    Json Properties = Json::object();
    Properties.set("domain", Json::str(F.Domain));
    Json R = Json::object();
    R.set("ruleId", Json::str(F.Rule));
    R.set("level", Json::str(F.Level));
    R.set("message", std::move(Msg));
    R.set("locations", std::move(Locations));
    R.set("properties", std::move(Properties));
    Results.push(std::move(R));
  }

  Json Run = Json::object();
  Run.set("tool", std::move(Tool));
  Json Artifacts = Json::array();
  Json Art = Json::object();
  Json ArtLoc = Json::object();
  ArtLoc.set("uri", Json::str(File));
  Art.set("location", std::move(ArtLoc));
  Artifacts.push(std::move(Art));
  Run.set("artifacts", std::move(Artifacts));
  Run.set("results", std::move(Results));

  Json Log = Json::object();
  Log.set("$schema", Json::str("https://json.schemastore.org/sarif-2.1.0.json"));
  Log.set("version", Json::str("2.1.0"));
  Json Runs = Json::array();
  Runs.push(std::move(Run));
  Log.set("runs", std::move(Runs));
  return Log.dump();
}

std::string lint::baselineKey(const LintFinding &F) {
  return F.Rule + "@" + std::to_string(F.Line) + ":" + std::to_string(F.Col) +
         " " + F.Message;
}

std::set<std::string> lint::parseBaseline(const std::string &Text) {
  std::set<std::string> Keys;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    size_t First = Line.find_first_not_of(" \t");
    size_t Last = Line.find_last_not_of(" \t");
    if (First != std::string::npos && Line[First] != '#')
      Keys.insert(Line.substr(First, Last - First + 1));
    Pos = Eol + 1;
  }
  return Keys;
}

std::vector<LintFinding>
lint::applyBaseline(std::vector<LintFinding> Findings,
                    const std::set<std::string> &Baseline) {
  Findings.erase(std::remove_if(Findings.begin(), Findings.end(),
                                [&](const LintFinding &F) {
                                  return Baseline.count(baselineKey(F)) != 0;
                                }),
                 Findings.end());
  return Findings;
}

std::string lint::renderBaseline(const std::vector<LintFinding> &Findings) {
  std::string Out = "# cai-lint baseline: one suppression key per line.\n";
  for (const LintFinding &F : Findings)
    Out += baselineKey(F) + "\n";
  return Out;
}
