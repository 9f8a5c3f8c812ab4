//===- tests/lint_test.cpp - Semantic lint pass suite ----------------------===//
///
/// Unit tests for lint/Lint.h and lint/Dataflow.h: check selection, every
/// rule's fire/no-fire behavior on crafted programs, deterministic
/// ordering across memoization modes, the text and SARIF renderings, the
/// baseline suppression round trip, and the direction-parameterized
/// worklist the backward dataflow is built on.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Worklist.h"
#include "ir/ProgramParser.h"
#include "ir/WTO.h"
#include "lint/Dataflow.h"
#include "lint/Lint.h"
#include "service/DomainFactory.h"
#include "service/Json.h"

#include <gtest/gtest.h>

using namespace cai;

namespace {

/// Parses, analyzes and lints \p Src in one shot.
std::vector<lint::LintFinding> lintSource(const std::string &Src,
                                          const std::string &Spec,
                                          const std::string &Checks = "",
                                          bool Memoize = true) {
  TermContext Ctx;
  Ctx.getPredicate("even", 1);
  Ctx.getPredicate("odd", 1);
  Ctx.getPredicate("positive", 1);
  Ctx.getPredicate("negative", 1);
  service::DomainFactory Factory(Ctx);
  LogicalLattice *Domain = Factory.build(Spec);
  EXPECT_NE(Domain, nullptr) << Factory.error();
  std::string Err;
  std::optional<Program> P = parseProgram(Ctx, Src, &Err);
  EXPECT_TRUE(P.has_value()) << Err;
  AnalyzerOptions Opts;
  Opts.Memoize = Memoize;
  AnalysisResult R = Analyzer(*Domain, Opts).run(*P);
  EXPECT_TRUE(R.Converged);
  lint::LintOptions LOpts;
  LOpts.Checks = Checks;
  return lint::runLint(Ctx, *P, R, *Domain, LOpts);
}

bool hasFinding(const std::vector<lint::LintFinding> &Fs,
                const std::string &Rule, const std::string &MessagePart) {
  for (const lint::LintFinding &F : Fs)
    if (F.Rule == Rule && F.Message.find(MessagePart) != std::string::npos)
      return true;
  return false;
}

// A branch whose condition the invariant refutes: the then-block is
// unreachable, its store dead on arrival, and both branch verdicts fire.
const char *DeadBranchSrc = "x := 1;\n"
                            "y := 2;\n"
                            "if (x <= 0) {\n"
                            "  y := 99;\n"
                            "}\n"
                            "z := y + 1;\n"
                            "assert(1 <= z);\n";

} // namespace

// --- Selection -----------------------------------------------------------

TEST(LintSelect, CanonicalSelectorList) {
  const std::vector<std::string> &S = lint::lintSelectors();
  ASSERT_EQ(S.size(), 6u);
  EXPECT_EQ(S[0], "unreachable");
  EXPECT_EQ(S[1], "branch");
  EXPECT_EQ(S[2], "divzero");
  EXPECT_EQ(S[3], "bounds");
  EXPECT_EQ(S[4], "deadstore");
  EXPECT_EQ(S[5], "uninit");
}

TEST(LintSelect, ValidatesSelections) {
  std::string Err;
  EXPECT_TRUE(lint::validateLintChecks("", &Err));
  EXPECT_TRUE(lint::validateLintChecks("deadstore", &Err));
  EXPECT_TRUE(lint::validateLintChecks("unreachable,branch,uninit", &Err));
  EXPECT_FALSE(lint::validateLintChecks("nosuch", &Err));
  EXPECT_NE(Err.find("nosuch"), std::string::npos);
  EXPECT_NE(Err.find("deadstore"), std::string::npos); // Lists valid names.
}

TEST(LintSelect, SelectionRestrictsRules) {
  auto All = lintSource(DeadBranchSrc, "logical:poly,uf");
  EXPECT_GT(All.size(), 1u);
  auto Only = lintSource(DeadBranchSrc, "logical:poly,uf", "deadstore");
  for (const lint::LintFinding &F : Only)
    EXPECT_EQ(F.Rule, "dead-store");
}

// --- Rules ---------------------------------------------------------------

TEST(LintRules, DeadBranchFiresUnreachableAndBranchChecks) {
  auto Fs = lintSource(DeadBranchSrc, "logical:poly,uf");
  EXPECT_TRUE(hasFinding(Fs, "branch-always-false", "x <= 0"));
  EXPECT_TRUE(hasFinding(Fs, "branch-always-true", "1 <= x"));
  EXPECT_TRUE(hasFinding(Fs, "unreachable-code", "no execution reaches"));
  // The dead block reports one frontier finding, not one per statement.
  unsigned Unreachable = 0;
  for (const lint::LintFinding &F : Fs)
    Unreachable += F.Rule == "unreachable-code";
  EXPECT_EQ(Unreachable, 1u);
  // Findings carry real source locations (the if sits on line 3).
  for (const lint::LintFinding &F : Fs)
    if (F.Rule == "branch-always-false") {
      EXPECT_EQ(F.Line, 3u);
    }
}

TEST(LintRules, ProvenBranchStaysSilent) {
  // The condition is genuinely two-way: no branch findings.
  auto Fs = lintSource("x := 0;\n"
                       "while (x <= 9) {\n"
                       "  x := x + 1;\n"
                       "}\n"
                       "assert(10 <= x);\n",
                       "poly", "branch");
  EXPECT_TRUE(Fs.empty());
}

TEST(LintRules, DeadStoreFiresOnlyForUnreadValues) {
  auto Fs = lintSource("a := 1;\n"
                       "b := a + 1;\n"
                       "c := 7;\n"
                       "assert(2 <= b);\n",
                       "poly", "deadstore");
  // `c` is never read; `a` is read by the next line; the final re-read of
  // `b` happens in the assertion.
  EXPECT_TRUE(hasFinding(Fs, "dead-store", "'c'"));
  EXPECT_FALSE(hasFinding(Fs, "dead-store", "'a'"));
  EXPECT_FALSE(hasFinding(Fs, "dead-store", "'b'"));
}

TEST(LintRules, OverwrittenStoreIsDead) {
  auto Fs = lintSource("a := 1;\n"
                       "a := 2;\n"
                       "assert(a <= 2);\n",
                       "poly", "deadstore");
  // The first store is overwritten before any read.
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Rule, "dead-store");
  EXPECT_EQ(Fs[0].Line, 1u);
}

TEST(LintRules, UninitReadNeedsAPartialDefinition) {
  // y is assigned on the then-path only: the later read is possibly
  // uninitialized.  x (never assigned anywhere) is an input, not a bug.
  auto Fs = lintSource("if (x <= 0) {\n"
                       "  y := 1;\n"
                       "}\n"
                       "z := y + x;\n"
                       "assert(z <= z);\n",
                       "logical:affine,uf", "uninit");
  EXPECT_TRUE(hasFinding(Fs, "uninitialized-read", "'y'"));
  EXPECT_FALSE(hasFinding(Fs, "uninitialized-read", "'x'"));
}

TEST(LintRules, BothBranchesDefiningKillsUninit) {
  auto Fs = lintSource("if (x <= 0) {\n"
                       "  y := 1;\n"
                       "} else {\n"
                       "  y := 2;\n"
                       "}\n"
                       "z := y;\n"
                       "assert(z <= 2);\n",
                       "logical:affine,uf", "uninit");
  EXPECT_TRUE(Fs.empty());
}

TEST(LintRules, DivisionByZeroTiers) {
  // Literal zero divisor: definite.
  auto Definite = lintSource("d := div(x, 0);\nassert(d <= d);\n",
                             "logical:poly,uf", "divzero");
  EXPECT_TRUE(hasFinding(Definite, "possible-division-by-zero", "is 0"));
  // Divisor provably pinned to zero by the invariant: definite, with the
  // proving domain named.
  auto Pinned = lintSource("w := 5;\ne := div(x, w - 5);\nassert(e <= e);\n",
                           "logical:poly,uf", "divzero");
  EXPECT_TRUE(hasFinding(Pinned, "possible-division-by-zero", "always 0"));
  // Unconstrained divisor: possible.
  auto Possible = lintSource("d := div(x, y);\nassert(d <= d);\n",
                             "logical:poly,uf", "divzero");
  EXPECT_TRUE(
      hasFinding(Possible, "possible-division-by-zero", "cannot prove"));
  // Divisor proven nonzero: silent.
  auto Safe = lintSource("w := 2;\nd := div(x, w);\nassert(d <= d);\n",
                         "logical:poly,uf", "divzero");
  EXPECT_TRUE(Safe.empty());
}

TEST(LintRules, OutOfBoundsIndexTiers) {
  auto Possible =
      lintSource("v := select(mem, i);\nassert(v <= v);\n",
                 "logical:poly,arrays", "bounds");
  EXPECT_TRUE(
      hasFinding(Possible, "possible-out-of-bounds-index", "cannot prove"));
  auto Safe = lintSource("i := 3;\nv := select(mem, i);\nassert(v <= v);\n",
                         "logical:poly,arrays", "bounds");
  EXPECT_TRUE(Safe.empty());
  auto Definite =
      lintSource("v := select(mem, 0 - 1);\nassert(v <= v);\n",
                 "logical:poly,arrays", "bounds");
  EXPECT_TRUE(
      hasFinding(Definite, "possible-out-of-bounds-index", "negative"));
}

TEST(LintRules, UnconvergedRunYieldsNoFindings) {
  TermContext Ctx;
  service::DomainFactory Factory(Ctx);
  LogicalLattice *Domain = Factory.build("poly");
  ASSERT_NE(Domain, nullptr);
  std::optional<Program> P = parseProgram(
      Ctx, "x := 0;\nwhile (x <= 9) {\n  x := x + 1;\n}\ny := 7;\n", nullptr);
  ASSERT_TRUE(P.has_value());
  AnalyzerOptions Opts;
  Opts.MaxUpdatesPerNode = 1; // Forces a truncated fixpoint on the loop.
  AnalysisResult R = Analyzer(*Domain, Opts).run(*P);
  ASSERT_FALSE(R.Converged);
  // y:=7 would be a dead store, but untrusted invariants produce nothing.
  EXPECT_TRUE(lint::runLint(Ctx, *P, R, *Domain).empty());
}

// --- Determinism ---------------------------------------------------------

TEST(LintDeterminism, ByteIdenticalAcrossMemoModesAndReruns) {
  auto Render = [](bool Memo) {
    return lint::renderText(
        lintSource(DeadBranchSrc, "logical:poly,uf", "", Memo), "p.imp");
  };
  std::string Baseline = Render(true);
  EXPECT_FALSE(Baseline.empty());
  EXPECT_EQ(Baseline, Render(true));  // Rerun.
  EXPECT_EQ(Baseline, Render(false)); // Memoization off.
}

TEST(LintDeterminism, FindingsAreSortedByLocation) {
  auto Fs = lintSource(DeadBranchSrc, "logical:poly,uf");
  auto Key = [](const lint::LintFinding &F) {
    return std::tie(F.Line, F.Col, F.Rule, F.Message);
  };
  for (size_t I = 1; I < Fs.size(); ++I)
    EXPECT_FALSE(Key(Fs[I]) < Key(Fs[I - 1]));
}

// --- Renderings ----------------------------------------------------------

TEST(LintRender, TextFormat) {
  lint::LintFinding F{"dead-store", "note", 4, 3, 7,
                      "dead store: value assigned to 'x' is never read",
                      "dataflow"};
  EXPECT_EQ(lint::renderText({F}, "p.imp"),
            "p.imp:4:3: note: dead store: value assigned to 'x' is never "
            "read [dead-store] <dataflow>\n");
}

TEST(LintRender, SarifShapeAndOrdering) {
  auto Fs = lintSource(DeadBranchSrc, "logical:poly,uf");
  ASSERT_FALSE(Fs.empty());
  std::string Doc = lint::renderSarif(Fs, "p.imp");
  std::optional<service::Json> J = service::Json::parse(Doc, nullptr);
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->get("version")->asString(), "2.1.0");
  const service::Json &Run = J->get("runs")->items()[0];
  const service::Json &Driver = *Run.get("tool")->get("driver");
  EXPECT_EQ(Driver.get("name")->asString(), "cai-lint");
  EXPECT_EQ(Driver.get("rules")->items().size(), 7u);
  const auto &Results = Run.get("results")->items();
  ASSERT_EQ(Results.size(), Fs.size());
  for (size_t I = 0; I < Fs.size(); ++I) {
    EXPECT_EQ(Results[I].get("ruleId")->asString(), Fs[I].Rule);
    EXPECT_EQ(Results[I].get("level")->asString(), Fs[I].Level);
    EXPECT_EQ(Results[I].get("message")->get("text")->asString(),
              Fs[I].Message);
    const service::Json &Region = *Results[I]
                                       .get("locations")
                                       ->items()[0]
                                       .get("physicalLocation")
                                       ->get("region");
    EXPECT_EQ(Region.get("startLine")->asInt(),
              static_cast<int64_t>(Fs[I].Line == 0 ? 1 : Fs[I].Line));
    EXPECT_EQ(Results[I].get("properties")->get("domain")->asString(),
              Fs[I].Domain);
  }
  // Two renders of the same findings are byte-identical.
  EXPECT_EQ(Doc, lint::renderSarif(Fs, "p.imp"));
}

// --- Baseline ------------------------------------------------------------

TEST(LintBaseline, KeyFormatAndRoundTrip) {
  auto Fs = lintSource(DeadBranchSrc, "logical:poly,uf");
  ASSERT_GE(Fs.size(), 2u);
  EXPECT_EQ(lint::baselineKey(Fs[0]),
            Fs[0].Rule + "@" + std::to_string(Fs[0].Line) + ":" +
                std::to_string(Fs[0].Col) + " " + Fs[0].Message);
  // Full baseline suppresses everything.
  std::string File = lint::renderBaseline(Fs);
  EXPECT_TRUE(lint::applyBaseline(Fs, lint::parseBaseline(File)).empty());
  // A one-key baseline suppresses exactly that finding.
  std::set<std::string> One = {lint::baselineKey(Fs[0])};
  auto Left = lint::applyBaseline(Fs, One);
  EXPECT_EQ(Left.size(), Fs.size() - 1);
  for (const lint::LintFinding &F : Left)
    EXPECT_NE(lint::baselineKey(F), lint::baselineKey(Fs[0]));
}

TEST(LintBaseline, ParserSkipsCommentsAndBlanks) {
  auto Keys = lint::parseBaseline("# comment\n\n  key one \r\nkey two\n");
  EXPECT_EQ(Keys.size(), 2u);
  EXPECT_TRUE(Keys.count("key one"));
  EXPECT_TRUE(Keys.count("key two"));
}

// --- The direction-parameterized worklist --------------------------------

TEST(LintWorklist, ForwardPopsInWtoOrderBackwardReversed) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx,
                                          "x := 0;\n"
                                          "while (x <= 3) {\n"
                                          "  x := x + 1;\n"
                                          "}\n"
                                          "y := x;\nassert(0 <= y);\n",
                                          nullptr);
  ASSERT_TRUE(P.has_value());
  WTO Wto(*P);
  for (Direction Dir : {Direction::Forward, Direction::Backward}) {
    WtoWorklist WL(Wto, Dir);
    for (NodeId N = 0; N < P->numNodes(); ++N) {
      WL.enqueue(N);
      WL.enqueue(N); // Dedup: double-enqueue must not double-pop.
    }
    std::vector<size_t> Positions;
    while (!WL.empty())
      Positions.push_back(Wto.position(WL.pop()));
    ASSERT_EQ(Positions.size(), P->numNodes());
    for (size_t I = 1; I < Positions.size(); ++I) {
      if (Dir == Direction::Forward)
        EXPECT_LT(Positions[I - 1], Positions[I]);
      else
        EXPECT_GT(Positions[I - 1], Positions[I]);
    }
  }
}

// --- Backward dataflow ---------------------------------------------------

TEST(LintDataflow, LivenessAndDefinednessOnADiamond) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx,
                                          "a := 1;\n"
                                          "if (a <= 0) {\n"
                                          "  b := 2;\n"
                                          "}\n"
                                          "c := b + a;\n"
                                          "assert(c <= c);\n",
                                          nullptr);
  ASSERT_TRUE(P.has_value());
  WTO Wto(*P);
  lint::DataflowResult Flow = lint::runDataflow(*P, Wto);
  // Find the variables by name.
  Term A = nullptr, B = nullptr;
  for (Term V : Flow.Vars) {
    if (V->varName() == "a")
      A = V;
    if (V->varName() == "b")
      B = V;
  }
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  size_t ColA = Flow.indexOf(A), ColB = Flow.indexOf(B);
  // At entry, `a` is not yet live -- the first statement overwrites it
  // before any read -- and not defined on any path; right after its
  // defining edge it is live (the branch and the final sum read it).
  EXPECT_FALSE(Flow.LiveAt[P->entry()][ColA]);
  EXPECT_TRUE(Flow.LiveAt[P->edges()[0].To][ColA]);
  EXPECT_FALSE(Flow.MayDefAt[P->entry()][ColA]);
  EXPECT_FALSE(Flow.MustDefAt[P->entry()][ColB]);
  // Somewhere in the program, `b` is may- but not must-defined -- the gap
  // that makes the read at `c := b + a` possibly uninitialized.
  bool Gap = false;
  for (NodeId N = 0; N < P->numNodes(); ++N)
    Gap |= Flow.MayDefAt[N][ColB] && !Flow.MustDefAt[N][ColB];
  EXPECT_TRUE(Gap);
  // After its defining edge, `a` is must-defined at every node that can
  // still read it (all successors of the first statement).
  EXPECT_TRUE(Flow.MustDefAt[P->edges()[0].To][ColA]);
}
