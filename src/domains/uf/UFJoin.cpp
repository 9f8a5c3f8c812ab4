//===- domains/uf/UFJoin.cpp - E-graph join and projection -----------------===//

#include "domains/uf/UFJoin.h"

#include <algorithm>
#include <map>

using namespace cai;

namespace {

/// One node of the product E-graph: a pair of component classes.
struct ProductNode {
  std::vector<Term> Vars; ///< Variables naming this node, id-ordered.
  /// Congruence definitions: (symbol, child product nodes), deduplicated.
  std::vector<std::pair<Symbol, std::vector<unsigned>>> Defs;
  Term Rep = nullptr; ///< Extracted representative term, if any.
};

/// The product construction shared by join.
class ProductGraph {
public:
  ProductGraph(TermContext &Ctx, CongruenceClosure &CC1,
               CongruenceClosure &CC2)
      : Ctx(Ctx), CC1(CC1), CC2(CC2) {}

  /// Seeds the product with leaf terms known to both sides: the shared
  /// variables plus every numeral (numerals are shared constants and must
  /// seed pairs, or F(1) joined with F(1) would be lost).
  void seedLeaves(const std::vector<Term> &Vars) {
    std::vector<Term> Leaves = Vars;
    for (unsigned N = 0; N < CC1.numNodes(); ++N)
      if (CC1.termOf(N)->isNumber())
        Leaves.push_back(CC1.termOf(N));
    for (unsigned N = 0; N < CC2.numNodes(); ++N)
      if (CC2.termOf(N)->isNumber())
        Leaves.push_back(CC2.termOf(N));
    std::sort(Leaves.begin(), Leaves.end(), TermStructLess());
    Leaves.erase(std::unique(Leaves.begin(), Leaves.end()), Leaves.end());
    for (Term V : Leaves) {
      unsigned N1 = CC1.addTerm(V), N2 = CC2.addTerm(V);
      unsigned P = getOrCreate(CC1.find(N1), CC2.find(N2));
      Nodes[P].Vars.push_back(V);
    }
    for (ProductNode &P : Nodes)
      std::sort(P.Vars.begin(), P.Vars.end(), TermStructLess());
  }

  /// Saturates congruence: a pair of same-symbol applications whose
  /// argument pairs are all product nodes induces a product node with a
  /// definition edge.
  void saturate() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned U1 = 0; U1 < CC1.numNodes(); ++U1) {
        if (!CC1.isApp(U1))
          continue;
        for (unsigned U2 = 0; U2 < CC2.numNodes(); ++U2) {
          if (!CC2.isApp(U2) || CC2.symbolOf(U2) != CC1.symbolOf(U1))
            continue;
          const CongruenceClosure::NodeList &A1 = CC1.argsOf(U1);
          const CongruenceClosure::NodeList &A2 = CC2.argsOf(U2);
          if (A1.size() != A2.size())
            continue;
          std::vector<unsigned> Children;
          Children.reserve(A1.size());
          bool AllPresent = true;
          for (size_t I = 0; I < A1.size() && AllPresent; ++I) {
            auto It = Ids.find({CC1.find(A1[I]), CC2.find(A2[I])});
            if (It == Ids.end())
              AllPresent = false;
            else
              Children.push_back(It->second);
          }
          if (!AllPresent)
            continue;
          auto Key = std::make_pair(CC1.find(U1), CC2.find(U2));
          auto It = Ids.find(Key);
          unsigned P;
          if (It == Ids.end()) {
            P = getOrCreate(Key.first, Key.second);
            Changed = true;
          } else {
            P = It->second;
          }
          std::pair<Symbol, std::vector<unsigned>> Def{CC1.symbolOf(U1),
                                                       std::move(Children)};
          auto &Defs = Nodes[P].Defs;
          if (std::find(Defs.begin(), Defs.end(), Def) == Defs.end()) {
            Defs.push_back(std::move(Def));
            Changed = true;
          }
        }
      }
    }
  }

  /// Assigns each node a representative term by least fixpoint: a variable
  /// if one names the node, else any definition whose children already
  /// have representatives (round order yields minimum depth).  Nodes on
  /// purely cyclic definitions (e.g. the class of u = F(u) joined against
  /// a var-free cycle) stay unrepresented and are dropped.
  void extractReps() {
    for (ProductNode &P : Nodes)
      if (!P.Vars.empty())
        P.Rep = P.Vars.front();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (ProductNode &P : Nodes) {
        if (P.Rep)
          continue;
        for (const auto &[Sym, Children] : P.Defs) {
          std::vector<Term> ArgReps;
          if (!childReps(Children, ArgReps))
            continue;
          P.Rep = Ctx.mkApp(Sym, std::move(ArgReps));
          Changed = true;
          break;
        }
      }
    }
  }

  /// Emits the joined facts: every naming of a node equals its
  /// representative.
  Conjunction emit() {
    Conjunction::AtomList Atoms;
    for (ProductNode &P : Nodes) {
      if (!P.Rep)
        continue;
      for (Term V : P.Vars)
        if (V != P.Rep)
          Atoms.push_back(Atom::mkEq(Ctx, V, P.Rep));
      for (const auto &[Sym, Children] : P.Defs) {
        std::vector<Term> ArgReps;
        if (!childReps(Children, ArgReps))
          continue;
        Term T = Ctx.mkApp(Sym, std::move(ArgReps));
        if (T != P.Rep)
          Atoms.push_back(Atom::mkEq(Ctx, T, P.Rep));
      }
    }
    return Conjunction::of(std::move(Atoms));
  }

private:
  unsigned getOrCreate(unsigned R1, unsigned R2) {
    auto [It, Inserted] =
        Ids.emplace(std::make_pair(R1, R2), static_cast<unsigned>(Nodes.size()));
    if (Inserted)
      Nodes.emplace_back();
    return It->second;
  }

  bool childReps(const std::vector<unsigned> &Children,
                 std::vector<Term> &Out) const {
    Out.clear();
    Out.reserve(Children.size());
    for (unsigned C : Children) {
      if (!Nodes[C].Rep)
        return false;
      Out.push_back(Nodes[C].Rep);
    }
    return true;
  }

  TermContext &Ctx;
  CongruenceClosure &CC1;
  CongruenceClosure &CC2;
  std::vector<ProductNode> Nodes;
  std::map<std::pair<unsigned, unsigned>, unsigned> Ids;
};

} // namespace

Conjunction cai::ufJoinClosed(TermContext &Ctx, CongruenceClosure &CC1,
                              CongruenceClosure &CC2,
                              const std::vector<Term> &SharedVars) {
  ProductGraph G(Ctx, CC1, CC2);
  G.seedLeaves(SharedVars);
  G.saturate();
  G.extractReps();
  return G.emit();
}

namespace {

/// Shared machinery for projection and Alternate: per-class representative
/// terms built only from allowed leaves.
class Extractor {
public:
  Extractor(TermContext &Ctx, CongruenceClosure &CC,
            const std::vector<Term> &ForbiddenVars)
      : Ctx(Ctx), CC(CC) {
    for (Term V : ForbiddenVars)
      Forbidden.push_back(V);
    computeReps();
  }

  /// Representative of the class of node \p N, or nullptr.
  Term repOfClass(unsigned N) const {
    auto It = Reps.find(CC.find(N));
    return It == Reps.end() ? nullptr : It->second;
  }

  /// Extraction of node \p N itself (leaf term or symbol applied to child
  /// class representatives), or nullptr.
  Term extractionOf(unsigned N) const {
    Term T = CC.termOf(N);
    if (!T->isApp())
      return allowedLeaf(T) ? T : nullptr;
    std::vector<Term> ArgReps;
    ArgReps.reserve(CC.argsOf(N).size());
    for (unsigned Arg : CC.argsOf(N)) {
      Term R = repOfClass(Arg);
      if (!R)
        return nullptr;
      ArgReps.push_back(R);
    }
    return Ctx.mkApp(T->symbol(), std::move(ArgReps));
  }

private:
  bool allowedLeaf(Term T) const {
    if (T->isNumber())
      return true;
    if (!T->isVariable())
      return false;
    return std::find(Forbidden.begin(), Forbidden.end(), T) ==
           Forbidden.end();
  }

  void computeReps() {
    // Round 0: allowed leaves name their classes.  Numerals outrank
    // variables (a ground constant is the canonical name of its class);
    // ties break on the structural order, so the choice is deterministic
    // and independent of interning history.
    for (unsigned N = 0; N < CC.numNodes(); ++N) {
      Term T = CC.termOf(N);
      if (T->isApp() || !allowedLeaf(T))
        continue;
      Term &Slot = Reps[CC.find(N)];
      if (!Slot || (T->isNumber() && !Slot->isNumber()) ||
          (T->isNumber() == Slot->isNumber() && structuralCompare(T, Slot) < 0))
        Slot = T;
    }
    // Later rounds: applications whose child classes are represented.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned N = 0; N < CC.numNodes(); ++N) {
        if (!CC.isApp(N) || Reps.count(CC.find(N)))
          continue;
        Term T = extractionOf(N);
        if (!T)
          continue;
        Reps[CC.find(N)] = T;
        Changed = true;
      }
    }
  }

  TermContext &Ctx;
  CongruenceClosure &CC;
  std::vector<Term> Forbidden;
  std::map<unsigned, Term> Reps;
};

} // namespace

Conjunction cai::ufProjectClosed(TermContext &Ctx, CongruenceClosure &CC,
                                 const std::vector<Term> &Eliminate) {
  Extractor X(Ctx, CC, Eliminate);
  Conjunction::AtomList Atoms;
  for (unsigned N = 0; N < CC.numNodes(); ++N) {
    Term Rep = X.repOfClass(N);
    if (!Rep)
      continue;
    Term Mine = X.extractionOf(N);
    if (Mine && Mine != Rep)
      Atoms.push_back(Atom::mkEq(Ctx, Mine, Rep));
  }
  return Conjunction::of(std::move(Atoms));
}

std::optional<Term> cai::ufAlternateClosed(TermContext &Ctx,
                                           CongruenceClosure &CC, Term Var,
                                           const std::vector<Term> &Avoid) {
  unsigned N = CC.addTerm(Var);
  std::vector<Term> Forbidden = Avoid;
  Forbidden.push_back(Var);
  Extractor X(Ctx, CC, Forbidden);
  Term Rep = X.repOfClass(N);
  if (!Rep)
    return std::nullopt;
  return Rep;
}

std::vector<std::pair<Term, Term>>
cai::ufAlternateBatchClosed(TermContext &Ctx, CongruenceClosure &CC,
                            const std::vector<Term> &Targets) {
  std::vector<std::pair<Term, Term>> Out;
  std::vector<unsigned> Nodes;
  Nodes.reserve(Targets.size());
  for (Term V : Targets)
    Nodes.push_back(CC.addTerm(V));
  Extractor X(Ctx, CC, Targets);
  for (size_t I = 0; I < Targets.size(); ++I)
    if (Term Rep = X.repOfClass(Nodes[I]))
      Out.emplace_back(Targets[I], Rep);
  return Out;
}
