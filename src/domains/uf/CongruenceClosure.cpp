//===- domains/uf/CongruenceClosure.cpp - Congruence closure ---------------===//

#include "domains/uf/CongruenceClosure.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace cai;

unsigned CongruenceClosure::addTermImpl(Term T) {
  auto It = NodeOf.find(T);
  if (It != NodeOf.end())
    return It->second;
  NodeList ArgNodes;
  if (T->isApp()) {
    ArgNodes.reserve(T->args().size());
    for (Term Arg : T->args())
      ArgNodes.push_back(addTermImpl(Arg));
  }
  unsigned N = static_cast<unsigned>(Terms.size());
  Terms.push_back(T);
  Args.push_back(std::move(ArgNodes));
  Parent.push_back(N);
  NodeOf.emplace(T, N);
  // A new App node may be congruent to an existing one right away.
  if (T->isApp())
    Pending = true;
  return N;
}

unsigned CongruenceClosure::addTerm(Term T) {
  unsigned N = addTermImpl(T);
  flush();
  return N;
}

unsigned CongruenceClosure::find(unsigned N) const {
  assert(N < Parent.size() && "node out of range");
  while (Parent[N] != N) {
    Parent[N] = Parent[Parent[N]]; // Path halving.
    N = Parent[N];
  }
  return N;
}

bool CongruenceClosure::unionClasses(unsigned A, unsigned B) {
  unsigned RA = find(A), RB = find(B);
  if (RA == RB)
    return false;
  // Deterministic representative: the smaller node index wins.
  if (RB < RA)
    std::swap(RA, RB);
  Parent[RB] = RA;
  return true;
}

void CongruenceClosure::merge(unsigned A, unsigned B) {
  if (unionClasses(A, B))
    Pending = true;
  flush();
}

void CongruenceClosure::flush() {
  if (!Pending)
    return;
  Pending = false;
  propagate();
}

namespace {
/// Signature of an App node: symbol index plus the class representatives of
/// its arguments.
struct NodeSig {
  uint32_t Symbol;
  CongruenceClosure::NodeList ArgReps;
  bool operator==(const NodeSig &RHS) const {
    return Symbol == RHS.Symbol && ArgReps == RHS.ArgReps;
  }
};
struct NodeSigHash {
  size_t operator()(const NodeSig &S) const {
    uint64_t H = 0xcbf29ce484222325ull ^ S.Symbol;
    for (unsigned R : S.ArgReps) {
      H ^= R;
      H *= 0x100000001b3ull;
    }
    return static_cast<size_t>(H);
  }
};
} // namespace

void CongruenceClosure::propagate() {
  // Fixpoint: rebuild the signature table and union any two App nodes with
  // identical (symbol, class-of-args) signatures.  Quadratic in the worst
  // case but the E-graphs in this library are small; correctness and
  // determinism matter more here than asymptotics.
  CAI_TRACE_SPAN("cc.propagate", "uf");
  CAI_METRIC_INC("congruence_closure.propagations");
  CAI_METRIC_TIME("congruence_closure.propagate_us");
  bool Changed = true;
  std::unordered_map<NodeSig, unsigned, NodeSigHash> SigTable;
  while (Changed) {
    Changed = false;
    SigTable.clear();
    for (unsigned N = 0; N < Terms.size(); ++N) {
      if (!Terms[N]->isApp())
        continue;
      NodeSig Sig{symbolOf(N).index(), {}};
      Sig.ArgReps.reserve(Args[N].size());
      for (unsigned Arg : Args[N])
        Sig.ArgReps.push_back(find(Arg));
      auto [It, Inserted] = SigTable.emplace(std::move(Sig), N);
      if (Inserted)
        continue;
      Changed |= unionClasses(It->second, N);
    }
  }
}

void CongruenceClosure::addEquality(Term A, Term B) {
  unsigned NA = addTermImpl(A), NB = addTermImpl(B);
  if (unionClasses(NA, NB))
    Pending = true;
  flush();
}

void CongruenceClosure::addConjunction(const Conjunction &E) {
  if (E.isBottom())
    return;
  // Batch: load every equality, then restore congruence once.  The final
  // partition is the congruence closure of the asserted equalities either
  // way; deferring saves one signature-table fixpoint per atom.
  for (const Atom &A : E.atoms())
    if (A.predicate() == Ctx.eqSymbol()) {
      unsigned NA = addTermImpl(A.lhs()), NB = addTermImpl(A.rhs());
      if (unionClasses(NA, NB))
        Pending = true;
    }
  flush();
}

bool CongruenceClosure::areEqual(Term A, Term B) {
  unsigned NA = addTermImpl(A), NB = addTermImpl(B);
  flush();
  return find(NA) == find(NB);
}

std::vector<std::vector<unsigned>> CongruenceClosure::allClasses() const {
  // A representative is its class's smallest node, so walking the nodes in
  // ascending order opens each class at its representative, before any
  // other member arrives.
  std::vector<std::vector<unsigned>> Out;
  std::vector<unsigned> ClassOf(Terms.size());
  for (unsigned N = 0; N < Terms.size(); ++N) {
    unsigned Rep = find(N);
    if (Rep == N) {
      ClassOf[N] = static_cast<unsigned>(Out.size());
      Out.emplace_back();
    }
    Out[ClassOf[Rep]].push_back(N);
  }
  return Out;
}
