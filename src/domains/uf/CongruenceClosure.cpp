//===- domains/uf/CongruenceClosure.cpp - Congruence closure ---------------===//

#include "domains/uf/CongruenceClosure.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>

using namespace cai;

unsigned CongruenceClosure::addTermImpl(Term T) {
  if (const unsigned *Node = NodeOf.find(T))
    return *Node;
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
  NodeOf.insert(T, N);
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

uint64_t CongruenceClosure::signatureHash(unsigned N) const {
  uint64_t H = 0xcbf29ce484222325ull ^ symbolOf(N).index();
  for (unsigned Arg : Args[N]) {
    H ^= find(Arg);
    H *= 0x100000001b3ull;
  }
  return H;
}

bool CongruenceClosure::sameSignature(unsigned A, unsigned B) const {
  if (symbolOf(A) != symbolOf(B) || Args[A].size() != Args[B].size())
    return false;
  for (size_t I = 0; I < Args[A].size(); ++I)
    if (find(Args[A][I]) != find(Args[B][I]))
      return false;
  return true;
}

void CongruenceClosure::propagate() {
  // Fixpoint: fill a signature table and union any two App nodes with
  // identical (symbol, class-of-args) signatures.  Quadratic in the worst
  // case but the E-graphs in this library are small; correctness and
  // determinism matter more here than asymptotics.
  CAI_TRACE_SPAN("cc.propagate", "uf");
  CAI_METRIC_INC("congruence_closure.propagations");
  CAI_METRIC_TIME("congruence_closure.propagate_us");
  // The table is one open-addressing slot array of node indices, sized
  // once for every App node at load at most 1/2 and emptied each round.
  // A slot is compared by the signature its node has now, so a node placed
  // before a merge in the same round may be missed, never wrongly matched;
  // a merge starts another round, and the round that merges nothing sees
  // every signature as it stands.  The partition the rounds reach is the
  // unique congruence closure, whatever they miss on the way.
  constexpr unsigned Empty = ~0u;
  size_t NumApps = 0;
  for (Term T : Terms)
    NumApps += T->isApp();
  if (NumApps < 2)
    return; // No two nodes to be congruent.
  size_t Size = 4, Shift = 62;
  while (Size < 2 * NumApps) {
    Size *= 2;
    --Shift;
  }
  std::vector<unsigned> Table(Size);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::fill(Table.begin(), Table.end(), Empty);
    for (unsigned N = 0; N < Terms.size(); ++N) {
      if (!Terms[N]->isApp())
        continue;
      size_t I = static_cast<size_t>(
          (signatureHash(N) * 0x9e3779b97f4a7c15ull) >> Shift);
      while (Table[I] != Empty && !sameSignature(Table[I], N))
        I = (I + 1) & (Size - 1);
      if (Table[I] == Empty)
        Table[I] = N;
      else
        Changed |= unionClasses(Table[I], N);
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
  // Room for about three nodes per atom (x = F(y), x = y + 1), so the
  // node tables do not grow one doubling at a time.
  size_t Expected = Terms.size() + 3 * E.size();
  Terms.reserve(Expected);
  Args.reserve(Expected);
  Parent.reserve(Expected);
  NodeOf.reserve(Expected);
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
