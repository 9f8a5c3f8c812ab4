//===- theory/NelsonOppen.cpp - Equality propagation -----------------------===//

#include "theory/NelsonOppen.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "term/TermMap.h"

using namespace cai;

namespace {

/// Union-find over variables, tracking which equalities are already known
/// so each propagation round only forwards new merges.
class VarUnionFind {
public:
  Term find(Term V) {
    auto [Slot, Inserted] = Parent.insert(V, V);
    if (Inserted)
      return V;
    // Iterative two-pass find with full path compression: the scaling
    // workloads produce equality chains long enough that the recursive
    // version risked exhausting the stack.
    Term Root = *Slot;
    while (true) {
      Term Next = *Parent.find(Root);
      if (Next == Root)
        break;
      Root = Next;
    }
    Term Cur = V;
    while (Cur != Root) {
      Term *CurParent = Parent.find(Cur);
      Term Next = *CurParent;
      *CurParent = Root;
      Cur = Next;
    }
    return Root;
  }

  /// Returns true if this union merged two previously-distinct classes.
  bool merge(Term A, Term B) {
    Term RA = find(A), RB = find(B);
    if (RA == RB)
      return false;
    // Deterministic representative: structurally smaller term wins.
    if (structuralCompare(RB, RA) < 0)
      std::swap(RA, RB);
    *Parent.find(RB) = RA;
    return true;
  }

private:
  TermMap<Term> Parent;
};

} // namespace

SaturationResult cai::noSaturate(TermContext &Ctx, const LogicalLattice &L1,
                                 const LogicalLattice &L2, Conjunction E1,
                                 Conjunction E2) {
  CAI_TRACE_SPAN("no.saturate", "saturation");
  CAI_METRIC_INC("nelson_oppen.saturations");
  CAI_METRIC_TIME("nelson_oppen.saturate_us");
  SaturationResult Result;
  if (E1.isBottom() || E2.isBottom() || L1.isUnsat(E1) || L2.isUnsat(E2)) {
    Result.Bottom = true;
    Result.Side1 = Conjunction::bottom();
    Result.Side2 = Conjunction::bottom();
    return Result;
  }

  // Union-find of equalities already exchanged: rounds continue only while
  // classes keep merging, which bounds them by the variable count.
  VarUnionFind Known;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Result.Rounds;
    CAI_TRACE_SPAN("no.round", "saturation");
    CAI_METRIC_INC("nelson_oppen.rounds");

    for (int SideIdx = 0; SideIdx < 2; ++SideIdx) {
      const LogicalLattice &Src = SideIdx == 0 ? L1 : L2;
      const LogicalLattice &Dst = SideIdx == 0 ? L2 : L1;
      Conjunction &SrcE = SideIdx == 0 ? E1 : E2;
      Conjunction &DstE = SideIdx == 0 ? E2 : E1;

      std::vector<std::pair<Term, Term>> Eqs =
          Src.impliedVarEqualitiesCached(SrcE);
      bool Forwarded = false;
      for (const auto &[X, Y] : Eqs) {
        // Forward only merges of previously-distinct classes; equalities
        // already exchanged (in either direction) are silently skipped,
        // which is what bounds the number of rounds by the variable count.
        if (!Known.merge(X, Y))
          continue;
        Atom Eq = Atom::mkEq(Ctx, X, Y);
        if (!DstE.contains(Eq)) {
          DstE.add(Eq);
          Forwarded = true;
        }
      }
      if (Forwarded) {
        Changed = true;
        if (Dst.isUnsat(DstE)) {
          Result.Bottom = true;
          Result.Side1 = Conjunction::bottom();
          Result.Side2 = Conjunction::bottom();
          return Result;
        }
      }
    }
  }

  Result.Side1 = std::move(E1);
  Result.Side2 = std::move(E2);
  return Result;
}
