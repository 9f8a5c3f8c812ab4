//===- domains/arrays/ArrayDomain.cpp - Arrays (convex fragment) ----------===//

#include "domains/arrays/ArrayDomain.h"

#include "obs/Metrics.h"

using namespace cai;

void ArrayDomain::countJoin() const { CAI_METRIC_INC("domain.arrays.joins"); }

void ArrayDomain::materialize(CongruenceClosure &CC) const {
  // Joins and projections can then speak about the hit read even when it
  // does not occur in the input.
  TermContext &Ctx = context();
  unsigned Count = CC.numNodes();
  for (unsigned N = 0; N < Count; ++N) {
    if (!CC.isApp(N) || CC.symbolOf(N) != Update)
      continue;
    Term UpdateTerm = CC.termOf(N);
    CC.addTerm(Ctx.mkApp(Select, {UpdateTerm, UpdateTerm->args()[1]}));
  }
}

void ArrayDomain::applyRules(CongruenceClosure &CC) const {
  // Read-over-write hit: for every select(s, i) whose array argument's
  // class contains update(a, j, v) with i congruent to j, merge the
  // select with v.  Quadratic scan to fixpoint, like the list rules.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    unsigned Count = CC.numNodes();
    for (unsigned U = 0; U < Count; ++U) {
      if (!CC.isApp(U) || CC.symbolOf(U) != Select)
        continue;
      unsigned ArrClass = CC.find(CC.argsOf(U)[0]);
      unsigned IdxClass = CC.find(CC.argsOf(U)[1]);
      for (unsigned M = 0; M < Count; ++M) {
        if (!CC.isApp(M) || CC.symbolOf(M) != Update || CC.find(M) != ArrClass)
          continue;
        if (CC.find(CC.argsOf(M)[1]) != IdxClass)
          continue; // Indices not known equal: no convex conclusion.
        unsigned Value = CC.argsOf(M)[2];
        if (CC.find(U) != CC.find(Value)) {
          CC.merge(U, Value);
          Changed = true;
        }
      }
    }
  }
}
