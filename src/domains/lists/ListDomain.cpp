//===- domains/lists/ListDomain.cpp - The theory of lists ------------------===//

#include "domains/lists/ListDomain.h"

#include "obs/Metrics.h"

using namespace cai;

void ListDomain::countJoin() const { CAI_METRIC_INC("domain.lists.joins"); }

void ListDomain::materialize(CongruenceClosure &CC) const {
  // Facts like car(p) = x are implied by p = cons(x, t) without the
  // projection term occurring in the input.  Materialization adds no new
  // cons nodes, so one pass is enough.
  TermContext &Ctx = context();
  unsigned Count = CC.numNodes();
  for (unsigned N = 0; N < Count; ++N) {
    if (!CC.isApp(N) || CC.symbolOf(N) != Cons)
      continue;
    Term ConsTerm = CC.termOf(N);
    CC.addTerm(Ctx.mkApp(Car, {ConsTerm}));
    CC.addTerm(Ctx.mkApp(Cdr, {ConsTerm}));
  }
}

void ListDomain::applyRules(CongruenceClosure &CC) const {
  // For every car/cdr application whose argument's class contains a cons
  // node, merge the projection with the corresponding cons argument.
  // Quadratic scan to fixpoint; E-graphs here are small.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    unsigned Count = CC.numNodes(); // Merges do not add nodes.
    for (unsigned U = 0; U < Count; ++U) {
      if (!CC.isApp(U))
        continue;
      Symbol S = CC.symbolOf(U);
      if (S != Car && S != Cdr)
        continue;
      unsigned ArgClass = CC.find(CC.argsOf(U)[0]);
      for (unsigned M = 0; M < Count; ++M) {
        if (!CC.isApp(M) || CC.symbolOf(M) != Cons || CC.find(M) != ArgClass)
          continue;
        unsigned Projected = CC.argsOf(M)[S == Car ? 0 : 1];
        if (CC.find(U) != CC.find(Projected)) {
          CC.merge(U, Projected);
          Changed = true;
        }
      }
    }
  }
}
