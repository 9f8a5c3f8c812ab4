//===- domains/arrays/ArrayDomain.h - Arrays (convex fragment) -*- C++ -*-===//
///
/// \file
/// The theory of arrays with select/update, in its convex Horn fragment --
/// the paper's Section 7 names "a precise analysis for non-convex theories
/// (e.g., the theory of arrays)" as future work; this domain implements
/// the sound convex part that the combination framework can host today:
///
///   read-over-write (hit):  select(update(a, i, v), i) = v
///   congruence:             the usual equality axioms
///
/// The non-convex axiom select(update(a,i,v), j) = select(a,j) \/ i = j is
/// deliberately NOT decided (case splits would break both convexity and
/// the Nelson-Oppen exchange); its guarded instance fires only when the
/// indices are already known equal or the write is known irrelevant
/// syntactically-by-congruence.  The domain is therefore sound and
/// complete for the Horn fragment, and a documented under-approximation
/// of full array reasoning -- exactly the trade the paper anticipates.
///
/// Implementation: an EGraphDomain whose closure materializes the hit read
/// of every update node and runs read-over-write to fixpoint; join,
/// projection and the other operators are the base's.
///
/// Memory is modeled the way Section 4 suggests: "Memory, for example,
/// can be modeled using array variables and select and update
/// expressions" -- see examples/memory_cells.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_ARRAYS_ARRAYDOMAIN_H
#define CAI_DOMAINS_ARRAYS_ARRAYDOMAIN_H

#include "domains/uf/EGraphDomain.h"

namespace cai {

/// The array (select/update) domain, convex fragment.
class ArrayDomain : public EGraphDomain {
public:
  explicit ArrayDomain(TermContext &Ctx)
      : EGraphDomain(Ctx, "arrays.join", /*HasRules=*/true),
        Select(Ctx.getFunction("select", 2)),
        Update(Ctx.getFunction("update", 3)) {}

  std::string name() const override { return "arrays"; }

  bool ownsFunction(Symbol S) const override {
    return S == Select || S == Update;
  }

  Symbol selectSym() const { return Select; }
  Symbol updateSym() const { return Update; }

private:
  void countJoin() const override;
  /// Adds the hit read select(u, i) for every update node u = update(a, i, v).
  void materialize(CongruenceClosure &CC) const override;
  /// Read-over-write (hit).
  void applyRules(CongruenceClosure &CC) const override;

  Symbol Select, Update;
};

} // namespace cai

#endif // CAI_DOMAINS_ARRAYS_ARRAYDOMAIN_H
