//===- domains/uf/EGraphDomain.h - Operators over an E-graph ----*- C++ -*-===//
///
/// \file
/// The lattice operators every E-graph theory shares.  Uninterpreted
/// functions are decided by congruence closure alone; the theories of lists
/// and arrays are congruence closure plus Horn rules (the car/cdr
/// projections, read-over-write).  A theory supplies its signature and its
/// rules; this base builds the closed E-graph of a conjunction and answers
/// join, existential quantification, entailment, VE, Alternate and widening
/// over it with the E-graph algorithms of UFJoin.h.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_UF_EGRAPHDOMAIN_H
#define CAI_DOMAINS_UF_EGRAPHDOMAIN_H

#include "domains/uf/CongruenceClosure.h"
#include "theory/LogicalLattice.h"

namespace cai {

/// A logical lattice over an E-graph theory: conjunctions of equalities
/// between terms, decided by congruence closure plus the theory's rules.
class EGraphDomain : public LogicalLattice {
public:
  bool ownsPredicate(Symbol) const override { return false; }
  bool ownsNumerals() const override { return false; }

  Conjunction join(const Conjunction &A, const Conjunction &B) const override;
  Conjunction existQuant(const Conjunction &E,
                         const std::vector<Term> &Vars) const override;
  bool entails(const Conjunction &E, const Atom &A) const override;
  /// Conjunctions of equalities are always satisfiable in these theories.
  bool isUnsat(const Conjunction &E) const override { return E.isBottom(); }
  std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const override;
  std::optional<Term> alternate(const Conjunction &E, Term Var,
                                const std::vector<Term> &Avoid) const override;
  std::vector<std::pair<Term, Term>>
  alternateBatch(const Conjunction &E,
                 const std::vector<Term> &Targets) const override;
  Conjunction widen(const Conjunction &Old,
                    const Conjunction &New) const override;

protected:
  /// \p JoinSpan names the join's trace span (a string literal: spans keep
  /// the pointer).  \p HasRules says the theory closes its E-graphs under
  /// materialize() and applyRules().  \p WidenDepthCap bounds the depth of
  /// terms surviving widening: the join alone does not stabilize when a
  /// loop keeps growing terms (x := F(x), m := update(m, i, v)).
  EGraphDomain(TermContext &Ctx, const char *JoinSpan, bool HasRules,
               unsigned WidenDepthCap = 16)
      : LogicalLattice(Ctx), JoinSpan(JoinSpan), HasRules(HasRules),
        WidenDepthCap(WidenDepthCap) {}

private:
  /// \name Theory hooks
  /// @{

  /// Counts one join.  Each theory keeps its own CAI_METRIC_INC site: a
  /// site caches a single counter per thread.
  virtual void countJoin() const = 0;
  /// Adds the terms the rules conclude about to \p CC, so that join,
  /// projection and Alternate can speak about facts the input implies
  /// without naming them.
  virtual void materialize(CongruenceClosure &) const {}
  /// Runs the theory's Horn rules over \p CC to a fixpoint.
  virtual void applyRules(CongruenceClosure &) const {}

  /// @}

  /// The closure of \p E: its equalities under congruence and, for a
  /// theory with rules, its materialized terms under the rules.  Every
  /// variable of E gets a node when the theory has rules or \p WithVars.
  CongruenceClosure closureOf(const Conjunction &E,
                              bool WithVars = false) const;

  const char *JoinSpan;
  bool HasRules;
  unsigned WidenDepthCap;
};

} // namespace cai

#endif // CAI_DOMAINS_UF_EGRAPHDOMAIN_H
