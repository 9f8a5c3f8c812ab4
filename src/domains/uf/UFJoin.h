//===- domains/uf/UFJoin.h - E-graph join and projection ---------*- C++ -*-===//
///
/// \file
/// The lattice operations of the E-graph theories (uninterpreted
/// functions, lists, arrays), phrased over congruence-closed E-graphs:
///
///  * ufJoinClosed    -- the join via the product-automaton construction of
///                       Gulwani-Tiwari-Necula (FSTTCS'04) / the strong
///                       equivalence DAG join of global value numbering:
///                       product classes are pairs of component classes,
///                       congruence edges are intersected, and only classes
///                       with a finite representative term are emitted.
///  * ufProjectClosed -- existential quantification: keep exactly the facts
///                       expressible without the eliminated variables.
///  * ufAlternateClosed -- Alternate_T for UF (a representative term for a
///                       variable's class avoiding a variable set).
///  * ufAlternateBatchClosed -- the batched Alternate of QSaturation.
///
/// Each takes a prepared CongruenceClosure.  EGraphDomain is the one
/// caller: it closes each E-graph under the theory's rules (the list
/// projections, read-over-write) before handing it over.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_UF_UFJOIN_H
#define CAI_DOMAINS_UF_UFJOIN_H

#include "domains/uf/CongruenceClosure.h"

#include <optional>

namespace cai {

/// Join of two closed E-graphs.  \p SharedVars seeds the product nodes;
/// it should be the union of the variables of both inputs (variables known
/// to only one side contribute nothing, harmlessly).
Conjunction ufJoinClosed(TermContext &Ctx, CongruenceClosure &CC1,
                         CongruenceClosure &CC2,
                         const std::vector<Term> &SharedVars);

/// Strongest conjunction implied by the closed E-graph \p CC that avoids
/// every variable in \p Eliminate.
Conjunction ufProjectClosed(TermContext &Ctx, CongruenceClosure &CC,
                            const std::vector<Term> &Eliminate);

/// A term t with CC |= Var = t avoiding \p Avoid and Var, or nullopt.
std::optional<Term> ufAlternateClosed(TermContext &Ctx, CongruenceClosure &CC,
                                      Term Var,
                                      const std::vector<Term> &Avoid);

/// Batched Alternate: one representative-extraction pass that defines as
/// many of \p Targets as possible, each definition avoiding all targets.
std::vector<std::pair<Term, Term>>
ufAlternateBatchClosed(TermContext &Ctx, CongruenceClosure &CC,
                       const std::vector<Term> &Targets);

} // namespace cai

#endif // CAI_DOMAINS_UF_UFJOIN_H
