//===- theory/Purify.h - Nelson-Oppen purification ---------------*- C++ -*-===//
///
/// \file
/// Purification (the Purify_{T1,T2} operator of Section 2): splits a
/// conjunction of atomic facts over a combined theory into two pure
/// conjunctions plus fresh-variable definitions for the alien terms.
/// Also provides AlienTerms_{T1,T2}.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_THEORY_PURIFY_H
#define CAI_THEORY_PURIFY_H

#include "term/TermMap.h"
#include "theory/LogicalLattice.h"

namespace cai {

/// Result of purifying one conjunction: <V, E1, E2> in the paper's
/// notation.
struct PurifyResult {
  /// Fresh variables introduced, in introduction order.
  std::vector<Term> FreshVars;
  /// Pure facts of theory 1 (plus shared var = var equalities).
  Conjunction Side1;
  /// Pure facts of theory 2 (plus shared var = var equalities).
  Conjunction Side2;
};

/// Incremental purifier.  Atoms can be fed one at a time (used by the
/// combined entailment check, which purifies E and then the queried fact
/// with the same alien-term naming); pure facts and definitions accumulate
/// in the two sides.
class Purifier {
public:
  Purifier(TermContext &Ctx, const LogicalLattice &L1,
           const LogicalLattice &L2)
      : Ctx(Ctx), L1(L1), L2(L2) {}

  /// Which side a purified atom lands on.
  enum class Side : uint8_t { Both, One, Two, Dropped };

  /// Purifies \p A, appending alien-term definitions to the sides.
  /// Returns the pure atom and its side; atoms whose predicate neither
  /// theory owns are Dropped (the sound over-approximation the paper's
  /// conditional-node rule prescribes).
  std::pair<Side, Atom> purifyAtom(const Atom &A);

  /// Adds a purified atom directly to the given side (used to re-inject
  /// var = var equalities discovered elsewhere).
  void addToSide(Side S, const Atom &A);

  Conjunction &side1() { return E1; }
  Conjunction &side2() { return E2; }
  const std::vector<Term> &freshVars() const { return Fresh; }
  /// Number of alien terms named so far, each by one definition atom on
  /// the side that owns it.
  size_t numDefinitions() const { return NameOf.size(); }

  /// True if theory 1 owns the top symbol of \p T; numbers go to whichever
  /// side owns numerals (side 1 wins ties).
  bool ownedByFirst(Term T) const;

private:
  /// Rewrites \p T to a pure term of the side owning its top symbol,
  /// naming alien subterms with fresh variables.  \p WantFirst says which
  /// theory the surrounding context belongs to.
  Term purifyTerm(Term T, bool WantFirst);
  /// Returns the fresh variable naming \p Alien (which must already be
  /// pure for the side owning it), creating it and its definition atom on
  /// first use.
  Term nameAlien(Term Alien, bool AlienIsFirst);

  TermContext &Ctx;
  const LogicalLattice &L1;
  const LogicalLattice &L2;
  Conjunction E1, E2;
  std::vector<Term> Fresh;
  TermMap<Term> NameOf; // pure alien term -> fresh var
};

/// Purifies a whole conjunction: the paper's Purify_{T1,T2}(E).
/// A bottom input yields bottom on both sides.
PurifyResult purify(TermContext &Ctx, const LogicalLattice &L1,
                    const LogicalLattice &L2, const Conjunction &E);

/// AlienTerms_{T1,T2}(E): the set of alien terms occurring in \p E,
/// deduplicated, ordered by term id.
std::vector<Term> alienTerms(TermContext &Ctx, const LogicalLattice &L1,
                             const LogicalLattice &L2, const Conjunction &E);

} // namespace cai

#endif // CAI_THEORY_PURIFY_H
