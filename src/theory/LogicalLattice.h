//===- theory/LogicalLattice.h - The abstract-domain interface --*- C++ -*-===//
///
/// \file
/// The LogicalLattice interface: an abstract domain whose elements are
/// finite conjunctions of atomic facts over some theory, ordered by
/// implication (Definition 1 of the paper).  Every domain in this library
/// implements it -- the Karr affine domain, the polyhedra domain, the
/// uninterpreted-function domain, parity, sign, lists -- and so do the
/// product combinators, which is what lets products nest.
///
/// The interface carries exactly the operators the paper's combination
/// algorithms need: join (J_L), existential quantification (Q_L),
/// entailment (the partial order), implied variable equalities (VE_T),
/// Alternate_T, widening, and the theory-signature queries used by
/// purification.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_THEORY_LOGICALLATTICE_H
#define CAI_THEORY_LOGICALLATTICE_H

#include "support/QueryCache.h"
#include "term/Conjunction.h"

#include <optional>
#include <string>
#include <utility>

namespace cai {

/// Aggregated memoization / combination counters of one lattice tree
/// (a product recurses into its components).  The analyzer snapshots these
/// before and after a run and reports the delta.
struct LatticeStats {
  unsigned long CacheHits = 0;
  unsigned long CacheMisses = 0;
  unsigned long SaturationRounds = 0;

  LatticeStats operator-(const LatticeStats &RHS) const {
    LatticeStats D;
    D.CacheHits = CacheHits - RHS.CacheHits;
    D.CacheMisses = CacheMisses - RHS.CacheMisses;
    D.SaturationRounds = SaturationRounds - RHS.SaturationRounds;
    return D;
  }
};

/// An abstract domain over conjunctions of atomic facts.
///
/// Elements are Conjunction values.  The empty conjunction is top and
/// Conjunction::bottom() is bottom.  Implementations must accept elements
/// containing var = var equality atoms (equality logic belongs to every
/// theory) and should treat maximal subterms outside their signature as
/// opaque indeterminates so they remain sound when handed impure input.
class LogicalLattice {
public:
  explicit LogicalLattice(TermContext &Ctx) : Ctx(Ctx) {}
  virtual ~LogicalLattice();

  TermContext &context() const { return Ctx; }

  /// Short human-readable domain name ("affine", "uf", "affine*uf", ...).
  virtual std::string name() const = 0;

  /// \name Theory signature (used by purification)
  /// @{

  /// True if this theory's signature contains function symbol \p S.
  virtual bool ownsFunction(Symbol S) const = 0;
  /// True if this theory's signature contains predicate symbol \p S.
  /// Equality is shared by every theory and need not be claimed here.
  virtual bool ownsPredicate(Symbol S) const = 0;
  /// True if numerals (and the arithmetic symbols + and *) belong to this
  /// theory.
  virtual bool ownsNumerals() const = 0;

  /// @}
  /// \name Lattice operations
  /// @{

  /// Least upper bound J_L (Definition 3).
  virtual Conjunction join(const Conjunction &A,
                           const Conjunction &B) const = 0;

  /// Existential quantification Q_L (Definition 4): the strongest element
  /// implied by \p E that mentions none of \p Vars.
  virtual Conjunction existQuant(const Conjunction &E,
                                 const std::vector<Term> &Vars) const = 0;

  /// True if \p E implies the atomic fact \p A in this theory.
  virtual bool entails(const Conjunction &E, const Atom &A) const = 0;

  /// True if \p E is unsatisfiable in this theory.
  virtual bool isUnsat(const Conjunction &E) const = 0;

  /// VE_T: all variable equalities x = y implied by \p E, as canonical
  /// pairs (no duplicates, x->representative form is implementation
  /// defined but must cover the full equivalence).
  virtual std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const = 0;

  /// Alternate_T: a term t with E => Var = t whose variables avoid
  /// \p Avoid and Var itself, or nullopt.
  virtual std::optional<Term>
  alternate(const Conjunction &E, Term Var,
            const std::vector<Term> &Avoid) const = 0;

  /// Batched Alternate_T used by QSaturation: finds definitions for as
  /// many of \p Targets as possible where every returned term avoids ALL
  /// of \p Targets.  May be weaker than iterating alternate with a
  /// shrinking avoid set (the caller loops to a fixpoint), but domains
  /// can implement it with a single canonicalization pass instead of one
  /// per variable.  The default delegates to alternate.
  virtual std::vector<std::pair<Term, Term>>
  alternateBatch(const Conjunction &E, const std::vector<Term> &Targets) const;

  /// Widening. The default is join, which is correct for finite-height
  /// domains (affine, uf over a fixed term depth); infinite-height domains
  /// (polyhedra) override it.
  virtual Conjunction widen(const Conjunction &Old,
                            const Conjunction &New) const;

  /// True if join and widen commute with projecting out a variable that
  /// each operand defines by one equation over its own variables (p = x on
  /// the left, p = y on the right): J(A /\ p = x, B /\ p = y) with p
  /// quantified out is equivalent to J(A, B), and so is widen.  The
  /// logical product then hands this lattice only the dummy pairs the
  /// other component's join keeps.  The default is false; an affine hull
  /// commutes with that projection, so Karr's domain answers true.
  virtual bool joinCommutesWithProjection() const { return false; }

  /// Greatest lower bound M_L: conjunction, with bottom detection.
  /// Virtual so decorators (check/CheckedLattice.h) can intercept it; the
  /// default is right for every concrete domain.
  virtual Conjunction meet(const Conjunction &A, const Conjunction &B) const;

  /// Convenience: E entails every atom of \p C.
  bool entailsAll(const Conjunction &E, const Conjunction &C) const;

  /// Convenience: mutual entailment (semantic lattice equality).
  bool equivalent(const Conjunction &A, const Conjunction &B) const;

  /// @}
  /// \name Memoization
  ///
  /// A lattice keeps one memo table, in front of impliedVarEqualities:
  /// Nelson-Oppen saturation asks VE of the same component side under
  /// many product elements, and a cold measurement shows the table pays
  /// (EXPERIMENTS.md E26).  The other operators have none here.  The
  /// analyzer memoizes the joins and edge transfers that repeat across
  /// fixpoint and narrowing iterations (analysis/Analyzer.h), a product
  /// its purification + saturation, and the affine and polyhedra domains
  /// their canonical forms (support/CanonList.h).  With memoization
  /// disabled (setMemoization(false)) impliedVarEqualitiesCached forwards
  /// to the virtual operation -- the cache-equivalence test asserts
  /// bit-for-bit identical analysis results either way.
  /// @{

  std::vector<std::pair<Term, Term>>
  impliedVarEqualitiesCached(const Conjunction &E) const;

  /// Enables or disables memoization for this lattice; products propagate
  /// to their components.  Const because products hold const component
  /// references and the caches are observation-invisible (mutable).
  virtual void setMemoization(bool Enabled) const { MemoEnabled = Enabled; }
  bool memoizationEnabled() const { return MemoEnabled; }

  /// Accumulates this lattice's counters into \p S; products recurse into
  /// their components.
  virtual void collectStats(LatticeStats &S) const;

  /// Name of the innermost component domain responsible for the atom \p A
  /// -- the one whose theory owns A's predicate and function symbols.
  /// Leaves return name(); products dispatch on symbol ownership and
  /// recurse, answering name() for genuinely mixed or purely-shared
  /// (equality-only) facts.  The precision-provenance recorder
  /// (obs/Provenance.h) uses this to attribute a dropped conjunct to the
  /// domain that failed to keep it.
  virtual std::string attributeAtom(const Atom &) const { return name(); }

  /// Snapshot convenience for delta reporting.
  LatticeStats statsSnapshot() const {
    LatticeStats S;
    collectStats(S);
    return S;
  }

  /// @}

private:
  TermContext &Ctx;

  mutable bool MemoEnabled = true;
  mutable QueryCache<Conjunction, std::vector<std::pair<Term, Term>>,
                     ConjunctionHash>
      VarEqCache;
};

/// Shared attributeAtom implementation for the product combinators: tallies
/// which component theory owns the atom's predicate and function symbols
/// and recurses into the sole owner, or returns \p SharedName for mixed
/// facts and pure variable equalities (which belong to every theory).
std::string attributeProductAtom(const TermContext &Ctx,
                                 const LogicalLattice &L1,
                                 const LogicalLattice &L2, const Atom &A,
                                 const std::string &SharedName);

} // namespace cai

#endif // CAI_THEORY_LOGICALLATTICE_H
