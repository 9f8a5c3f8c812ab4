//===- product/LogicalProduct.h - The paper's core construction -*- C++ -*-===//
///
/// \file
/// The logical product of two logical lattices (Definition 2) and the
/// automatic construction of its abstract interpretation operators from
/// the component operators:
///
///  * join          -- the algorithm of Figure 6: purify + NO-saturate both
///                     inputs, introduce the <x,y> dummy pair variables
///                     whose definitions let the component joins speak
///                     about alien terms, join component-wise, then
///                     eliminate the dummies with the product's own Q.
///  * existQuant    -- the algorithm of Figure 7: purify + NO-saturate,
///                     QSaturation discovers Alternate definitions for the
///                     variables being eliminated, the component Qs remove
///                     the rest, and back-substitution rebuilds mixed facts.
///  * widen         -- Figure 6 with the component widenings in place of
///                     the component joins (Section 4.3).
///
/// Constructed with Mode::Reduced the same class implements the reduced
/// product: the join skips the dummy-variable block (lines 5-7 of Figure 6)
/// and existQuant takes V2 := V1 (no QSaturation), exactly the two
/// simplifications the paper identifies.
///
/// A LogicalProduct is itself a LogicalLattice over the union theory, so
/// products nest: (affine >< uf) >< lists works.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PRODUCT_LOGICALPRODUCT_H
#define CAI_PRODUCT_LOGICALPRODUCT_H

#include "theory/LogicalLattice.h"
#include "theory/NelsonOppen.h"
#include "theory/Purify.h"

#include <memory>

namespace cai {

/// The logical (or, in Reduced mode, reduced) product combinator.
class LogicalProduct : public LogicalLattice {
public:
  enum class Mode : uint8_t {
    Logical, ///< Full Figure 6/7 algorithms (the paper's contribution).
    Reduced, ///< Reduced-product simplification (no dummies, V2 := V1).
  };

  /// How many <x, y> dummy variables the join introduces.
  enum class DummyPairs : uint8_t {
    /// All |V_l| x |V_r| pairs, exactly as Figure 6 lines 5-7 prescribe.
    Full,
    /// Only pairs where each side's variable can actually name an alien
    /// term: purification variables and variables occurring inside a
    /// non-arithmetic application.  Dummies for other variables can only
    /// surface in pure facts, which the component joins already find, so
    /// this keeps the paper's examples exact while avoiding the full
    /// quadratic blow-up on every join.  The ablation benchmark compares
    /// the two.  Further, when the first component's join commutes with
    /// projection (LogicalLattice::joinCommutesWithProjection), it sees
    /// only the pairs whose dummy the second component's join kept; the
    /// others are quantified away by line 10 anyway.
    Pruned,
  };

  LogicalProduct(TermContext &Ctx, const LogicalLattice &First,
                 const LogicalLattice &Second, Mode M = Mode::Logical,
                 DummyPairs Pairs = DummyPairs::Pruned)
      : LogicalLattice(Ctx), L1(First), L2(Second), M(M), Pairs(Pairs) {}

  std::string name() const override {
    return L1.name() + (M == Mode::Logical ? " >< " : " (x) ") + L2.name();
  }

  Mode mode() const { return M; }

  bool ownsFunction(Symbol S) const override {
    return L1.ownsFunction(S) || L2.ownsFunction(S);
  }
  bool ownsPredicate(Symbol S) const override {
    return L1.ownsPredicate(S) || L2.ownsPredicate(S);
  }
  bool ownsNumerals() const override {
    return L1.ownsNumerals() || L2.ownsNumerals();
  }

  Conjunction join(const Conjunction &A, const Conjunction &B) const override;
  Conjunction existQuant(const Conjunction &E,
                         const std::vector<Term> &Vars) const override;
  bool entails(const Conjunction &E, const Atom &A) const override;
  bool isUnsat(const Conjunction &E) const override;
  std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const override;
  std::optional<Term> alternate(const Conjunction &E, Term Var,
                                const std::vector<Term> &Avoid) const override;
  Conjunction widen(const Conjunction &Old,
                    const Conjunction &New) const override;

  const LogicalLattice &first() const { return L1; }
  const LogicalLattice &second() const { return L2; }

  /// Result of QSaturation_{T1,T2} (Figure 7): the variables left without a
  /// definition and the definitions found, in removal order.
  struct QSaturationResult {
    std::vector<Term> Remaining;
    std::vector<std::pair<Term, Term>> Defs;
  };

  /// Exposed for tests and benchmarks; \p E1 and \p E2 must be purified and
  /// NO-saturated pure conjunctions.
  QSaturationResult qSaturate(const Conjunction &E1, const Conjunction &E2,
                              const std::vector<Term> &V1) const;

  /// Substitutes QSaturation's definitions \p Defs (in removal order, each
  /// over variables removed before it) into \p E, resolving chains
  /// (Section 4.2): one substitution of every definition, each resolved
  /// against the earlier ones.  Exposed for tests.
  Conjunction backSubstitute(Conjunction E,
                             const std::vector<std::pair<Term, Term>> &Defs)
      const;

  void setMemoization(bool Enabled) const override {
    LogicalLattice::setMemoization(Enabled);
    L1.setMemoization(Enabled);
    L2.setMemoization(Enabled);
  }

  std::string attributeAtom(const Atom &A) const override {
    return attributeProductAtom(context(), L1, L2, A, name());
  }

  void collectStats(LatticeStats &S) const override {
    LogicalLattice::collectStats(S);
    S.SaturationRounds += SatRounds;
    S.CacheHits += SatCache.counters().Hits;
    S.CacheMisses += SatCache.counters().Misses;
    L1.collectStats(S);
    L2.collectStats(S);
  }

private:
  /// One memoized purification + Nelson-Oppen saturation of a conjunction:
  /// the hot prefix of every product operation (join, existQuant, entails,
  /// isUnsat, impliedVarEqualities, alternate).  The fed Purifier is kept:
  /// its fresh variables are the purification's, its sides are the
  /// unsaturated ones, and entailment queries purify the queried fact with
  /// its alien-term naming.
  struct SatEntry {
    Purifier Pur;
    SaturationResult Sat;
    explicit SatEntry(TermContext &Ctx, const LogicalLattice &L1,
                      const LogicalLattice &L2)
        : Pur(Ctx, L1, L2) {}
  };

  /// Returns the purified + saturated form of \p E, which must not be
  /// bottom: from SatCache when \p UseCache is set (and memoization is
  /// on), otherwise freshly computed and not recorded.  Every computed
  /// SatEntry allocates globally fresh purification variables, so a
  /// fresh entry never shares a name with a cached one.
  std::shared_ptr<const SatEntry>
  purifySaturate(const Conjunction &E, bool UseCache = true) const;
  /// Shared implementation of join and widen (Section 4.3: the widening is
  /// the join algorithm with component widenings).
  Conjunction combine(const Conjunction &A, const Conjunction &B,
                      bool UseWiden) const;

  /// Precision provenance for one combine (active only under --explain):
  /// attributes every input conjunct lost in \p Result to the component
  /// join/widening that dropped it, or to the dummy elimination.
  void recordCombineLosses(const Conjunction &A, const SatEntry &EL,
                           const Conjunction &B, const SatEntry &ER,
                           const Conjunction &E1, const Conjunction &E2,
                           const Conjunction &Result, bool UseWiden) const;

  const LogicalLattice &L1;
  const LogicalLattice &L2;
  Mode M;
  DummyPairs Pairs;

  mutable QueryCache<Conjunction, std::shared_ptr<const SatEntry>,
                     ConjunctionHash>
      SatCache{1 << 12};
  mutable unsigned long SatRounds = 0;
};

} // namespace cai

#endif // CAI_PRODUCT_LOGICALPRODUCT_H
