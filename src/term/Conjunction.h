//===- term/Conjunction.h - Conjunctions of atomic facts --------*- C++ -*-===//
///
/// \file
/// A finite conjunction of atomic facts, or the explicit inconsistent
/// element "false".  These are the elements of every logical lattice
/// (Definition 1): "true" is the empty conjunction (lattice top), "false"
/// is lattice bottom.  Atoms are kept sorted and deduplicated; syntactic
/// equality of two conjunctions is therefore meaningful, but semantic
/// lattice equality is still a domain question (mutual entailment).
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_CONJUNCTION_H
#define CAI_TERM_CONJUNCTION_H

#include "support/SmallVec.h"
#include "term/Atom.h"

namespace cai {

/// A sorted, deduplicated conjunction of atoms, with an explicit bottom.
class Conjunction {
public:
  /// Atom storage: conjunctions flowing through the fixpoint engine are
  /// usually a handful of facts, so the first two live inline (DESIGN.md,
  /// "Three-tier exact arithmetic and small-vector rows").  Capacity 2,
  /// not more: conjunctions are hashtable values in the analyzer's memo
  /// caches, and each extra inline Atom adds 48 bytes to every node.
  using AtomList = SmallVec<Atom, 2>;

  /// Constructs "true" (the empty conjunction, lattice top).
  Conjunction() = default;

  static Conjunction top() { return Conjunction(); }
  static Conjunction bottom() {
    Conjunction C;
    C.Bottom = true;
    return C;
  }
  /// The conjunction of \p Atoms, in any order and with duplicates: one
  /// sort and one dedup.  Build a conjunction this way, not by add() in a
  /// loop, which shifts the list once per atom.
  static Conjunction of(AtomList Atoms);

  bool isBottom() const { return Bottom; }
  bool isTop() const { return !Bottom && Items.empty(); }

  const AtomList &atoms() const {
    assert(!Bottom && "no atoms in bottom");
    return Items;
  }
  size_t size() const { return Bottom ? 0 : Items.size(); }

  auto begin() const { return Items.begin(); }
  auto end() const { return Items.end(); }

  /// Adds one atom, keeping the sorted/dedup invariant.  No-op on bottom.
  void add(const Atom &A);

  /// Conjoins another conjunction (the lattice meet at the syntactic
  /// level): one merge of the two sorted lists.
  Conjunction meet(const Conjunction &RHS) const;

  bool contains(const Atom &A) const;

  /// Syntactic equality (same sorted atom list, same bottom flag).
  bool operator==(const Conjunction &RHS) const {
    if (Bottom != RHS.Bottom)
      return false;
    // The fingerprint is a cheap negative filter when both sides have one.
    if (FpValid && RHS.FpValid && Fp != RHS.Fp)
      return false;
    return Items == RHS.Items;
  }
  bool operator!=(const Conjunction &RHS) const { return !(*this == RHS); }

  /// A canonical 64-bit fingerprint of the conjunction's content, computed
  /// lazily from the sorted atom list (whose hashes derive from hash-consed
  /// term ids) and cached until the next mutation.  Two equal conjunctions
  /// from the same TermContext always have equal fingerprints; the converse
  /// holds modulo 64-bit collision, which is why memoization keys store the
  /// full conjunction and use the fingerprint only for bucketing.
  uint64_t fingerprint() const;

  /// Applies a substitution to every atom.
  Conjunction substitute(TermContext &Ctx, const Substitution &Subst) const;

  /// All variables occurring in the conjunction, deduped, in structural
  /// order (TermStructLess).
  std::vector<Term> vars() const;

  /// Removes trivially valid atoms (t = t and friends).
  Conjunction simplified(TermContext &Ctx) const;

  /// The atoms for which \p Keep holds, in order.  Bottom stays bottom.
  template <typename PredT> Conjunction filter(PredT &&Keep) const {
    if (Bottom)
      return *this;
    Conjunction Result;
    Result.Items.reserve(Items.size());
    for (const Atom &A : Items)
      if (Keep(A))
        Result.Items.push_back(A);
    return Result;
  }

private:
  bool Bottom = false;
  AtomList Items;
  // Lazily computed fingerprint cache (see fingerprint()).
  mutable uint64_t Fp = 0;
  mutable bool FpValid = false;
};

/// Hash functor for memoization keys; buckets by fingerprint.
struct ConjunctionHash {
  size_t operator()(const Conjunction &C) const {
    return static_cast<size_t>(C.fingerprint());
  }
};

} // namespace cai

#endif // CAI_TERM_CONJUNCTION_H
