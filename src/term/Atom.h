//===- term/Atom.h - Atomic facts -------------------------------*- C++ -*-===//
///
/// \file
/// An atomic fact is a predicate symbol applied to terms: t1 = t2,
/// t1 <= t2, even(t), positive(t), ...  Conjunctions of atoms are the
/// elements of every logical lattice in this library (Definition 1 of the
/// paper).
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_ATOM_H
#define CAI_TERM_ATOM_H

#include "support/SmallVec.h"
#include "term/TermContext.h"

namespace cai {

/// One atomic fact.  Equality atoms are canonicalized so the
/// smaller-id term is first, making syntactic dedup effective.
class Atom {
public:
  /// Argument storage: every predicate of the library has arity 1 or 2, so
  /// the arguments live inside the atom and copying one never allocates (a
  /// larger arity spills to the heap).
  using ArgList = SmallVec<Term, 2>;

  Atom() = default;
  Atom(Symbol Pred, ArgList Args) : Pred(Pred), Args(std::move(Args)) {
    assert(Pred.isValid() && "atom with invalid predicate");
  }

  /// Builds t1 = t2 with canonical argument order.
  static Atom mkEq(TermContext &Ctx, Term A, Term B);
  /// Builds t1 <= t2.
  static Atom mkLe(TermContext &Ctx, Term A, Term B);

  Symbol predicate() const { return Pred; }
  const ArgList &args() const { return Args; }

  bool isEq(const TermContext &Ctx) const {
    return Pred == Ctx.eqSymbol();
  }
  bool isLe(const TermContext &Ctx) const {
    return Pred == Ctx.leSymbol();
  }

  /// Left-hand side of a binary atom.
  Term lhs() const {
    assert(Args.size() == 2 && "not a binary atom");
    return Args[0];
  }
  /// Right-hand side of a binary atom.
  Term rhs() const {
    assert(Args.size() == 2 && "not a binary atom");
    return Args[1];
  }

  /// True for x = y where both sides are variables.
  bool isVarEq(const TermContext &Ctx) const {
    return isEq(Ctx) && Args[0]->isVariable() && Args[1]->isVariable();
  }

  /// True for trivially valid atoms (t = t, t <= t, c1 <= c2 with c1<=c2).
  bool isTrivial(const TermContext &Ctx) const;

  bool operator==(const Atom &RHS) const {
    return Pred == RHS.Pred && Args == RHS.Args;
  }
  bool operator!=(const Atom &RHS) const { return !(*this == RHS); }

  /// Deterministic ordering (predicate index, then argument ids).
  bool operator<(const Atom &RHS) const;

  size_t hash() const {
    size_t H = Pred.index();
    for (Term Arg : Args)
      H = H * 1099511628211ull ^ Arg->id();
    return H;
  }

  /// Applies \p Subst to every argument.
  Atom substitute(TermContext &Ctx, const Substitution &Subst) const;

  /// Appends the variables of all arguments to \p Out (deduped, ordered).
  void collectVars(std::vector<Term> &Out) const;

private:
  Symbol Pred;
  ArgList Args;
};

struct AtomHash {
  size_t operator()(const Atom &A) const { return A.hash(); }
};

} // namespace cai

#endif // CAI_TERM_ATOM_H
