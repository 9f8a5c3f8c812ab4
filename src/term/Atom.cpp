//===- term/Atom.cpp - Atomic facts ---------------------------------------===//

#include "term/Atom.h"

#include "term/TermMap.h"

#include <algorithm>

using namespace cai;

Atom Atom::mkEq(TermContext &Ctx, Term A, Term B) {
  // Structural orientation: the canonical side order must not depend on
  // which term happened to be interned first.
  if (structuralCompare(B, A) < 0)
    std::swap(A, B);
  return Atom(Ctx.eqSymbol(), {A, B});
}

Atom Atom::mkLe(TermContext &Ctx, Term A, Term B) {
  return Atom(Ctx.leSymbol(), {A, B});
}

bool Atom::isTrivial(const TermContext &Ctx) const {
  if (isEq(Ctx))
    return Args[0] == Args[1];
  if (isLe(Ctx)) {
    if (Args[0] == Args[1])
      return true;
    if (Args[0]->isNumber() && Args[1]->isNumber())
      return Args[0]->number() <= Args[1]->number();
  }
  return false;
}

bool Atom::operator<(const Atom &RHS) const {
  if (Pred != RHS.Pred)
    return Pred < RHS.Pred;
  if (Args.size() != RHS.Args.size())
    return Args.size() < RHS.Args.size();
  for (size_t I = 0; I < Args.size(); ++I)
    if (Args[I] != RHS.Args[I])
      return structuralCompare(Args[I], RHS.Args[I]) < 0;
  return false;
}

Atom Atom::substitute(TermContext &Ctx, const Substitution &Subst) const {
  ArgList NewArgs;
  NewArgs.reserve(Args.size());
  bool Changed = false;
  for (Term Arg : Args) {
    Term NewArg = Ctx.substitute(Arg, Subst);
    Changed |= NewArg != Arg;
    NewArgs.push_back(NewArg);
  }
  if (!Changed)
    return *this;
  if (Pred == Ctx.eqSymbol())
    return mkEq(Ctx, NewArgs[0], NewArgs[1]);
  return Atom(Pred, std::move(NewArgs));
}

void Atom::collectVars(std::vector<Term> &Out) const {
  TermMap<bool> Seen;
  for (Term V : Out)
    Seen.insert(V, true);
  for (Term Arg : Args)
    appendNewVars(Arg, Seen, Out);
  std::sort(Out.begin(), Out.end(), TermStructLess());
}
