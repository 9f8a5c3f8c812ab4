//===- theory/Purify.cpp - Nelson-Oppen purification ----------------------===//

#include "theory/Purify.h"

#include <algorithm>

using namespace cai;

namespace {

/// Which theory owns a function application's top symbol.
enum class Owner { First, Second, Neither };

Owner ownerOfApp(const TermContext &Ctx, const LogicalLattice &L1,
                 const LogicalLattice &L2, Term T) {
  assert(T->isApp() && "not an application");
  Symbol S = T->symbol();
  bool Arith = Ctx.info(S).Arithmetic;
  if (Arith ? L1.ownsNumerals() : L1.ownsFunction(S))
    return Owner::First;
  if (Arith ? L2.ownsNumerals() : L2.ownsFunction(S))
    return Owner::Second;
  return Owner::Neither;
}

/// True if \p T uses only variables, numerals and arithmetic symbols.
bool isArithPure(const TermContext &Ctx, Term T) {
  switch (T->kind()) {
  case TermKind::Variable:
  case TermKind::Number:
    return true;
  case TermKind::App:
    break;
  }
  if (!Ctx.info(T->symbol()).Arithmetic)
    return false;
  for (Term Arg : T->args())
    if (!isArithPure(Ctx, Arg))
      return false;
  return true;
}

} // namespace

bool Purifier::ownedByFirst(Term T) const {
  switch (T->kind()) {
  case TermKind::Variable:
    return true; // Variables are shared; callers treat this as "either".
  case TermKind::Number:
    if (L1.ownsNumerals())
      return true;
    return !L2.ownsNumerals();
  case TermKind::App:
    return ownerOfApp(Ctx, L1, L2, T) != Owner::Second;
  }
  assert(false && "unknown term kind");
  return true;
}

Term Purifier::nameAlien(Term Alien, bool AlienIsFirst) {
  if (const Term *Name = NameOf.find(Alien))
    return *Name;
  Term V = Ctx.freshVar("a");
  NameOf.insert(Alien, V);
  Fresh.push_back(V);
  Atom Def = Atom::mkEq(Ctx, V, Alien);
  (AlienIsFirst ? E1 : E2).add(Def);
  return V;
}

Term Purifier::purifyTerm(Term T, bool WantFirst) {
  switch (T->kind()) {
  case TermKind::Variable:
    return T;
  case TermKind::Number: {
    const LogicalLattice &Here = WantFirst ? L1 : L2;
    const LogicalLattice &There = WantFirst ? L2 : L1;
    if (Here.ownsNumerals() || !There.ownsNumerals())
      return T; // Owned here, or an opaque shared constant.
    return nameAlien(T, !WantFirst);
  }
  case TermKind::App:
    break;
  }

  Owner O = ownerOfApp(Ctx, L1, L2, T);
  if (O == Owner::Neither) {
    // A symbol neither theory understands: havoc it with an undefined
    // fresh variable (sound: the variable is unconstrained).
    Term V = Ctx.freshVar("h");
    Fresh.push_back(V);
    return V;
  }
  bool IsFirst = O == Owner::First;
  // Rebuild the node with arguments purified in this node's theory.
  std::vector<Term> Args;
  Args.reserve(T->args().size());
  for (Term Arg : T->args())
    Args.push_back(purifyTerm(Arg, IsFirst));
  Term Pure;
  if (T->symbol() == Ctx.addSymbol()) {
    Pure = Ctx.mkSum(Args.data(), Args.size());
  } else if (T->symbol() == Ctx.mulSymbol() && Args[0]->isNumber()) {
    Pure = Ctx.mkMul(Args[0]->number(), Args[1]);
  } else {
    Pure = Ctx.mkApp(T->symbol(), std::move(Args));
  }
  if (IsFirst == WantFirst)
    return Pure;
  return nameAlien(Pure, IsFirst);
}

std::pair<Purifier::Side, Atom> Purifier::purifyAtom(const Atom &A) {
  Symbol Pred = A.predicate();
  bool IsEq = Pred == Ctx.eqSymbol();

  // Decide the owning side.
  Side S;
  if (!IsEq && L1.ownsPredicate(Pred)) {
    S = Side::One;
  } else if (!IsEq && L2.ownsPredicate(Pred)) {
    S = Side::Two;
  } else if (!IsEq) {
    return {Side::Dropped, A};
  } else {
    // Equality: dispatch on the argument structure.
    Term Lhs = A.lhs(), Rhs = A.rhs();
    // Non-disjoint signatures (both theories own arithmetic, like the
    // Figure 8 parity/sign pair): a purely arithmetic equality belongs to
    // both sides, and sharing it is what the example relies on.
    if (L1.ownsNumerals() && L2.ownsNumerals() && isArithPure(Ctx, Lhs) &&
        isArithPure(Ctx, Rhs))
      return {Side::Both, A};
    auto SideOfApp = [&](Term T) -> std::optional<Side> {
      switch (ownerOfApp(Ctx, L1, L2, T)) {
      case Owner::First:
        return Side::One;
      case Owner::Second:
        return Side::Two;
      case Owner::Neither:
        return std::nullopt;
      }
      return std::nullopt;
    };
    if (Lhs->isApp()) {
      std::optional<Side> OS = SideOfApp(Lhs);
      if (!OS)
        return {Side::Dropped, A};
      S = *OS;
    } else if (Rhs->isApp()) {
      std::optional<Side> OS = SideOfApp(Rhs);
      if (!OS)
        return {Side::Dropped, A};
      S = *OS;
    } else if (Lhs->isNumber() || Rhs->isNumber()) {
      if (L1.ownsNumerals())
        S = Side::One;
      else if (L2.ownsNumerals())
        S = Side::Two;
      else
        S = Side::One; // Opaque constants; either side can hold the fact.
    } else {
      S = Side::Both; // x = y belongs to every theory.
    }
  }

  if (S == Side::Both)
    return {S, A};

  bool WantFirst = S == Side::One;
  std::vector<Term> Args;
  Args.reserve(A.args().size());
  for (Term Arg : A.args())
    Args.push_back(purifyTerm(Arg, WantFirst));
  Atom Pure = IsEq ? Atom::mkEq(Ctx, Args[0], Args[1])
                   : Atom(Pred, std::move(Args));
  return {S, Pure};
}

void Purifier::addToSide(Side S, const Atom &A) {
  switch (S) {
  case Side::One:
    E1.add(A);
    break;
  case Side::Two:
    E2.add(A);
    break;
  case Side::Both:
    E1.add(A);
    E2.add(A);
    break;
  case Side::Dropped:
    break;
  }
}

PurifyResult cai::purify(TermContext &Ctx, const LogicalLattice &L1,
                         const LogicalLattice &L2, const Conjunction &E) {
  PurifyResult Result;
  if (E.isBottom()) {
    Result.Side1 = Conjunction::bottom();
    Result.Side2 = Conjunction::bottom();
    return Result;
  }
  Purifier P(Ctx, L1, L2);
  for (const Atom &A : E.atoms()) {
    auto [S, Pure] = P.purifyAtom(A);
    P.addToSide(S, Pure);
  }
  Result.FreshVars = P.freshVars();
  Result.Side1 = P.side1();
  Result.Side2 = P.side2();
  return Result;
}

namespace {

void collectAliensInTerm(const TermContext &Ctx, const LogicalLattice &L1,
                         const LogicalLattice &L2, Term T, bool InFirst,
                         std::vector<Term> &Out) {
  switch (T->kind()) {
  case TermKind::Variable:
    return;
  case TermKind::Number: {
    const LogicalLattice &Here = InFirst ? L1 : L2;
    const LogicalLattice &There = InFirst ? L2 : L1;
    if (!Here.ownsNumerals() && There.ownsNumerals())
      Out.push_back(T);
    return;
  }
  case TermKind::App:
    break;
  }
  Owner O = ownerOfApp(Ctx, L1, L2, T);
  bool IsFirst = O != Owner::Second;
  if (O != Owner::Neither && IsFirst != InFirst)
    Out.push_back(T);
  for (Term Arg : T->args())
    collectAliensInTerm(Ctx, L1, L2, Arg, IsFirst, Out);
}

} // namespace

std::vector<Term> cai::alienTerms(TermContext &Ctx, const LogicalLattice &L1,
                                  const LogicalLattice &L2,
                                  const Conjunction &E) {
  std::vector<Term> Out;
  if (E.isBottom())
    return Out;
  Purifier P(Ctx, L1, L2);
  for (const Atom &A : E.atoms()) {
    // Recompute the owning side the same way purifyAtom does, then walk
    // the argument terms in that context.
    Symbol Pred = A.predicate();
    bool InFirst;
    if (Pred != Ctx.eqSymbol()) {
      if (L1.ownsPredicate(Pred))
        InFirst = true;
      else if (L2.ownsPredicate(Pred))
        InFirst = false;
      else
        continue;
    } else {
      Term Lhs = A.lhs(), Rhs = A.rhs();
      if (Lhs->isApp())
        InFirst = P.ownedByFirst(Lhs);
      else if (Rhs->isApp())
        InFirst = P.ownedByFirst(Rhs);
      else if (Lhs->isNumber() || Rhs->isNumber())
        InFirst = P.ownedByFirst(Lhs->isNumber() ? Lhs : Rhs);
      else
        continue;
    }
    for (Term Arg : A.args())
      collectAliensInTerm(Ctx, L1, L2, Arg, InFirst, Out);
  }
  std::sort(Out.begin(), Out.end(), TermStructLess());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
