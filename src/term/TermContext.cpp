//===- term/TermContext.cpp - Term and symbol interner -------------------===//

#include "term/TermContext.h"

#include "support/SmallVec.h"

#include <algorithm>
#include <cstdio>

using namespace cai;

/// Arity value used for the variadic sum symbol.
static constexpr unsigned VariadicArity = ~0u;

TermContext::TermContext() {
  SymAdd = internSymbol("+", VariadicArity, SymbolKind::Function, true);
  SymMul = internSymbol("*", 2, SymbolKind::Function, true);
  SymEq = internSymbol("=", 2, SymbolKind::Predicate, false);
  SymLe = internSymbol("<=", 2, SymbolKind::Predicate, false);
  // The theory predicates, so the parser reads even(x) as an atom whatever
  // domains the context will serve.
  for (const char *Name : {"even", "odd", "positive", "negative"})
    internSymbol(Name, 1, SymbolKind::Predicate, false);
}

Symbol TermContext::internSymbol(const std::string &Name, unsigned Arity,
                                 SymbolKind Kind, bool Arithmetic) {
  auto It = SymbolByName.find(Name);
  if (It != SymbolByName.end()) {
    const SymbolInfo &Existing = Symbols[It->second];
    assert(Existing.Arity == Arity && Existing.Kind == Kind &&
           "symbol re-interned with different metadata");
    (void)Existing;
    return Symbol(It->second);
  }
  uint32_t Idx = static_cast<uint32_t>(Symbols.size());
  Symbols.push_back(SymbolInfo{Name, Arity, Kind, Arithmetic});
  SymbolByName.emplace(Name, Idx);
  return Symbol(Idx);
}

Symbol TermContext::getFunction(const std::string &Name, unsigned Arity) {
  return internSymbol(Name, Arity, SymbolKind::Function, false);
}

Symbol TermContext::getPredicate(const std::string &Name, unsigned Arity) {
  return internSymbol(Name, Arity, SymbolKind::Predicate, false);
}

Symbol TermContext::findSymbol(const std::string &Name) const {
  auto It = SymbolByName.find(Name);
  if (It == SymbolByName.end())
    return Symbol();
  return Symbol(It->second);
}

Term TermContext::internNode(TermNode Node) {
  Node.Id = static_cast<uint32_t>(Nodes.size());
  for (Term Arg : Node.Args)
    Node.Depth = std::max(Node.Depth, termDepth(Arg) + 1);
  Nodes.push_back(std::move(Node));
  return &Nodes.back();
}

Term TermContext::mkVar(const std::string &Name) {
  auto It = VarByName.find(Name);
  if (It != VarByName.end())
    return It->second;
  TermNode Node;
  Node.Kind = TermKind::Variable;
  Node.Name = Name;
  Term T = internNode(std::move(Node));
  VarByName.emplace(Name, T);
  return T;
}

Term TermContext::freshVar(const std::string &Hint) {
  // Zero-padded counter so the lexicographic order of fresh names equals
  // creation order ("$a00000009" < "$a00000010"); with structural term
  // ordering an unpadded "$a9" > "$a10" flip would make results depend on
  // the counter's starting value.
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%08llu",
                static_cast<unsigned long long>(FreshCounter++));
  return mkVar("$" + Hint + Buf);
}

Term TermContext::mkNum(Rational Value) {
  auto It = NumByValue.find(Value);
  if (It != NumByValue.end())
    return It->second;
  TermNode Node;
  Node.Kind = TermKind::Number;
  Node.Value = Value;
  Term T = internNode(std::move(Node));
  NumByValue.emplace(std::move(Value), T);
  return T;
}

Term TermContext::mkApp(Symbol Fn, const Term *Args, size_t NumArgs) {
  assert(Fn.isValid() && "invalid symbol");
  assert(info(Fn).Kind == SymbolKind::Function && "not a function symbol");
  assert((info(Fn).Arity == VariadicArity || info(Fn).Arity == NumArgs) &&
         "arity mismatch");
  auto It = Apps.find(AppView{Fn.index(), Args, NumArgs});
  if (It != Apps.end())
    return *It;
  TermNode Node;
  Node.Kind = TermKind::App;
  Node.Sym = Fn;
  Node.Args.assign(Args, Args + NumArgs);
  Term T = internNode(std::move(Node));
  Apps.insert(T);
  return T;
}

Term TermContext::mkSum(const Term *Addends, size_t NumAddends) {
  // Flatten nested sums into (base, coefficient) pieces and fold numerals.
  SmallVec<TermCoeff, 8> Pieces;
  Rational Constant;
  auto Append = [&](Term T, auto &&Self) -> void {
    if (T->isNumber()) {
      Constant += T->number();
      return;
    }
    if (T->isApp() && T->symbol() == SymAdd) {
      for (Term Arg : T->args())
        Self(Arg, Self);
      return;
    }
    if (T->isApp() && T->symbol() == SymMul && T->args()[0]->isNumber()) {
      Pieces.emplace_back(T->args()[1], T->args()[0]->number());
      return;
    }
    Pieces.emplace_back(T, Rational(1));
  };
  for (size_t I = 0; I < NumAddends; ++I)
    Append(Addends[I], Append);

  // Canonical addend order (structural) so syntactically different builds
  // of the same sum hash-cons to one node (1 + a + b == 1 + b + a), in a
  // form that does not depend on which addend was interned first.  Sorting
  // also makes like terms adjacent, so x - x cancels and 2*x + x folds to
  // 3*x.
  sortByTerm(Pieces.begin(), Pieces.end());

  SmallVec<Term, 8> Sum;
  for (size_t I = 0; I < Pieces.size();) {
    Term Base = Pieces[I].first;
    Rational Coeff = std::move(Pieces[I].second);
    for (++I; I < Pieces.size() && Pieces[I].first == Base; ++I)
      Coeff += Pieces[I].second;
    if (!Coeff.isZero())
      Sum.push_back(mkMul(std::move(Coeff), Base));
  }
  if (!Constant.isZero() || Sum.empty())
    Sum.push_back(mkNum(Constant));
  if (Sum.size() == 1)
    return Sum.front();
  return mkApp(SymAdd, Sum.data(), Sum.size());
}

Term TermContext::mkSub(Term Left, Term Right) {
  return mkAdd(Left, mkNeg(Right));
}

Term TermContext::mkMul(Rational Coeff, Term T) {
  if (Coeff.isZero())
    return mkNum(0);
  if (T->isNumber())
    return mkNum(Coeff * T->number());
  if (Coeff.isOne())
    return T;
  // Fold nested scaling: c * (d * t) == (c*d) * t.
  if (T->isApp() && T->symbol() == SymMul && T->args()[0]->isNumber())
    return mkMul(Coeff * T->args()[0]->number(), T->args()[1]);
  // Distribute over sums so -(a+b) stays flat.
  if (T->isApp() && T->symbol() == SymAdd) {
    SmallVec<Term, 8> Scaled;
    Scaled.reserve(T->args().size());
    for (Term Arg : T->args())
      Scaled.push_back(mkMul(Coeff, Arg));
    return mkSum(Scaled.data(), Scaled.size());
  }
  Term Args[] = {mkNum(Coeff), T};
  return mkApp(SymMul, Args, 2);
}

Term TermContext::substitute(Term T, const Substitution &Subst) {
  if (Subst.empty())
    return T;
  switch (T->kind()) {
  case TermKind::Variable: {
    auto It = Subst.find(T);
    return It == Subst.end() ? T : It->second;
  }
  case TermKind::Number:
    return T;
  case TermKind::App: {
    bool Changed = false;
    SmallVec<Term, 4> NewArgs;
    NewArgs.reserve(T->args().size());
    for (Term Arg : T->args()) {
      Term NewArg = substitute(Arg, Subst);
      Changed |= NewArg != Arg;
      NewArgs.push_back(NewArg);
    }
    if (!Changed)
      return T;
    // Rebuild through the normalizing constructors so substituted sums and
    // products stay flat.
    if (T->symbol() == SymAdd)
      return mkSum(NewArgs.data(), NewArgs.size());
    if (T->symbol() == SymMul && NewArgs[0]->isNumber())
      return mkMul(NewArgs[0]->number(), NewArgs[1]);
    return mkApp(T->symbol(), NewArgs.data(), NewArgs.size());
  }
  }
  assert(false && "unknown term kind");
  return T;
}
