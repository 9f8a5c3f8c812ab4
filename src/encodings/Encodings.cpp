//===- encodings/Encodings.cpp - Section 5 domain reductions ---------------===//

#include "encodings/Encodings.h"

#include <stdexcept>

using namespace cai;

int64_t TermEncoder::indexOf(Symbol G) {
  auto [It, Inserted] = Indices.emplace(G, NextIndex);
  if (Inserted)
    ++NextIndex;
  return It->second;
}

Term TermEncoder::encode(Term T) {
  switch (T->kind()) {
  case TermKind::Variable:
  case TermKind::Number:
    return T;
  case TermKind::App:
    break;
  }
  const SymbolInfo &Info = Ctx.info(T->symbol());
  // Arithmetic structure passes through; note the source languages of
  // Section 5 (t ::= x | G_i(...)) contain no arithmetic, which is what
  // makes Claim 2's injectivity argument go through -- contexts over the
  // encoded terms can never manufacture the off-by-index collisions.
  if (Info.Arithmetic) {
    std::vector<Term> Args;
    Args.reserve(T->args().size());
    for (Term Arg : T->args())
      Args.push_back(encode(Arg));
    if (T->symbol() == Ctx.addSymbol())
      return Ctx.mkSum(Args.data(), Args.size());
    if (T->symbol() == Ctx.mulSymbol() && Args[0]->isNumber())
      return Ctx.mkMul(Args[0]->number(), Args[1]);
    return Ctx.mkApp(T->symbol(), std::move(Args));
  }

  if (T->symbol() == F)
    return T; // Already in the target signature.

  int64_t Index = indexOf(T->symbol());
  std::vector<Term> Sum{Ctx.mkNum(Index)};
  switch (S) {
  case Scheme::Commutative:
    if (T->args().size() != 2)
      throw std::invalid_argument(
          "commutative encoding requires binary function symbols, but '" +
          Info.Name + "' has arity " + std::to_string(T->args().size()));
    // i + M(t1) + M(t2): addition's commutativity models the source
    // symbol's.
    for (Term Sub : T->args())
      Sum.push_back(encode(Sub));
    break;
  case Scheme::ArityReduction: {
    if (T->args().empty())
      throw std::invalid_argument("cannot encode the nullary application '" +
                                  Info.Name + "'");
    // i + 2^1 M(t1) + ... + 2^a M(ta): positional weights keep argument
    // order significant.
    int64_t Weight = 2;
    for (Term Sub : T->args()) {
      Sum.push_back(Ctx.mkMul(Rational(Weight), encode(Sub)));
      Weight *= 2;
    }
    break;
  }
  }
  return Ctx.mkApp(F, {Ctx.mkSum(Sum.data(), Sum.size())});
}

Atom TermEncoder::encode(const Atom &A) {
  std::vector<Term> Args;
  Args.reserve(A.args().size());
  for (Term Arg : A.args())
    Args.push_back(encode(Arg));
  if (A.predicate() == Ctx.eqSymbol())
    return Atom::mkEq(Ctx, Args[0], Args[1]);
  return Atom(A.predicate(), std::move(Args));
}

Conjunction TermEncoder::encode(const Conjunction &E) {
  if (E.isBottom())
    return E;
  Conjunction Out;
  for (const Atom &A : E.atoms())
    Out.add(encode(A));
  return Out;
}

Program TermEncoder::encode(const Program &P) {
  Program Out;
  for (unsigned I = 0; I < P.numNodes(); ++I) {
    NodeId N = Out.addNode();
    if (P.nodeLoc(N).isValid())
      Out.setNodeLoc(N, P.nodeLoc(N));
  }
  Out.setEntry(P.entry());
  for (const Edge &E : P.edges()) {
    Action A = E.Act;
    if (A.Value)
      A.Value = encode(A.Value);
    if (A.Kind == ActionKind::Assume)
      A.Cond = encode(A.Cond);
    Out.addEdge(E.From, E.To, std::move(A));
  }
  for (const Assertion &A : P.assertions())
    Out.addAssertion(A.Node, encode(A.Fact), A.Label);
  return Out;
}
