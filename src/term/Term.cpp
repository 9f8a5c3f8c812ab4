//===- term/Term.cpp - Hash-consed first-order terms ---------------------===//

#include "term/Term.h"

#include "term/TermMap.h"

#include <algorithm>

using namespace cai;

void cai::appendNewVars(Term T, TermMap<bool> &Seen, std::vector<Term> &Out) {
  if (T->isVariable()) {
    if (Seen.insert(T, true).second)
      Out.push_back(T);
    return;
  }
  if (T->isApp())
    for (Term Arg : T->args())
      appendNewVars(Arg, Seen, Out);
}

void cai::collectVars(Term T, std::vector<Term> &Out) {
  TermMap<bool> Seen;
  for (Term V : Out)
    Seen.insert(V, true);
  appendNewVars(T, Seen, Out);
  std::sort(Out.begin(), Out.end(), TermStructLess());
}

int cai::structuralCompare(Term A, Term B) {
  // Hash-consing makes pointer equality structural equality, so this is
  // also the hot fast path for deep recursive calls on shared subterms.
  if (A == B)
    return 0;
  // Kind rank: variables, then applications, then numerals.  Constants
  // sorting last keeps canonical sums in the conventional "x + 2*y + 3"
  // shape.
  auto Rank = [](Term T) {
    return T->isVariable() ? 0 : T->isApp() ? 1 : 2;
  };
  if (int D = Rank(A) - Rank(B))
    return D;
  switch (A->kind()) {
  case TermKind::Variable:
    // Lexicographic name order.  Fresh variables are zero-padded
    // ("$a00000009" < "$a00000010"), so among fresh variables this equals
    // creation order no matter where the counter started — the property
    // that makes analysis results invariant under consistent renamings of
    // fresh variables (memoized and unmemoized runs, or warm and cold
    // incremental runs, evaluate transfers different numbers of times and
    // so draw different counter values).  An order keyed on a hash of the
    // name would not survive that renaming.
    return A->varName().compare(B->varName());
  case TermKind::Number:
    if (A->number() < B->number())
      return -1;
    return B->number() < A->number() ? 1 : 0;
  case TermKind::App: {
    // Symbol intern indices are identical between any two contexts that
    // interned the same program the same way (the incremental-reuse
    // setting), so this key is as reproducible as the names themselves.
    if (A->symbol() != B->symbol())
      return A->symbol() < B->symbol() ? -1 : 1;
    if (A->args().size() != B->args().size())
      return A->args().size() < B->args().size() ? -1 : 1;
    for (size_t I = 0; I < A->args().size(); ++I)
      if (int D = structuralCompare(A->args()[I], B->args()[I]))
        return D;
    return 0;
  }
  }
  return 0;
}

void cai::sortByTerm(TermCoeff *First, TermCoeff *Last) {
  std::sort(First, Last, [](const TermCoeff &A, const TermCoeff &B) {
    return structuralCompare(A.first, B.first) < 0;
  });
}

bool cai::occursIn(Term Var, Term T) {
  if (T == Var)
    return true;
  if (!T->isApp())
    return false;
  for (Term Arg : T->args())
    if (occursIn(Var, Arg))
      return true;
  return false;
}

unsigned cai::termSize(Term T) {
  if (!T->isApp())
    return 1;
  unsigned Size = 1;
  for (Term Arg : T->args())
    Size += termSize(Arg);
  return Size;
}
