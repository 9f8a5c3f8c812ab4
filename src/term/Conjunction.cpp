//===- term/Conjunction.cpp - Conjunctions of atomic facts ----------------===//

#include "term/Conjunction.h"

#include "term/TermMap.h"

#include <algorithm>

using namespace cai;

Conjunction Conjunction::of(AtomList Atoms) {
  // Sorting then dropping adjacent duplicates gives the list that sorted
  // insertion with dedup would (Atom::operator< is a strict total order).
  Conjunction C;
  std::sort(Atoms.begin(), Atoms.end());
  Atoms.erase(std::unique(Atoms.begin(), Atoms.end()), Atoms.end());
  C.Items = std::move(Atoms);
  return C;
}

void Conjunction::add(const Atom &A) {
  if (Bottom)
    return;
  auto It = std::lower_bound(Items.begin(), Items.end(), A);
  if (It != Items.end() && *It == A)
    return;
  Items.insert(It, A);
  FpValid = false;
}

uint64_t Conjunction::fingerprint() const {
  if (FpValid)
    return Fp;
  // FNV-1a over the bottom flag and the sorted atom hashes.  Atom::hash
  // mixes the predicate index and hash-consed argument ids, so the result
  // is canonical for one TermContext.
  uint64_t H = Bottom ? 0x9e3779b97f4a7c15ull : 0xcbf29ce484222325ull;
  for (const Atom &A : Items) {
    H ^= static_cast<uint64_t>(A.hash());
    H *= 0x100000001b3ull;
  }
  Fp = H;
  FpValid = true;
  return Fp;
}

Conjunction Conjunction::meet(const Conjunction &RHS) const {
  if (Bottom || RHS.Bottom)
    return bottom();
  if (RHS.Items.empty())
    return *this;
  if (Items.empty())
    return RHS;
  // Merge the two sorted lists, an atom on both sides once.
  Conjunction Result;
  Result.Items.reserve(Items.size() + RHS.Items.size());
  const Atom *L = Items.begin(), *LEnd = Items.end();
  const Atom *R = RHS.Items.begin(), *REnd = RHS.Items.end();
  while (L != LEnd || R != REnd) {
    const Atom *Next;
    if (R == REnd || (L != LEnd && *L < *R)) {
      Next = L++;
    } else if (L == LEnd || *R < *L) {
      Next = R++;
    } else {
      Next = L++;
      ++R;
    }
    Result.Items.push_back(*Next);
  }
  return Result;
}

bool Conjunction::contains(const Atom &A) const {
  if (Bottom)
    return false;
  return std::binary_search(Items.begin(), Items.end(), A);
}

Conjunction Conjunction::substitute(TermContext &Ctx,
                                    const Substitution &Subst) const {
  if (Bottom || Subst.empty())
    return *this;
  AtomList Atoms;
  Atoms.reserve(Items.size());
  for (const Atom &A : Items)
    Atoms.push_back(A.substitute(Ctx, Subst));
  return of(std::move(Atoms));
}

std::vector<Term> Conjunction::vars() const {
  std::vector<Term> Out;
  if (Bottom)
    return Out;
  size_t NumArgs = 0;
  for (const Atom &A : Items)
    NumArgs += A.args().size();
  Out.reserve(NumArgs);
  TermMap<bool> Seen;
  for (const Atom &A : Items)
    for (Term Arg : A.args())
      appendNewVars(Arg, Seen, Out);
  std::sort(Out.begin(), Out.end(), TermStructLess());
  return Out;
}

Conjunction Conjunction::simplified(TermContext &Ctx) const {
  return filter([&](const Atom &A) { return !A.isTrivial(Ctx); });
}
