//===- term/Conjunction.cpp - Conjunctions of atomic facts ----------------===//

#include "term/Conjunction.h"

#include "term/TermMap.h"

#include <algorithm>

using namespace cai;

Conjunction Conjunction::of(std::vector<Atom> Atoms) {
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
  Conjunction Result = *this;
  for (const Atom &A : RHS.Items)
    Result.add(A);
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
  Conjunction Result;
  for (const Atom &A : Items)
    Result.add(A.substitute(Ctx, Subst));
  return Result;
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
  if (Bottom)
    return *this;
  Conjunction Result;
  for (const Atom &A : Items)
    if (!A.isTrivial(Ctx))
      Result.add(A);
  return Result;
}
