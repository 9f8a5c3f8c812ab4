//===- term/ColumnSpace.h - Indeterminates of a linear system ---*- C++ -*-===//
///
/// \file
/// The column space of the arithmetic domains: the terms a conjunction's
/// linear atoms treat as indeterminates (variables and maximal
/// non-arithmetic subterms), in order of first occurrence, and the union
/// column space a binary operator works in.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_COLUMNSPACE_H
#define CAI_TERM_COLUMNSPACE_H

#include "term/Term.h"

#include <map>
#include <numeric>
#include <vector>

namespace cai {

/// Terms acting as indeterminates, with their column index.
struct ColumnSpace {
  std::vector<Term> Columns;
  std::map<Term, size_t, TermStructLess> Index;

  /// Appends \p T as the next column unless it is one already.
  void add(Term T) {
    if (Index.emplace(T, Columns.size()).second)
      Columns.push_back(T);
  }
};

/// The column space of a binary operator, and each side's column map into
/// it: side A's column C is column ACol[C].
struct ColumnUnion {
  std::vector<Term> Columns;
  std::vector<size_t> ACol, BCol;
};

/// \p A's columns, then \p B's new ones in B's order.
inline ColumnUnion uniteColumns(const ColumnSpace &A, const ColumnSpace &B) {
  ColumnUnion U;
  U.Columns = A.Columns;
  U.ACol.resize(U.Columns.size());
  std::iota(U.ACol.begin(), U.ACol.end(), 0);
  U.BCol.reserve(B.Columns.size());
  for (Term T : B.Columns) {
    auto It = A.Index.find(T);
    if (It != A.Index.end()) {
      U.BCol.push_back(It->second);
    } else {
      U.BCol.push_back(U.Columns.size());
      U.Columns.push_back(T);
    }
  }
  return U;
}

} // namespace cai

#endif // CAI_TERM_COLUMNSPACE_H
