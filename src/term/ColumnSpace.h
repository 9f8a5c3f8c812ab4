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

#include "term/TermMap.h"

#include <numeric>
#include <vector>

namespace cai {

/// Terms acting as indeterminates, with their column index.
struct ColumnSpace {
  std::vector<Term> Columns;
  TermMap<size_t> Index;

  /// Appends \p T as the next column unless it is one already.
  void add(Term T) {
    if (Index.insert(T, Columns.size()).second)
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
    if (const size_t *Col = A.Index.find(T)) {
      U.BCol.push_back(*Col);
    } else {
      U.BCol.push_back(U.Columns.size());
      U.Columns.push_back(T);
    }
  }
  return U;
}

} // namespace cai

#endif // CAI_TERM_COLUMNSPACE_H
