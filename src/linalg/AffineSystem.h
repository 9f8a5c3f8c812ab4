//===- linalg/AffineSystem.h - Systems of affine equations ------*- C++ -*-===//
///
/// \file
/// A conjunction of affine equations  a.x = c  over an arbitrary field,
/// kept in a canonical (reduced row echelon) form.  This is the engine
/// behind the Karr affine-equality domain (field = Rational) and the
/// parity-congruence domain (field = GF2): join is the affine hull,
/// project is block elimination, and the classes of equal variables,
/// read off the canonical rows, give the VE_T operator of the paper.
///
/// Every operation runs one Gauss-Jordan kernel (reducedRowEchelon below)
/// directly on the rows, with the column visit order as its parameter.
/// The Field concept: default constructor yields zero, static one(), the
/// four arithmetic operators, ==, and isZero().
///
/// Variables are dense column indices 0..NumVars-1; mapping them to terms
/// is the domains' business.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_LINALG_AFFINESYSTEM_H
#define CAI_LINALG_AFFINESYSTEM_H

#include "support/SmallVec.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

namespace cai {

/// Row vector of the linear-algebra layer: NumVars coefficients (plus, in
/// AffineSystem rows, a trailing constant).  Eight entries inline covers
/// the variable counts of the analyzed programs, so RREF row shuffling and
/// nullspace extraction stay off the allocator.
template <typename F> using LinRow = SmallVec<F, 8>;

/// The pivot columns of an echelon form, inline up to eight like a row.
using PivotList = SmallVec<size_t, 8>;

/// A column visit order for reducedRowEchelon, borrowed for the call: the
/// listed columns, or columns 0..size()-1 in index order (identity()),
/// which needs no list at all.
class ColumnOrder {
public:
  ColumnOrder(const size_t *Cols, size_t Size) : Cols(Cols), Size(Size) {}
  ColumnOrder(const std::vector<size_t> &Cols)
      : ColumnOrder(Cols.data(), Cols.size()) {}
  ColumnOrder(std::initializer_list<size_t> Cols)
      : ColumnOrder(Cols.begin(), Cols.size()) {}
  static ColumnOrder identity(size_t Size) { return {nullptr, Size}; }

  size_t size() const { return Size; }
  size_t operator[](size_t I) const { return Cols ? Cols[I] : I; }

private:
  const size_t *Cols;
  size_t Size;
};

/// Gauss-Jordan elimination in place.  Visits the columns of \p Order in
/// turn; for each, swaps a row with a non-zero entry there into the next
/// pivot position, scales it to a unit pivot and clears the column from
/// every other row.  Returns the pivot column of each leading row; the
/// rows after them are zero on every column of \p Order.  With every
/// column in \p Order this is the reduced row echelon form for that
/// column order, which is unique for a given row space.
template <typename F>
PivotList reducedRowEchelon(std::vector<LinRow<F>> &Rows, ColumnOrder Order) {
  PivotList Pivots;
  const size_t NumRows = Rows.size();
  if (NumRows == 0)
    return Pivots;
  const size_t NumCols = Rows[0].size();
  for (const LinRow<F> &Row : Rows)
    assert(Row.size() == NumCols && "ragged row");
  for (size_t I = 0; I < Order.size(); ++I) {
    const size_t Col = Order[I];
    const size_t PivotRow = Pivots.size();
    if (PivotRow == NumRows)
      break;
    assert(Col < NumCols && "pivot column out of range");
    size_t Found = PivotRow;
    while (Found < NumRows && Rows[Found][Col].isZero())
      ++Found;
    if (Found == NumRows)
      continue;
    if (Found != PivotRow)
      std::swap(Rows[Found], Rows[PivotRow]);
    F *P = Rows[PivotRow].data();
    // Scale to a unit pivot, skipping zero entries and already-unit
    // pivots: most entries of an echelonized row are zero, and each skipped
    // field operation saves a gcd normalization.
    if (!(P[Col] == F::one())) {
      F Inv = F::one() / P[Col];
      for (size_t C = 0; C < NumCols; ++C)
        if (!P[C].isZero())
          P[C] = P[C] * Inv;
    }
    for (size_t R = 0; R < NumRows; ++R) {
      F *X = Rows[R].data();
      if (R == PivotRow || X[Col].isZero())
        continue;
      F Factor = X[Col];
      bool Unit = Factor == F::one();
      for (size_t C = 0; C < NumCols; ++C) {
        if (P[C].isZero())
          continue;
        X[C] = Unit ? X[C] - P[C] : X[C] - Factor * P[C];
      }
    }
    Pivots.push_back(Col);
  }
  return Pivots;
}

/// A basis of the null space {x : Rows.x = 0} over the first \p NumCols
/// columns, for \p Rows in reduced row echelon form (columns in index
/// order) with \p Pivots as returned by reducedRowEchelon.
template <typename F>
std::vector<LinRow<F>> nullspaceBasis(const std::vector<LinRow<F>> &Rows,
                                      const PivotList &Pivots,
                                      size_t NumCols) {
  std::vector<bool> IsPivot(NumCols, false);
  for (size_t P : Pivots)
    IsPivot[P] = true;
  std::vector<LinRow<F>> Basis;
  for (size_t Free = 0; Free < NumCols; ++Free) {
    if (IsPivot[Free])
      continue;
    LinRow<F> V(NumCols);
    V[Free] = F::one();
    for (size_t R = 0; R < Pivots.size(); ++R)
      V[Pivots[R]] = F() - Rows[R][Free];
    Basis.push_back(std::move(V));
  }
  return Basis;
}

/// A canonicalized system of affine equations over field \p F.
///
/// Each row is a vector of NumVars coefficients followed by the constant:
/// row (a_0..a_{n-1}, c) encodes  sum a_i * x_i = c.  The inconsistent
/// system (0 = 1 derivable) is represented explicitly.
template <typename F> class AffineSystem {
public:
  explicit AffineSystem(size_t NumVars) : NumVars(NumVars) {}
  /// The system of \p Rows (each NumVars coefficients then the constant),
  /// canonicalized lazily on the first query.
  AffineSystem(size_t NumVars, std::vector<LinRow<F>> Rows)
      : NumVars(NumVars), Dirty(!Rows.empty()), Rows(std::move(Rows)) {
    for (const LinRow<F> &Row : this->Rows)
      assert(Row.size() == NumVars + 1 && "row size mismatch");
  }

  /// The inconsistent system over \p NumVars variables.
  static AffineSystem inconsistent(size_t NumVars) {
    AffineSystem S(NumVars);
    S.Inconsistent = true;
    return S;
  }

  size_t numVars() const { return NumVars; }
  bool isInconsistent() const {
    canonicalize();
    return Inconsistent;
  }
  /// True if the system imposes no constraint at all.
  bool isTrivial() const { return !isInconsistent() && Rows.empty(); }

  /// Adds one equation (NumVars coefficients then the constant) and
  /// re-canonicalizes lazily on the next query.
  void addRow(LinRow<F> Row);

  /// The canonical (RREF) rows.
  const std::vector<LinRow<F>> &rows() const;

  /// Number of independent equations.
  size_t rank() const { return rows().size(); }

  /// True if the equation \p Row is implied by the system.
  bool entails(LinRow<F> Row) const;

  /// Existentially quantifies the variables marked true in \p Eliminate:
  /// the result is the strongest system over the remaining variables (all
  /// columns are kept; eliminated columns simply no longer occur).
  AffineSystem project(const std::vector<bool> &Eliminate) const;

  /// The same equations over a space of \p NewNumVars variables, column C
  /// becoming column \p NewCol[C]; the other columns are unconstrained.
  /// Stays canonical, with no elimination, when \p NewCol is increasing.
  AffineSystem embed(const std::vector<size_t> &NewCol,
                     size_t NewNumVars) const;

  /// The affine hull of the union of the two solution sets (the join of
  /// the corresponding lattice elements).
  static AffineSystem join(const AffineSystem &A, const AffineSystem &B);

  /// For each variable, the smallest variable equal to it in every
  /// solution (itself when there is none smaller).  Empty when
  /// inconsistent.
  std::vector<size_t> equalVarLeaders() const;

  /// Expresses variable \p Var as an affine function of variables for
  /// which \p Avoid is false (Var itself is always avoided).  Returns the
  /// coefficient vector (NumVars entries then constant) with
  /// zero coefficients on all avoided columns, or nullopt if the system
  /// does not determine such an expression.
  std::optional<LinRow<F>>
  solveFor(size_t Var, const std::vector<bool> &Avoid) const;

  /// Batched solveFor: one echelon pass that expresses as many \p Target
  /// columns as possible over the non-target columns.  Each returned pair
  /// is (target column, coefficient vector over non-target columns plus
  /// constant).  May find fewer definitions than repeated solveFor calls
  /// with shrinking avoid sets, but costs a single elimination.
  std::vector<std::pair<size_t, LinRow<F>>>
  solveForMany(const std::vector<bool> &Targets) const;

  bool operator==(const AffineSystem &RHS) const {
    if (isInconsistent() != RHS.isInconsistent() || NumVars != RHS.NumVars)
      return false;
    return rows() == RHS.rows();
  }

private:
  void canonicalize() const;
  /// The canonical rows re-echelonized with the columns in \p Mask first,
  /// then column \p Lead (if any), then the others, each block in index
  /// order; and their pivot columns.  The system must be canonical and
  /// consistent.
  std::pair<std::vector<LinRow<F>>, PivotList>
  echelonMaskedFirst(const std::vector<bool> &Mask,
                     std::optional<size_t> Lead = std::nullopt) const;
  /// \p Row (a canonical row of a consistent system) solved for its
  /// column \p Pivot: the other coefficients negated, the constant kept.
  LinRow<F> definitionOf(const LinRow<F> &Row, size_t Pivot) const;

  size_t NumVars;
  mutable bool Inconsistent = false;
  mutable bool Dirty = false;
  mutable std::vector<LinRow<F>> Rows;
};

// Implementation --------------------------------------------------------===//

template <typename F> void AffineSystem<F>::addRow(LinRow<F> Row) {
  assert(Row.size() == NumVars + 1 && "row size mismatch");
  if (Inconsistent)
    return;
  Rows.push_back(std::move(Row));
  Dirty = true;
}

template <typename F> void AffineSystem<F>::canonicalize() const {
  if (!Dirty || Inconsistent)
    return;
  Dirty = false;
  size_t Rank = reducedRowEchelon(Rows, ColumnOrder::identity(NumVars)).size();
  // Rows past the rank are zero on every variable; a non-zero constant
  // there reads 0 = c.
  for (size_t R = Rank; R < Rows.size(); ++R)
    if (!Rows[R][NumVars].isZero()) {
      Inconsistent = true;
      Rows.clear();
      return;
    }
  Rows.erase(Rows.begin() + Rank, Rows.end());
}

template <typename F>
const std::vector<LinRow<F>> &AffineSystem<F>::rows() const {
  canonicalize();
  return Rows;
}

template <typename F>
std::pair<std::vector<LinRow<F>>, PivotList>
AffineSystem<F>::echelonMaskedFirst(const std::vector<bool> &Mask,
                                    std::optional<size_t> Lead) const {
  assert(Mask.size() == NumVars && "mask size mismatch");
  assert(!Dirty && !Inconsistent && "needs a canonical consistent system");
  SmallVec<size_t, 8> Order;
  Order.reserve(NumVars);
  for (size_t I = 0; I < NumVars; ++I)
    if (Mask[I])
      Order.push_back(I);
  if (Lead)
    Order.push_back(*Lead);
  for (size_t I = 0; I < NumVars; ++I)
    if (!Mask[I] && I != Lead)
      Order.push_back(I);
  std::vector<LinRow<F>> Echelon = Rows;
  PivotList Pivots =
      reducedRowEchelon(Echelon, ColumnOrder(Order.data(), Order.size()));
  // A consistent system has full row rank: every row got a pivot.
  assert(Pivots.size() == Echelon.size() && "rank dropped on re-echelon");
  return {std::move(Echelon), std::move(Pivots)};
}

template <typename F>
LinRow<F> AffineSystem<F>::definitionOf(const LinRow<F> &Row,
                                        size_t Pivot) const {
  assert((Row[Pivot] == F::one()) && "pivot not normalized");
  LinRow<F> Def(NumVars + 1);
  for (size_t C = 0; C < NumVars; ++C)
    if (C != Pivot)
      Def[C] = F() - Row[C];
  Def[NumVars] = Row[NumVars];
  return Def;
}

template <typename F> bool AffineSystem<F>::entails(LinRow<F> Row) const {
  assert(Row.size() == NumVars + 1 && "row size mismatch");
  if (isInconsistent())
    return true;
  // Reduce the row against the RREF basis; entailed iff it reduces to zero.
  for (const LinRow<F> &Basis : Rows) {
    size_t Pivot = 0;
    while (Pivot < NumVars && Basis[Pivot].isZero())
      ++Pivot;
    assert(Pivot < NumVars && "all-zero canonical row");
    if (Row[Pivot].isZero())
      continue;
    F Factor = Row[Pivot];
    for (size_t C = 0; C <= NumVars; ++C)
      if (!Basis[C].isZero())
        Row[C] = Row[C] - Factor * Basis[C];
  }
  for (const F &V : Row)
    if (!V.isZero())
      return false;
  return true;
}

template <typename F>
AffineSystem<F>
AffineSystem<F>::project(const std::vector<bool> &Eliminate) const {
  assert(Eliminate.size() == NumVars && "eliminate mask size mismatch");
  if (isInconsistent())
    return inconsistent(NumVars);
  // Visit eliminated columns first; the rows whose pivot is a kept column
  // are zero on every eliminated column and span exactly the projection
  // (block elimination).  With the kept columns visited in index order
  // they are already canonical.
  auto [Echelon, Pivots] = echelonMaskedFirst(Eliminate);
  AffineSystem Out(NumVars);
  for (size_t R = 0; R < Echelon.size(); ++R)
    if (!Eliminate[Pivots[R]])
      Out.Rows.push_back(std::move(Echelon[R]));
  return Out;
}

template <typename F>
AffineSystem<F> AffineSystem<F>::embed(const std::vector<size_t> &NewCol,
                                       size_t NewNumVars) const {
  assert(NewCol.size() == NumVars && "column map size mismatch");
  if (isInconsistent())
    return inconsistent(NewNumVars);
  AffineSystem Out(NewNumVars);
  for (const LinRow<F> &Row : Rows) {
    LinRow<F> Wide(NewNumVars + 1);
    for (size_t C = 0; C < NumVars; ++C) {
      assert(NewCol[C] < NewNumVars && "column map out of range");
      Wide[NewCol[C]] = Row[C];
    }
    Wide[NewNumVars] = Row[NumVars];
    Out.Rows.push_back(std::move(Wide));
  }
  for (size_t C = 1; C < NumVars && !Out.Dirty; ++C)
    Out.Dirty = NewCol[C] <= NewCol[C - 1];
  return Out;
}

template <typename F>
AffineSystem<F> AffineSystem<F>::join(const AffineSystem &A,
                                      const AffineSystem &B) {
  assert(A.NumVars == B.NumVars && "joining systems over different spaces");
  if (A.isInconsistent())
    return B;
  if (B.isInconsistent())
    return A;
  size_t N = A.NumVars;

  // Represent each solution set as particular point + span of a basis.
  auto PointAndBasis = [N](const AffineSystem &S, LinRow<F> &Point,
                           std::vector<LinRow<F>> &Basis) {
    // S.Rows is already RREF with pivot per row in column order.
    PivotList Pivots;
    for (const LinRow<F> &Row : S.Rows) {
      size_t P = 0;
      while (Row[P].isZero())
        ++P;
      Pivots.push_back(P);
    }
    // Particular solution: free vars zero, pivot var = row constant.
    Point.assign(N, F());
    for (size_t R = 0; R < Pivots.size(); ++R)
      Point[Pivots[R]] = S.Rows[R][N];
    // Null space of the homogeneous part.
    Basis = nullspaceBasis(S.Rows, Pivots, N);
  };

  LinRow<F> PointA, PointB;
  std::vector<LinRow<F>> BasisA, BasisB;
  PointAndBasis(A, PointA, BasisA);
  PointAndBasis(B, PointB, BasisB);

  // Affine hull = PointA + span(BasisA, BasisB, PointB - PointA).
  // An affine functional a.x = c holds on the hull iff a.d = 0 for every
  // direction d and a.PointA = c, i.e. (a, c) is in the null space of the
  // rows (d, 0) and (PointA, -1).
  std::vector<LinRow<F>> Constraints;
  auto AddDirection = [&](const LinRow<F> &D) {
    LinRow<F> Row(N + 1);
    for (size_t I = 0; I < N; ++I)
      Row[I] = D[I];
    Constraints.push_back(std::move(Row));
  };
  for (const LinRow<F> &D : BasisA)
    AddDirection(D);
  for (const LinRow<F> &D : BasisB)
    AddDirection(D);
  {
    LinRow<F> Row(N + 1);
    for (size_t I = 0; I < N; ++I)
      Row[I] = PointB[I] - PointA[I];
    Constraints.push_back(std::move(Row));
  }
  {
    LinRow<F> Row(N + 1);
    for (size_t I = 0; I < N; ++I)
      Row[I] = PointA[I];
    Row[N] = F() - F::one();
    Constraints.push_back(std::move(Row));
  }
  PivotList Pivots =
      reducedRowEchelon(Constraints, ColumnOrder::identity(N + 1));

  AffineSystem Out(N);
  for (LinRow<F> &Eq : nullspaceBasis(Constraints, Pivots, N + 1))
    Out.addRow(std::move(Eq));
  return Out;
}

template <typename F>
std::vector<size_t> AffineSystem<F>::equalVarLeaders() const {
  std::vector<size_t> Leader;
  if (isInconsistent())
    return Leader;
  // Over the free variables and a constant, a free variable is itself and
  // a pivot variable is its row negated off the pivot, constant kept; two
  // variables are equal iff those expressions are.  So a pivot p equals a
  // free variable c iff its row reads x_p - x_c = 0, and two other pivots
  // are equal iff their rows agree off their own pivots, constant
  // included (a canonical row is zero on every other pivot column).  The
  // rows come in ascending pivot order.
  Leader.resize(NumVars);
  std::iota(Leader.begin(), Leader.end(), 0);
  const F MinusOne = F() - F::one();
  // Rows of the second kind that lead a class: (pivot, first column past
  // the pivot with a non-zero entry, NumVars for the constant alone).
  struct ClassRow {
    size_t Row, Pivot, First;
  };
  std::vector<ClassRow> Classes;
  for (size_t R = 0; R < Rows.size(); ++R) {
    const LinRow<F> &Row = Rows[R];
    size_t P = 0;
    while (Row[P].isZero())
      ++P;
    size_t First = P + 1, NonZero = 0;
    while (First < NumVars && Row[First].isZero())
      ++First;
    for (size_t C = First; C < NumVars && NonZero < 2; ++C)
      NonZero += !Row[C].isZero();
    if (NonZero == 1 && Row[First] == MinusOne && Row[NumVars].isZero()) {
      // x_p = x_c with c free; c > p, so p is the first pivot c meets.
      if (Leader[First] == First)
        Leader[First] = P;
      Leader[P] = Leader[First];
      continue;
    }
    auto Same = [&](const ClassRow &K) {
      if (K.First != First)
        return false;
      const LinRow<F> &Lead = Rows[K.Row];
      for (size_t C = First; C <= NumVars; ++C)
        if (!(Lead[C] == Row[C]))
          return false;
      return true;
    };
    auto It = std::find_if(Classes.begin(), Classes.end(), Same);
    if (It == Classes.end())
      Classes.push_back({R, P, First});
    else
      Leader[P] = It->Pivot;
  }
  return Leader;
}

template <typename F>
std::optional<LinRow<F>>
AffineSystem<F>::solveFor(size_t Var, const std::vector<bool> &Avoid) const {
  assert(Var < NumVars && "variable out of range");
  if (isInconsistent())
    return std::nullopt;
  // Echelon with the avoided columns first, then Var, then the rest: the
  // row whose pivot is Var is zero on every avoided column, so it defines
  // Var over the rest.  (It is the Var-first echelon row of the projection
  // onto the unavoided columns.)
  std::vector<bool> Mask = Avoid;
  Mask.resize(NumVars, false);
  Mask[Var] = false;
  auto [Echelon, Pivots] = echelonMaskedFirst(Mask, Var);
  for (size_t R = 0; R < Pivots.size(); ++R)
    if (Pivots[R] == Var)
      return definitionOf(Echelon[R], Var);
  return std::nullopt;
}

template <typename F>
std::vector<std::pair<size_t, LinRow<F>>>
AffineSystem<F>::solveForMany(const std::vector<bool> &Targets) const {
  std::vector<std::pair<size_t, LinRow<F>>> Out;
  if (isInconsistent())
    return Out;
  // Echelon with target columns first: a row whose pivot is a target and
  // whose remaining target entries are all zero rewrites that target over
  // the non-target columns.  (Chains resolve automatically: pivot rows are
  // reduced against each other.)
  auto [Echelon, Pivots] = echelonMaskedFirst(Targets);
  for (size_t R = 0; R < Echelon.size(); ++R) {
    const LinRow<F> &Row = Echelon[R];
    size_t Pivot = Pivots[R];
    if (!Targets[Pivot])
      continue;
    bool Clean = true;
    for (size_t C = 0; C < NumVars && Clean; ++C)
      Clean = C == Pivot || !Targets[C] || Row[C].isZero();
    if (!Clean)
      continue;
    Out.emplace_back(Pivot, definitionOf(Row, Pivot));
  }
  return Out;
}

} // namespace cai

#endif // CAI_LINALG_AFFINESYSTEM_H
