//===- domains/affine/EqualityKit.h - Affine equality operators -*- C++ -*-===//
///
/// \file
/// The operator pieces the linear domains share: each holds an affine
/// equality system over a column space and answers VE_T, Alternate_T and
/// existential quantification's column selection from it.  Karr's domain
/// keeps that system directly, the polyhedra domain derives it as its
/// affine hull, and the parity domain keeps it beside its GF(2) layer.
/// This header also renders their rows back into terms and atoms.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_AFFINE_EQUALITYKIT_H
#define CAI_DOMAINS_AFFINE_EQUALITYKIT_H

#include "linalg/AffineSystem.h"
#include "term/Atom.h"
#include "term/ColumnSpace.h"
#include "term/LinearExpr.h"

#include <optional>

namespace cai {

/// Marks each of \p Columns whose term mentions one of \p Vars: the
/// variable columns themselves and every opaque column containing one.
std::vector<bool> columnsMentioning(const std::vector<Term> &Columns,
                                    const std::vector<Term> &Vars);

/// Adds the coefficients of \p Lhs - \p Rhs into \p Coeffs, at the
/// columns of \p Space: a row's coefficient part, which the caller sized
/// and zeroed.  The equation Lhs = Rhs then reads Coeffs . x = the
/// returned Rhs.constant() - Lhs.constant().  Sets \p Outside when a term
/// outside \p Space keeps a non-zero coefficient once the sides cancel.
Rational addDifference(const LinearExpr &Lhs, const LinearExpr &Rhs,
                       const ColumnSpace &Space, Rational *Coeffs,
                       bool &Outside);

/// The equation Lhs = Rhs as a row over \p Space: the coefficients of
/// Lhs - Rhs, then the constant (addDifference).
LinRow<Rational> equationRow(const LinearExpr &Lhs, const LinearExpr &Rhs,
                             const ColumnSpace &Space, bool &Outside);

/// The non-zero entries of the coefficients \p Coeffs over \p Columns as
/// (column term, coefficient) pairs, in the structural order of the
/// column terms.
SmallVec<TermCoeff, 8> rowEntries(const Rational *Coeffs,
                                  const std::vector<Term> &Columns);

/// A definition row (coefficients over \p Columns, then the constant) as
/// a term.
Term rowTerm(TermContext &Ctx, const LinRow<Rational> &Row,
             const std::vector<Term> &Columns);

/// The equality Coeffs . x = Rhs, scaled to integral coefficients with a
/// normalized sign (integralScale of Coeffs . x - Rhs), so both halves of
/// an equality pair render as the same atom.
Atom eqAtom(TermContext &Ctx, const Rational *Coeffs, const Rational &Rhs,
            const std::vector<Term> &Columns);

/// The inequality Coeffs . x <= Rhs, unscaled.
Atom leAtom(TermContext &Ctx, const Rational *Coeffs, const Rational &Rhs,
            const std::vector<Term> &Columns);

/// VE_T of the consistent system \p Sys: each variable column equal to an
/// earlier variable column, in ascending order, paired with the first
/// variable column of its class.
std::vector<std::pair<Term, Term>>
varEqualities(const AffineSystem<Rational> &Sys,
              const std::vector<Term> &Columns);

/// Alternate_T: a definition of \p Var over the columns that mention
/// neither Var nor a variable of \p Avoid.  \p System returns the
/// element's equality system, or null when the element is empty; it is
/// called only once \p Var is known to be a column, so a domain that
/// derives the system lazily pays nothing otherwise.
template <typename SystemFn>
std::optional<Term> alternateIn(TermContext &Ctx, const ColumnSpace &Cols,
                                Term Var, const std::vector<Term> &Avoid,
                                SystemFn &&System) {
  const size_t *VarCol = Cols.Index.find(Var);
  if (!VarCol)
    return std::nullopt;
  const size_t Col = *VarCol;
  const AffineSystem<Rational> *Sys = System();
  if (!Sys)
    return std::nullopt;
  std::vector<Term> Forbidden = Avoid;
  Forbidden.push_back(Var);
  std::vector<bool> Mask = columnsMentioning(Cols.Columns, Forbidden);
  Mask[Col] = false; // The column solved for.
  std::optional<LinRow<Rational>> Row = Sys->solveFor(Col, Mask);
  if (!Row)
    return std::nullopt;
  return rowTerm(Ctx, *Row, Cols.Columns);
}

/// Batched Alternate_T: definitions of as many \p Targets as one
/// elimination finds, each over the columns that mention no target.
/// \p System is as for alternateIn, and is called only when some target
/// is a column.
template <typename SystemFn>
std::vector<std::pair<Term, Term>>
alternateBatchIn(TermContext &Ctx, const std::vector<Term> &Columns,
                 const std::vector<Term> &Targets, SystemFn &&System) {
  std::vector<std::pair<Term, Term>> Out;
  // Target columns: the target variables themselves plus every opaque
  // column whose term mentions one (those may not appear in definitions).
  std::vector<bool> Mask = columnsMentioning(Columns, Targets);
  bool AnyTarget = false;
  for (size_t Col = 0; Col < Columns.size(); ++Col)
    AnyTarget |= Mask[Col] && Columns[Col]->isVariable();
  if (!AnyTarget)
    return Out;
  const AffineSystem<Rational> *Sys = System();
  if (!Sys)
    return Out;
  for (auto &[Col, Row] : Sys->solveForMany(Mask)) {
    if (!Columns[Col]->isVariable())
      continue; // Opaque columns are not QSaturation targets.
    Out.emplace_back(Columns[Col], rowTerm(Ctx, Row, Columns));
  }
  return Out;
}

} // namespace cai

#endif // CAI_DOMAINS_AFFINE_EQUALITYKIT_H
