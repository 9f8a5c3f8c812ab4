//===- encodings/Encodings.h - Section 5 domain reductions ------*- C++ -*-===//
///
/// \file
/// The term transformations of Section 5, which reduce richer lattices to
/// the logical product of linear arithmetic and a single unary
/// uninterpreted function F:
///
///  * Commutative functions (5.1):
///       M(G_i(t1, t2)) = F(i + M(t1) + M(t2))
///    The sum makes the encoding invariant under argument swap, so
///    commutativity becomes a theorem of the target theory; injectivity of
///    the index i keeps distinct G_i apart (Claim 2).
///
///  * Arity reduction (5.2):
///       M(G_i^a(t1, ..., ta)) = F(i + 2^1 M(t1) + ... + 2^a M(ta))
///    with indices spaced so that distinct symbols cannot collide.
///
/// A program transformer rewrites every assignment, assumption and
/// assertion so a program over the richer signature can be analyzed with
/// the stock affine >< uf product.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_ENCODINGS_ENCODINGS_H
#define CAI_ENCODINGS_ENCODINGS_H

#include "ir/Program.h"

#include <map>

namespace cai {

/// Rewrites terms over user function symbols into terms over one unary
/// uninterpreted function plus linear arithmetic.
class TermEncoder {
public:
  enum class Scheme : uint8_t {
    Commutative,    ///< Section 5.1; binary symbols only.
    ArityReduction, ///< Section 5.2; any arity.
  };

  TermEncoder(TermContext &Ctx, Scheme S,
              const std::string &TargetFunction = "$enc")
      : Ctx(Ctx), S(S), F(Ctx.getFunction(TargetFunction, 1)) {}

  /// The single unary function all encodings target.
  Symbol target() const { return F; }

  /// The index assigned to \p G (assigned deterministically on first use).
  int64_t indexOf(Symbol G);

  /// M(T).  Arithmetic structure passes through unchanged; applications of
  /// non-arithmetic symbols are encoded.  Throws std::invalid_argument on
  /// arity 0 or, for the commutative scheme, arity != 2.
  Term encode(Term T);

  Atom encode(const Atom &A);
  Conjunction encode(const Conjunction &E);

  /// Rewrites every action and assertion of \p P.
  Program encode(const Program &P);

private:
  TermContext &Ctx;
  Scheme S;
  Symbol F;
  std::map<Symbol, int64_t> Indices;
  int64_t NextIndex = 1;
};

} // namespace cai

#endif // CAI_ENCODINGS_ENCODINGS_H
