//===- domains/lists/ListDomain.h - The theory of lists ---------*- C++ -*-===//
///
/// \file
/// The logical lattice over the theory of lists (Section 2): signature
/// {car, cdr, cons, =} with the projection axioms car(cons(x, y)) = x and
/// cdr(cons(x, y)) = y.  (The partial extensionality axiom of Nelson-Oppen
/// lists is omitted to keep the theory convex and the closure Horn.)
///
/// Implementation: an EGraphDomain whose closure materializes car and cdr
/// over every cons node and runs the projection rules to fixpoint; join,
/// projection and the other operators are the base's.  Because a
/// LogicalProduct of disjoint convex theories is itself a logical lattice,
/// this domain lets products nest: (affine >< uf) >< lists is exercised by
/// the tests.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_LISTS_LISTDOMAIN_H
#define CAI_DOMAINS_LISTS_LISTDOMAIN_H

#include "domains/uf/EGraphDomain.h"

namespace cai {

/// The list (car/cdr/cons) domain.
class ListDomain : public EGraphDomain {
public:
  explicit ListDomain(TermContext &Ctx)
      : EGraphDomain(Ctx, "lists.join", /*HasRules=*/true),
        Car(Ctx.getFunction("car", 1)), Cdr(Ctx.getFunction("cdr", 1)),
        Cons(Ctx.getFunction("cons", 2)) {}

  std::string name() const override { return "lists"; }

  bool ownsFunction(Symbol S) const override {
    return S == Car || S == Cdr || S == Cons;
  }

  Symbol carSym() const { return Car; }
  Symbol cdrSym() const { return Cdr; }
  Symbol consSym() const { return Cons; }

private:
  void countJoin() const override;
  /// Adds car(c) and cdr(c) for every cons node c.
  void materialize(CongruenceClosure &CC) const override;
  /// The projection axioms.
  void applyRules(CongruenceClosure &CC) const override;

  Symbol Car, Cdr, Cons;
};

} // namespace cai

#endif // CAI_DOMAINS_LISTS_LISTDOMAIN_H
