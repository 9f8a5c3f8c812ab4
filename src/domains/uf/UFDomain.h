//===- domains/uf/UFDomain.h - Uninterpreted functions domain ---*- C++ -*-===//
///
/// \file
/// The logical lattice over the theory of uninterpreted functions /
/// Herbrand equivalences (the global-value-numbering domain of the paper's
/// examples).  Elements are conjunctions of equalities between terms built
/// from variables and uninterpreted function applications; the operators
/// are the E-graph ones of EGraphDomain over plain congruence closure.
///
/// By default the domain claims every non-arithmetic function symbol; an
/// exclusion list lets a nested product cede specific symbols (car, cdr,
/// cons) to another component.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_UF_UFDOMAIN_H
#define CAI_DOMAINS_UF_UFDOMAIN_H

#include "domains/uf/EGraphDomain.h"

#include <set>

namespace cai {

/// The uninterpreted-function (Herbrand equivalence) domain.
class UFDomain : public EGraphDomain {
public:
  /// \p ExcludedFunctions are function symbols this instance does NOT
  /// claim (so another lattice in a product can own them).
  /// \p WidenDepthCap is EGraphDomain's widening depth cap.
  explicit UFDomain(TermContext &Ctx, std::set<Symbol> ExcludedFunctions = {},
                    unsigned WidenDepthCap = 16)
      : EGraphDomain(Ctx, "uf.join", /*HasRules=*/false, WidenDepthCap),
        Excluded(std::move(ExcludedFunctions)) {}

  std::string name() const override { return "uf"; }

  bool ownsFunction(Symbol S) const override {
    if (context().info(S).Arithmetic)
      return false;
    return Excluded.count(S) == 0;
  }

private:
  void countJoin() const override;

  std::set<Symbol> Excluded;
};

} // namespace cai

#endif // CAI_DOMAINS_UF_UFDOMAIN_H
