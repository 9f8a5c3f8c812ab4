//===- service/DomainFactory.h - --domain spec parsing ----------*- C++ -*-===//
///
/// \file
/// Builds a LogicalLattice tree from a `--domain` spec string, owning every
/// component so products outlive their children.  Factored out of
/// cai-analyze so the analysis service's workers (which build one isolated
/// domain instance per job) and every front-end share one grammar:
///
///   spec := affine | poly | uf | parity | sign | lists | arrays
///         | direct:<spec>,<spec> | reduced:<spec>,<spec>
///         | logical:<spec>,<spec> | '(' spec ')'
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_DOMAINFACTORY_H
#define CAI_SERVICE_DOMAINFACTORY_H

#include "theory/LogicalLattice.h"

#include <memory>
#include <string>
#include <vector>

namespace cai {

class ListDomain;

namespace service {

/// Owns every lattice built while parsing a --domain spec (components must
/// outlive the products referencing them).  One factory per analysis: the
/// built lattices carry memoization state and must not be shared across
/// threads.
class DomainFactory {
public:
  explicit DomainFactory(TermContext &Ctx);
  ~DomainFactory();

  /// Parses \p Spec in full.  Returns nullptr and sets error() on failure
  /// (including trailing input).  The returned lattice is owned by the
  /// factory.
  LogicalLattice *build(const std::string &Spec);

  /// Adds \p L to the owned set and returns it; used by callers stacking
  /// decorators (checkers, fault injection) on the built domain.
  LogicalLattice *keep(std::unique_ptr<LogicalLattice> L);

  const std::string &error() const { return Error; }

private:
  LogicalLattice *parse(const std::string &S, size_t &Pos);

  TermContext &Ctx;
  std::vector<std::unique_ptr<LogicalLattice>> Owned;
  /// Non-null once a lists domain participates: UF cedes car/cdr/cons so
  /// nested products dispatch them correctly.
  std::unique_ptr<ListDomain> ListsInstance;
  std::string Error;
};

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_DOMAINFACTORY_H
