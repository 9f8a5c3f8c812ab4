//===- domains/poly/LPCache.h - Memoized simplex queries --------*- C++ -*-===//
///
/// \file
/// A per-PolyDomain-instance cache of LP solves, mirroring for the simplex
/// what QueryCache does for LogicalLattice operations: the fixpoint engine
/// rebuilds the same polyhedra at every iteration, so the emptiness,
/// entailment and redundancy-elimination call sites in Polyhedron.cpp keep
/// re-solving near-identical LPs.  The key is the canonical form of the
/// query -- rows sorted lexicographically (addLe already normalizes each
/// row to integral coefficients with gcd 1) plus the objective -- so any
/// permutation of the same constraint system hits the same entry.  Keys
/// are stored in full and compared exactly; the fingerprint only buckets.
///
/// The cache is installed for the dynamic extent of one domain operation
/// through the RAII Scope (the same install discipline as obs::Tracer):
/// Polyhedron and Simplex stay free of domain back-references, and nested
/// products with several PolyDomain instances each see their own cache.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_POLY_LPCACHE_H
#define CAI_DOMAINS_POLY_LPCACHE_H

#include "domains/poly/Simplex.h"
#include "support/QueryCache.h"

#include <vector>

namespace cai {

/// Strict lexicographic order on rows (coefficients, then rhs): the sort
/// key behind both the canonical LP fingerprint and the parallel-row
/// dedupe in Fourier-Motzkin projection.
bool rowLexLess(const LinearConstraint &A, const LinearConstraint &B);

/// Rows sorted into canonical key order.
std::vector<LinearConstraint> canonicalRows(std::vector<LinearConstraint> Rows);

/// One memoizable LP query: a canonical (sorted) constraint system plus
/// the objective row.
struct LPKey {
  std::vector<LinearConstraint> Rows;
  CoeffVec Objective;

  bool operator==(const LPKey &RHS) const {
    return Objective == RHS.Objective && Rows == RHS.Rows;
  }

  /// Fingerprint over the sorted rows and the objective.
  uint64_t fingerprint() const;
};

struct LPKeyHash {
  size_t operator()(const LPKey &K) const {
    return static_cast<size_t>(K.fingerprint());
  }
};

/// The LP memo cache.  cai::maximize and SimplexSolver consult the
/// installed instance; PolyDomain owns one per domain instance and
/// installs it (memoization permitting) for each lattice operation.
class SimplexCache {
public:
  explicit SimplexCache(size_t Capacity = 1 << 12) : Cache(Capacity) {}

  const LPResult *lookup(const LPKey &K) { return Cache.lookup(K); }
  void insert(const LPKey &K, LPResult R) { Cache.insert(K, std::move(R)); }
  const QueryCacheCounters &counters() const { return Cache.counters(); }

  /// The cache consulted by the simplex entry points, or nullptr when LP
  /// memoization is off (the --no-memo path).
  static SimplexCache *active();

  /// Installs \p C for the lifetime of the scope and restores the previous
  /// cache on destruction.  Installing nullptr explicitly disables LP
  /// memoization within the scope (a memoization-off domain must not feed
  /// an enclosing instance's cache).
  class Scope {
  public:
    explicit Scope(SimplexCache *C);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SimplexCache *Prev;
  };

private:
  QueryCache<LPKey, LPResult, LPKeyHash> Cache;
};

} // namespace cai

#endif // CAI_DOMAINS_POLY_LPCACHE_H
