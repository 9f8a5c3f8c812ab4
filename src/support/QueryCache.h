//===- support/QueryCache.h - Bounded memoization cache ---------*- C++ -*-===//
///
/// \file
/// A bounded map from query keys to previously computed results, used to
/// memoize the operations one analysis repeats across fixpoint iterations:
/// the analyzer's joins and edge transfers, a product's purification +
/// Nelson-Oppen saturation and each lattice's implied variable equalities.
/// Keys are stored in full and compared with operator== on lookup, so hash
/// collisions can never produce a wrong answer -- the fingerprint only
/// buys O(1) bucketing.
///
/// Eviction is epoch-based: when the cache reaches its capacity it is
/// flushed wholesale.  That is deliberately simpler than LRU -- the access
/// pattern of a fixpoint engine is strongly phase-local (the same handful
/// of states is queried until the node stabilizes, then never again), so a
/// periodic flush loses little and costs no per-hit bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_QUERYCACHE_H
#define CAI_SUPPORT_QUERYCACHE_H

#include <cstddef>
#include <unordered_map>
#include <utility>

namespace cai {

/// Hit/miss counters of one cache, aggregated into LatticeStats.
struct QueryCacheCounters {
  unsigned long Hits = 0;
  unsigned long Misses = 0;
};

/// A bounded memoization cache.  Not thread-safe (one analysis runs on one
/// thread; sharding across threads gets a cache per shard).
template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class QueryCache {
public:
  explicit QueryCache(size_t Capacity = 1 << 14) : Capacity(Capacity) {}

  /// Returns the cached value for \p K, or nullptr on a miss.  The pointer
  /// is invalidated by the next insert (which may flush), so callers copy
  /// or use the value before inserting anything.
  const Value *lookup(const Key &K) {
    auto It = Map.find(K);
    if (It == Map.end()) {
      ++Counters.Misses;
      return nullptr;
    }
    ++Counters.Hits;
    return &It->second;
  }

  /// Records \p V as the result for \p K.  Flushes first when full.
  void insert(const Key &K, Value V) {
    if (Map.size() >= Capacity)
      Map.clear();
    Map.emplace(K, std::move(V));
  }

  const QueryCacheCounters &counters() const { return Counters; }

private:
  size_t Capacity;
  QueryCacheCounters Counters;
  std::unordered_map<Key, Value, Hasher> Map;
};

} // namespace cai

#endif // CAI_SUPPORT_QUERYCACHE_H
