//===- term/TermMap.h - Flat table keyed by hash-consed terms ---*- C++ -*-===//
///
/// \file
/// An open-addressing table from hash-consed terms to small values: the
/// per-call tables of the lattice operators (a congruence closure's node
/// index, a column space, a purifier's alien names, a union-find, a
/// variable seen-set).  Hash-consing makes pointer equality term equality,
/// so the pointer key answers every lookup exactly as a structurally
/// ordered map would; and the table cannot be iterated, so no caller can
/// come to depend on its layout.
///
/// One power-of-two slot vector at load at most 1/2, probed linearly from
/// a multiplicative hash of the term's creation id.  Entries cost no
/// allocation of their own, so a copy is one vector copy.  There is no
/// erase.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_TERMMAP_H
#define CAI_TERM_TERMMAP_H

#include "term/Term.h"

#include <cassert>
#include <utility>
#include <vector>

namespace cai {

/// A map from terms to values of \p V (default-constructible).
template <typename V> class TermMap {
public:
  /// The value stored for \p K, or null.  Valid until the next insert.
  const V *find(Term K) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = slotOf(K);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I].Key == K)
        return &Slots[I].Value;
      if (!Slots[I].Key)
        return nullptr;
    }
  }
  V *find(Term K) { return const_cast<V *>(std::as_const(*this).find(K)); }

  /// Stores \p Value for \p K unless K has a value already.  Returns K's
  /// value, valid until the next insert, and whether it was inserted.
  std::pair<V *, bool> insert(Term K, V Value) {
    assert(K && "null key");
    if (V *Old = find(K))
      return {Old, false};
    if (2 * (Count + 1) > Slots.size())
      rehash(Slots.empty() ? 16 : 2 * Slots.size());
    Slot &S = Slots[freeSlotOf(K)];
    S.Key = K;
    S.Value = std::move(Value);
    ++Count;
    return {&S.Value, true};
  }

  size_t size() const { return Count; }

  /// Makes room for \p N entries without further growth.
  void reserve(size_t N) {
    if (2 * N <= Slots.size())
      return;
    size_t Size = 16;
    while (Size < 2 * N)
      Size *= 2;
    rehash(Size);
  }

private:
  struct Slot {
    Term Key = nullptr;
    V Value{};
  };

  /// Fibonacci hashing: one context's creation ids are dense, and the
  /// multiplier's high bits spread consecutive ids over the table.
  size_t slotOf(Term K) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(K->id()) * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  /// The first empty slot on \p K's probe path.
  size_t freeSlotOf(Term K) const {
    size_t I = slotOf(K);
    while (Slots[I].Key)
      I = (I + 1) & (Slots.size() - 1);
    return I;
  }

  /// Moves the entries into \p Size (a power of two) slots.
  void rehash(size_t Size) {
    std::vector<Slot> Old(Size);
    Old.swap(Slots);
    Shift = 64;
    for (size_t N = Slots.size(); N > 1; N /= 2)
      --Shift;
    for (Slot &S : Old)
      if (S.Key)
        Slots[freeSlotOf(S.Key)] = std::move(S);
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size()).
};

} // namespace cai

#endif // CAI_TERM_TERMMAP_H
