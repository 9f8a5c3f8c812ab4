//===- support/CanonList.h - Recently built structured forms ----*- C++ -*-===//
///
/// \file
/// The last few structured forms a domain built, most recently used first.
/// The logical product asks unsat, VE, Alternate, entailment, Q and J of
/// the same purified sides in turn, so a domain that keeps the form (column
/// space, canonical system) it built for each side builds it once.  A
/// form's key is stored in full and compared on lookup; its fingerprint
/// only filters.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_CANONLIST_H
#define CAI_SUPPORT_CANONLIST_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

namespace cai {

/// Up to \p Slots forms; FormT has a member Key, the input it was built
/// from, whose type has fingerprint() and operator!=.
template <typename FormT, size_t Slots = 8> class CanonList {
public:
  /// The kept form built from \p Key, moved to the front; null if none is.
  template <typename KeyT>
  std::shared_ptr<const FormT> lookup(const KeyT &Key) {
    const uint64_t Fp = Key.fingerprint();
    for (size_t I = 0; I < Slots && Recent[I]; ++I) {
      if (Recent[I]->Key.fingerprint() != Fp || Recent[I]->Key != Key)
        continue;
      std::rotate(Recent.begin(), Recent.begin() + I, Recent.begin() + I + 1);
      return Recent[0];
    }
    return nullptr;
  }

  /// Keeps \p Form, built from \p Key, at the front; the least recently
  /// used form leaves.
  template <typename KeyT>
  void insert(const KeyT &Key, std::shared_ptr<FormT> Form) {
    Form->Key = Key;
    std::rotate(Recent.rbegin(), Recent.rbegin() + 1, Recent.rend());
    Recent[0] = std::move(Form);
  }

private:
  std::array<std::shared_ptr<const FormT>, Slots> Recent;
};

} // namespace cai

#endif // CAI_SUPPORT_CANONLIST_H
