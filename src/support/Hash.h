//===- support/Hash.h - Hash-combination helpers ----------------*- C++ -*-===//
///
/// \file
/// Small fingerprinting helpers shared by the memoization key types
/// (conjunction fingerprints, LP constraint-system fingerprints), and the
/// one FNV-1a accumulator behind the job and CFG fingerprints.  The
/// mixing constants are the usual Fibonacci / FNV ones; none of this is
/// cryptographic -- QueryCache stores keys in full and compares with
/// operator==, so the hash only buys bucketing.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_HASH_H
#define CAI_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace cai {

/// Mixes \p V into the running hash \p H (boost::hash_combine's recipe
/// widened to 64 bits).
inline uint64_t hashCombine(uint64_t H, uint64_t V) {
  return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

/// Folds a range of hashable elements (anything with a hash() member) into
/// one fingerprint.  Order-sensitive, so callers canonicalize first.
template <typename Iter> uint64_t hashRange(Iter First, Iter Last) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (; First != Last; ++First)
    H = hashCombine(H, First->hash());
  return H;
}

/// FNV-1a 64 over bytes, little-endian 64-bit words and strings.  A
/// string is its bytes, then its length as a word, so ("ab", "c") never
/// collides with ("a", "bc").  Job fingerprints (service/Fingerprint.h)
/// are wire bytes and persist keys, so this recipe must not change.
class Fnv1a {
public:
  /// The FNV-1a 64 offset basis.
  static constexpr uint64_t OffsetBasis = 0xcbf29ce484222325ull;

  explicit Fnv1a(uint64_t Seed = OffsetBasis) : H(Seed) {}

  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void word(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(V >> (I * 8)));
  }
  void bytes(const std::string &S) {
    for (unsigned char C : S)
      byte(C);
    word(S.size());
  }
  uint64_t value() const { return H; }

private:
  uint64_t H;
};

} // namespace cai

#endif // CAI_SUPPORT_HASH_H
