// Structural content hashing for shareable solver artifacts.
//
// The scenario service (core::ArtifactCache) keys immutable artifacts — FV
// assemblies, skyline factorizations, compact models — by a hash of every
// input the artifact depends on. Hash-equality must imply that rebuilding
// the artifact would reproduce it bit-for-bit, so the hasher folds in the
// *exact* IEEE-754 bit pattern of every double (no rounding, no
// normalization: +0.0 and -0.0 hash differently, as they must — they can
// produce different downstream bits). Scalars and strings go through FNV-1a
// over their bytes; vectors (per-cell coefficient fields, CSR arrays) are
// hashed a 64-bit word at a time through a full-avalanche bijective mix,
// which is ~5x cheaper than eight byte steps per element on the 64^3 FV
// model. Both keep the hash stable across runs, platforms of the same
// endianness, and thread counts; it is a cache key, not a cryptographic
// digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "numeric/dense.hpp"

namespace aeropack::numeric {

class CsrMatrix;

/// Incremental 64-bit FNV-1a hasher. add() calls chain; insertion order is
/// part of the hash, so producers must feed fields in one fixed order.
class StructuralHasher {
 public:
  StructuralHasher& add(std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) byte(static_cast<unsigned char>(v >> s));
    return *this;
  }
  /// Exact bit pattern of the double (not its rounded value).
  StructuralHasher& add(double v);
  /// Length-prefixed so "ab"+"c" and "a"+"bc" hash differently.
  StructuralHasher& add(std::string_view s);
  /// Length-prefixed, then word-wise: four interleaved lanes each fold
  /// their elements through a bijective mix, and the lanes fold into the
  /// state in order. Because every step is a bijection of the running
  /// value, changing any single element (any bit of it) always changes the
  /// hash.
  StructuralHasher& add(const std::vector<double>& v);
  StructuralHasher& add(const std::vector<std::size_t>& v);

  std::uint64_t value() const { return state_; }

 private:
  template <typename T>
  StructuralHasher& add_words(const std::vector<T>& v);
  void byte(unsigned char b) {
    state_ = (state_ ^ b) * 1099511628211ull;  // FNV-1a prime
  }
  std::uint64_t state_ = 1469598103934665603ull;  // FNV offset basis
};

/// Hash of a CSR matrix: dimensions, structure and exact value bits.
std::uint64_t hash_csr(const CsrMatrix& a);

}  // namespace aeropack::numeric
