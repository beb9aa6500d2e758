#include "numeric/hashing.hpp"

#include <cstring>

#include "numeric/sparse.hpp"

namespace aeropack::numeric {

StructuralHasher& StructuralHasher::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return add(bits);
}

StructuralHasher& StructuralHasher::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<unsigned char>(c));
  return *this;
}

namespace {

/// splitmix64 finalizer: a full-avalanche bijection of 64-bit words.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename T>
std::uint64_t word(const T& v) {
  static_assert(sizeof(T) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

template <typename T>
StructuralHasher& StructuralHasher::add_words(const std::vector<T>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  // Four independent lanes keep the multipliers busy; each starts from a
  // distinct offset of the current state so equal words in different lanes
  // mix differently.
  std::uint64_t lane[4];
  for (std::size_t l = 0; l < 4; ++l) lane[l] = state_ + 0x9e3779b97f4a7c15ull * (l + 1);
  const std::size_t n = v.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t l = 0; l < 4; ++l) lane[l] = mix(lane[l] ^ word(v[i + l]));
  for (std::size_t l = 0; i < n; ++i, ++l) lane[l] = mix(lane[l] ^ word(v[i]));
  for (const std::uint64_t h : lane) state_ = mix(state_ ^ h);
  return *this;
}

StructuralHasher& StructuralHasher::add(const std::vector<double>& v) { return add_words(v); }

StructuralHasher& StructuralHasher::add(const std::vector<std::size_t>& v) {
  return add_words(v);
}

std::uint64_t hash_csr(const CsrMatrix& a) {
  StructuralHasher h;
  h.add(static_cast<std::uint64_t>(a.rows())).add(static_cast<std::uint64_t>(a.cols()));
  h.add(a.row_ptr()).add(a.col_idx()).add(a.values());
  return h.value();
}

}  // namespace aeropack::numeric
