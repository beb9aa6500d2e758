// StructuralHasher vector paths (numeric/hashing.hpp): the word-wise hash
// sees every element — any single bit of it, the sign bit included — and
// the length, and equal vectors hash equal.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "numeric/hashing.hpp"

namespace an = aeropack::numeric;

namespace {

template <typename T>
std::uint64_t hash_of(const std::vector<T>& v) {
  an::StructuralHasher h;
  h.add(std::string_view("prefix"));
  h.add(v);
  return h.value();
}

}  // namespace

TEST(StructuralHasher, VectorHashSeesEveryElementItsSignAndTheLength) {
  std::vector<double> v(37);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::cos(0.3 * static_cast<double>(i));
  v[5] = 0.0;
  const std::uint64_t base = hash_of(v);
  EXPECT_EQ(hash_of(std::vector<double>(v)), base);

  std::set<std::uint64_t> seen{base};
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::vector<double> w = v;
    w[i] = -w[i];  // only the sign bit (0.0 -> -0.0 at i = 5)
    EXPECT_TRUE(seen.insert(hash_of(w)).second) << "sign flip at " << i;
    w = v;
    w[i] = std::nextafter(w[i], 2.0);  // one ulp
    EXPECT_TRUE(seen.insert(hash_of(w)).second) << "ulp change at " << i;
  }
  std::vector<double> longer = v;
  longer.push_back(0.0);
  EXPECT_TRUE(seen.insert(hash_of(longer)).second);
  std::vector<double> shorter(v.begin(), v.end() - 1);
  EXPECT_TRUE(seen.insert(hash_of(shorter)).second);
  EXPECT_TRUE(seen.insert(hash_of(std::vector<double>{})).second);
}

TEST(StructuralHasher, IndexVectorHashSeesEveryElementAndTheLength) {
  std::vector<std::size_t> v(13);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 7 * i;
  const std::uint64_t base = hash_of(v);
  EXPECT_EQ(hash_of(std::vector<std::size_t>(v)), base);
  std::set<std::uint64_t> seen{base};
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::vector<std::size_t> w = v;
    w[i] ^= std::size_t{1} << 63;
    EXPECT_TRUE(seen.insert(hash_of(w)).second) << "top bit at " << i;
    w = v;
    w[i] += 1;
    EXPECT_TRUE(seen.insert(hash_of(w)).second) << "low bit at " << i;
  }
  std::vector<std::size_t> longer = v;
  longer.push_back(0);
  EXPECT_TRUE(seen.insert(hash_of(longer)).second);
  // Swapping two elements moves the hash: position is part of it.
  std::vector<std::size_t> swapped = v;
  std::swap(swapped[0], swapped[4]);
  EXPECT_TRUE(seen.insert(hash_of(swapped)).second);
}
