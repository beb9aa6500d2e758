// core::ArtifactCache — typed find/insert, capacity-bounded cost-aware
// eviction, lifetime stats and the concurrent get_or_build hammer the TSan
// CI job runs to certify the sharded reader-writer locking.
#include "core/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace ac = aeropack::core;

namespace {

struct Blob {
  std::vector<double> data;
  explicit Blob(std::size_t n = 4, double fill = 0.0) : data(n, fill) {}
};

TEST(ArtifactCache, FindMissesOnEmptyThenHitsAfterInsert) {
  ac::ArtifactCache cache;
  EXPECT_EQ(cache.find<Blob>(42), nullptr);
  cache.insert<Blob>(42, std::make_shared<const Blob>(8, 1.5), 64);
  const auto hit = cache.find<Blob>(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->data.size(), 8u);
  EXPECT_EQ(hit->data[0], 1.5);

  const ac::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 64u);
}

TEST(ArtifactCache, TypeMismatchIsAMissNotACast) {
  ac::ArtifactCache cache;
  cache.insert<Blob>(7, std::make_shared<const Blob>(), 16);
  EXPECT_EQ(cache.find<std::string>(7), nullptr);  // same key, wrong type
  EXPECT_NE(cache.find<Blob>(7), nullptr);
}

TEST(ArtifactCache, FirstWriterWinsOnDuplicateInsert) {
  ac::ArtifactCache cache;
  cache.insert<Blob>(1, std::make_shared<const Blob>(4, 1.0), 16);
  cache.insert<Blob>(1, std::make_shared<const Blob>(4, 2.0), 16);
  EXPECT_EQ(cache.find<Blob>(1)->data[0], 1.0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ArtifactCache, ZeroCapacityStoresNothing) {
  ac::ArtifactCacheOptions opts;
  opts.capacity_bytes = 0;
  ac::ArtifactCache cache(opts);
  cache.insert<Blob>(1, std::make_shared<const Blob>(), 16);
  cache.insert<Blob>(2, std::make_shared<const Blob>(), 0);  // zero cost still fits nowhere
  EXPECT_EQ(cache.find<Blob>(1), nullptr);
  EXPECT_EQ(cache.find<Blob>(2), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ArtifactCache, EvictsLowestUtilityWhenOverCapacity) {
  // One shard so the capacity bound is exact; room for two 100-byte
  // entries. The entry with hits survives, the cold one goes.
  ac::ArtifactCacheOptions opts;
  opts.shards = 1;
  opts.capacity_bytes = 200;
  ac::ArtifactCache cache(opts);
  cache.insert<Blob>(1, std::make_shared<const Blob>(), 100);
  cache.insert<Blob>(2, std::make_shared<const Blob>(), 100);
  // Heat up key 1 only.
  for (int i = 0; i < 5; ++i) EXPECT_NE(cache.find<Blob>(1), nullptr);
  cache.insert<Blob>(3, std::make_shared<const Blob>(), 100);

  EXPECT_NE(cache.find<Blob>(1), nullptr);  // hot: kept
  EXPECT_EQ(cache.find<Blob>(2), nullptr);  // cold: evicted
  EXPECT_NE(cache.find<Blob>(3), nullptr);  // new: inserted
  const ac::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 200u);
}

TEST(ArtifactCache, CostAwareEvictionPrefersDroppingCheapEntries) {
  // Both entries are cold (zero hits), so utility (1+hits)/cost reduces to
  // 1/cost: the large entry (1/190) ranks below the small one (1/10) and is
  // evicted first — one big eviction frees the needed room.
  ac::ArtifactCacheOptions opts;
  opts.shards = 1;
  opts.capacity_bytes = 200;
  ac::ArtifactCache cache(opts);
  cache.insert<Blob>(1, std::make_shared<const Blob>(), 10);    // cheap
  cache.insert<Blob>(2, std::make_shared<const Blob>(), 190);   // dear, cold
  cache.insert<Blob>(3, std::make_shared<const Blob>(), 100);   // forces eviction
  EXPECT_NE(cache.find<Blob>(1), nullptr);
  EXPECT_EQ(cache.find<Blob>(2), nullptr);
  EXPECT_NE(cache.find<Blob>(3), nullptr);
}

TEST(ArtifactCache, OversizedArtifactIsDroppedNotInserted) {
  ac::ArtifactCacheOptions opts;
  opts.shards = 1;
  opts.capacity_bytes = 100;
  ac::ArtifactCache cache(opts);
  cache.insert<Blob>(1, std::make_shared<const Blob>(), 1000);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCache, GetOrBuildBuildsOnceThenServesHits) {
  ac::ArtifactCache cache;
  std::atomic<int> builds{0};
  const auto build = [&] {
    builds.fetch_add(1);
    return std::make_shared<const Blob>(4, 9.0);
  };
  const auto cost = [](const Blob&) { return std::size_t{32}; };
  const auto a = cache.get_or_build<Blob>(5, build, cost);
  const auto b = cache.get_or_build<Blob>(5, build, cost);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(a.get(), b.get());  // the second call served the cached object
}

// The TSan target: many threads hammering overlapping keys through
// get_or_build while others evict by inserting. Any locking mistake in the
// sharded reader-writer scheme shows up here as a data race.
TEST(ArtifactCache, ConcurrentGetOrBuildIsRaceFree) {
  ac::ArtifactCacheOptions opts;
  opts.shards = 4;
  opts.capacity_bytes = 1 << 16;
  ac::ArtifactCache cache(opts);
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>((t + i) % 16);
        const auto blob = cache.get_or_build<Blob>(
            key, [&] { return std::make_shared<const Blob>(16, static_cast<double>(key)); },
            [](const Blob& b) { return b.data.size() * sizeof(double); });
        ASSERT_NE(blob, nullptr);
        // Deterministic-build contract: whichever thread built it, the
        // value under a key is always the same.
        ASSERT_EQ(blob->data[0], static_cast<double>(key));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ac::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_GT(s.hits, 0u);
}

}  // namespace
