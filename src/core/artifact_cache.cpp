#include "core/artifact_cache.hpp"

#include <algorithm>
#include <mutex>

#include "obs/registry.hpp"

namespace aeropack::core {

namespace {

// Counters land in whichever registry the calling thread has bound (each
// scenario worker binds its context's registry via ExecutionContext::Use),
// so per-scenario reports see per-scenario cache traffic.
void bump(const char* name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::current().counter(name).add(n);
}

}  // namespace

ArtifactCache::ArtifactCache(const ArtifactCacheOptions& options) : options_(options) {
  const std::size_t n = std::max<std::size_t>(1, options_.shards);
  options_.shards = n;
  shard_capacity_ = options_.capacity_bytes / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

ArtifactCache::~ArtifactCache() = default;

ArtifactCache::Shard& ArtifactCache::shard_for(std::uint64_t key) {
  // The low bits of an FNV hash are well mixed; fold high into low anyway
  // so pathological keys still spread.
  const std::uint64_t folded = key ^ (key >> 32);
  return *shards_[folded % shards_.size()];
}

std::shared_ptr<const void> ArtifactCache::find_erased(std::uint64_t key,
                                                       const std::type_info& type) {
  Shard& shard = shard_for(key);
  {
    std::shared_lock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end() && *it->second->type == type) {
      Entry& e = *it->second;
      e.hits.fetch_add(1, std::memory_order_relaxed);
      e.last_access.store(tick_.fetch_add(1, std::memory_order_relaxed),
                          std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      bump("svc.cache.hits");
      return e.value;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  bump("svc.cache.misses");
  return nullptr;
}

void ArtifactCache::insert_erased(std::uint64_t key, std::shared_ptr<const void> value,
                                  const std::type_info& type, std::size_t cost_bytes) {
  // A zero-capacity shard stores nothing, not even a zero-cost artifact.
  if (!value || shard_capacity_ == 0 || cost_bytes > shard_capacity_) return;
  Shard& shard = shard_for(key);
  std::unique_lock lock(shard.mutex);
  if (shard.entries.count(key)) return;  // first writer wins
  if (shard.bytes + cost_bytes > shard_capacity_)
    evict_locked(shard, shard_capacity_ - cost_bytes);
  auto entry = std::make_unique<Entry>();
  entry->value = std::move(value);
  entry->type = &type;
  entry->cost_bytes = cost_bytes;
  entry->last_access.store(tick_.fetch_add(1, std::memory_order_relaxed),
                           std::memory_order_relaxed);
  shard.bytes += cost_bytes;
  shard.entries.emplace(key, std::move(entry));
  insertions_.fetch_add(1, std::memory_order_relaxed);
  bump("svc.cache.insertions");
}

void ArtifactCache::evict_locked(Shard& shard, std::size_t budget) {
  // Cost-aware LFU: drop lowest (1 + hits) / cost first — cheap-to-rebuild
  // or rarely-reused entries go before hot expensive factorizations. Ties
  // (same utility) drop the least recently touched entry.
  struct Victim {
    std::uint64_t key;
    double utility;
    std::uint64_t last_access;
  };
  std::vector<Victim> order;
  order.reserve(shard.entries.size());
  for (const auto& [key, entry] : shard.entries) {
    const double cost = static_cast<double>(std::max<std::size_t>(1, entry->cost_bytes));
    const double utility =
        (1.0 + static_cast<double>(entry->hits.load(std::memory_order_relaxed))) / cost;
    order.push_back({key, utility, entry->last_access.load(std::memory_order_relaxed)});
  }
  std::sort(order.begin(), order.end(), [](const Victim& a, const Victim& b) {
    if (a.utility != b.utility) return a.utility < b.utility;
    return a.last_access < b.last_access;
  });
  for (const Victim& v : order) {
    if (shard.bytes <= budget) break;
    auto it = shard.entries.find(v.key);
    shard.bytes -= it->second->cost_bytes;
    shard.entries.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    bump("svc.cache.evictions");
  }
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    s.entries += shard->entries.size();
    s.bytes += shard->bytes;
  }
  return s;
}

}  // namespace aeropack::core
