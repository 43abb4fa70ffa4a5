#include "serving/result_cache.h"

#include <algorithm>

namespace d3l::serving {

namespace {
/// Per-node overhead of an unordered_map / list entry (two pointers, hash,
/// allocator rounding) — a deliberate estimate, not an ABI promise.
constexpr size_t kNodeOverhead = 48;
}  // namespace

size_t ApproxResultBytes(const core::SearchResult& result) {
  size_t bytes = sizeof(core::SearchResult);
  for (const core::TableMatch& m : result.ranked) {
    bytes += sizeof(core::TableMatch) + m.pairs.size() * sizeof(core::PairDistances);
  }
  for (const auto& [table, aligns] : result.candidate_alignments) {
    (void)table;
    bytes += kNodeOverhead + aligns.size() * sizeof(std::pair<uint32_t, uint32_t>);
  }
  for (const core::AttributeProfile& p : result.target_profiles) {
    bytes += p.MemoryUsage();
  }
  for (const core::AttributeSignatures& s : result.target_sigs) {
    bytes += sizeof(core::AttributeSignatures);
    bytes += (s.name_sig.size() + s.value_sig.size() + s.format_sig.size() +
              s.emb_sig.words.size()) *
             sizeof(uint64_t);
  }
  return bytes;
}

ResultCache::ResultCache(size_t capacity, size_t num_shards, size_t max_bytes,
                         obs::MetricRegistry* registry)
    : capacity_(capacity),
      max_bytes_(max_bytes),
      shards_(std::max<size_t>(1, std::min(num_shards, std::max<size_t>(1, capacity)))) {
  obs::MetricRegistry& reg =
      registry ? *registry : obs::MetricRegistry::Default();
  hits_ = reg.AddCounter("d3l_result_cache_hits_total", {},
                         "Probes answered by a cached result");
  misses_ = reg.AddCounter("d3l_result_cache_misses_total", {},
                           "Probes that found nothing cached");
  insertions_ = reg.AddCounter("d3l_result_cache_insertions_total", {},
                               "Inserts including refreshes of existing keys");
  evictions_ = reg.AddCounter("d3l_result_cache_evictions_total", {},
                              "Entries evicted by the LRU budgets");
  entries_gauge_ = reg.AddGauge("d3l_result_cache_entries", {},
                                "Currently cached entries");
  bytes_gauge_ = reg.AddGauge("d3l_result_cache_bytes", {},
                              "Accounted bytes currently cached");
  // Distribute the budgets as evenly as possible; the first
  // `capacity % shards` shards take the remainder.
  const size_t base = capacity_ / shards_.size();
  size_t remainder = capacity_ % shards_.size();
  const size_t byte_base = max_bytes_ / shards_.size();
  size_t byte_remainder = max_bytes_ % shards_.size();
  for (Shard& shard : shards_) {
    shard.capacity = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    if (max_bytes_ > 0) {
      shard.byte_budget = byte_base + (byte_remainder > 0 ? 1 : 0);
      if (byte_remainder > 0) --byte_remainder;
      // A rounding-starved shard must still admit entries (the >= 1-entry
      // guarantee works in entries, not bytes).
      shard.byte_budget = std::max<size_t>(1, shard.byte_budget);
    }
  }
}

CacheLookup ResultCache::Lookup(const CacheKey& key, core::SearchResult* out) {
  if (capacity_ == 0) return CacheLookup::kMiss;
  Shard& shard = ShardFor(key);
  std::shared_ptr<const core::SearchResult> result;
  {
    MutexLock lk(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_->Increment();
      return CacheLookup::kMiss;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_->Increment();
    result = it->second->result;
  }
  // Deep copy outside the lock: concurrent hits on this shard only
  // serialize on the pointer grab above, not on copying whole results.
  // (The shared_ptr keeps the entry's bytes alive even if it is evicted
  // or refreshed between unlock and copy.)
  *out = *result;
  return CacheLookup::kHit;
}

void ResultCache::Insert(const CacheKey& key, core::SearchResult result) {
  if (capacity_ == 0) return;
  const size_t bytes = ApproxResultBytes(result);
  auto shared = std::make_shared<const core::SearchResult>(std::move(result));
  Shard& shard = ShardFor(key);
  MutexLock lk(shard.mu);
  insertions_->Increment();  // refreshes count too: one per Insert call
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh: identical key means identical outcome, but overwrite anyway
    // so a refresh behaves like an insert (and bump recency).
    shard.bytes_used -= it->second->bytes;
    bytes_gauge_->Add(-static_cast<int64_t>(it->second->bytes));
    it->second->result = std::move(shared);
    it->second->bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(shared), bytes});
    shard.index.emplace(key, shard.lru.begin());
    entries_gauge_->Add(1);
  }
  shard.bytes_used += bytes;
  bytes_gauge_->Add(static_cast<int64_t>(bytes));
  // Trim to both budgets, never evicting the entry just admitted: a single
  // result larger than the whole byte slice still caches (and serves
  // repeats) as its shard's only entry.
  while (shard.lru.size() > 1 &&
         (shard.lru.size() > shard.capacity ||
          (shard.byte_budget > 0 && shard.bytes_used > shard.byte_budget))) {
    const Entry& victim = shard.lru.back();
    shard.bytes_used -= victim.bytes;
    bytes_gauge_->Add(-static_cast<int64_t>(victim.bytes));
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    entries_gauge_->Add(-1);
    evictions_->Increment();
  }
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    entries_gauge_->Add(-static_cast<int64_t>(shard.lru.size()));
    bytes_gauge_->Add(-static_cast<int64_t>(shard.bytes_used));
    shard.lru.clear();
    shard.index.clear();
    shard.bytes_used = 0;
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  // A read of this cache's OWN instruments (other caches in the process
  // feed separate instrument instances even when the exported series
  // merge), so the struct stays exact per cache.
  Stats stats;
  stats.capacity = capacity_;
  stats.max_bytes = max_bytes_;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.insertions = insertions_->Value();
  stats.evictions = evictions_->Value();
  stats.entries = static_cast<size_t>(entries_gauge_->Value());
  stats.bytes = static_cast<size_t>(bytes_gauge_->Value());
  return stats;
}

}  // namespace d3l::serving
