// A sharded LRU cache of SearchResults, keyed by 128-bit query
// fingerprints — the "repeated queries skip profiling and retrieval" layer
// of DiscoveryService.
//
// Keys are two independent 64-bit digests of the same query (backend
// identity + options fingerprint + the target table's name, column names
// and cells + k + evidence mask; see discovery_service.h), making an
// accidental collision between distinct queries vanishingly unlikely
// (~2^-128 per pair) while keeping the stored entries small. The cache is
// split into independently locked shards selected by key bits, so
// concurrent Submit() storms contend only when they hash to the same
// shard. Each shard runs exact LRU over its own capacity slice.
//
// Eviction is bounded two ways: an entry-count capacity and an optional
// byte budget over the (approximate) deep size of the cached results —
// a few huge SearchResults can no longer blow past the memory the
// operator provisioned. Each shard always retains at least the entry it
// just admitted, so a single oversized result still serves repeats.
//
// Hits return deep copies: a cached SearchResult is byte-identical to the
// result a fresh retrieval would produce (asserted by tests/service_test.cc)
// and the cache never hands out references into mutable internal state.
// Every entry is a whole result, including an empty ranking: it carries
// the target's profiles and signatures like any other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/query.h"
#include "obs/metrics.h"

namespace d3l::serving {

/// \brief 128-bit cache key: two independently seeded digests of the query.
struct CacheKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const CacheKey&) const = default;
};

/// \brief Approximate deep size of a SearchResult (ranked matches, pair
/// rows, candidate alignments, target profiles and signatures) — the unit
/// the cache's byte budget is accounted in.
size_t ApproxResultBytes(const core::SearchResult& result);

/// \brief What a cache probe found.
enum class CacheLookup {
  kMiss,  ///< nothing cached for this key
  kHit,   ///< the cached result was copied out
};

/// \brief Sharded LRU map from CacheKey to SearchResult.
class ResultCache {
 public:
  /// Point-in-time counters (monotone except `entries`/`bytes`). A thin
  /// view over the cache's registry instruments — GetStats() reads the same
  /// series a STAT scrape exports, there is no second bookkeeping to drift.
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t insertions = 0;
    size_t evictions = 0;
    size_t entries = 0;    ///< currently cached results
    size_t capacity = 0;   ///< entry budget across shards
    size_t bytes = 0;      ///< accounted bytes currently cached
    size_t max_bytes = 0;  ///< byte budget (0 = unbounded)
  };

  /// A cache holding at most `capacity` results across `num_shards`
  /// independently locked shards (each gets an equal slice, at least 1).
  /// `max_bytes`, when non-zero, additionally bounds the summed
  /// ApproxResultBytes of the cached entries (also sliced per shard).
  /// `capacity` 0 disables caching: Lookup always misses, Insert is a
  /// no-op. `num_shards` is clamped to [1, capacity] so no shard sits
  /// permanently empty. Counters and occupancy gauges report into
  /// `registry` (null = the process default) as d3l_result_cache_* series.
  explicit ResultCache(size_t capacity, size_t num_shards = 8,
                       size_t max_bytes = 0,
                       obs::MetricRegistry* registry = nullptr);

  /// On a hit, deep-copies the cached result into `*out` and marks the
  /// entry most-recently-used.
  CacheLookup Lookup(const CacheKey& key, core::SearchResult* out);

  /// Inserts (or refreshes) a result, evicting the shard's least recently
  /// used entries while its slice exceeds the entry or byte budget (the
  /// newly admitted entry itself is never evicted).
  void Insert(const CacheKey& key, core::SearchResult result);

  /// Drops every entry (counters are kept).
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t max_bytes() const { return max_bytes_; }
  Stats GetStats() const;

 private:
  struct KeyHash {
    size_t operator()(const CacheKey& k) const {
      // lo alone is already a high-quality 64-bit hash of the query bytes.
      return static_cast<size_t>(k.lo);
    }
  };

  /// One cached result.
  struct Entry {
    CacheKey key;
    /// Held by shared_ptr so a hit can take a reference under the lock and
    /// deep-copy OUTSIDE it — the copy of a large result must not
    /// serialize every other hit on this shard.
    std::shared_ptr<const core::SearchResult> result;
    size_t bytes = 0;  ///< accounted size at insertion time
  };

  struct Shard {
    mutable Mutex mu;
    /// Most-recently-used at the front. The map owns iterators into it.
    std::list<Entry> lru D3L_GUARDED_BY(mu);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index
        D3L_GUARDED_BY(mu);
    // The budgets are set once in the ResultCache constructor (before any
    // concurrent access) and read-only afterwards — deliberately unguarded.
    size_t capacity = 0;
    size_t byte_budget = 0;  ///< 0 = unbounded
    // Occupancy the EVICTION logic needs under this shard's lock; the
    // outcome counters live directly on the registry instruments below
    // (atomic — no reason to shard them).
    size_t bytes_used D3L_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    // hi selects the shard, lo buckets within it: the two dimensions use
    // independent hash bits.
    return shards_[key.hi % shards_.size()];
  }

  size_t capacity_ = 0;
  size_t max_bytes_ = 0;

  // Registry instruments: counters for probe/insert outcomes, gauges for
  // current occupancy (updated under the owning shard's lock).
  std::shared_ptr<obs::Counter> hits_;
  std::shared_ptr<obs::Counter> misses_;
  std::shared_ptr<obs::Counter> insertions_;
  std::shared_ptr<obs::Counter> evictions_;
  std::shared_ptr<obs::Gauge> entries_gauge_;
  std::shared_ptr<obs::Gauge> bytes_gauge_;

  std::vector<Shard> shards_;
};

}  // namespace d3l::serving
