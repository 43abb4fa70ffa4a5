// The asynchronous query front-end over any SearchBackend.
//
// DiscoveryService turns a backend (single engine or sharded) into a
// concurrent service: Submit(QueryRequest) enqueues the query on the
// service's ThreadPool and returns a std::future<QueryResponse>
// immediately; SubmitBatch amortizes that for request vectors. Each query
// runs
//
//   cache lookup  ->  [hit: copy cached result]
//                     [miss: profile target -> backend Search -> insert]
//
// with per-phase wall-clock stats recorded into the response. A hit costs
// a digest of the target table plus a copy of the cached result: it never
// profiles. Queries that retrieve nothing are cached like any other.
//
// Result-cache keying. The 128-bit key is two chained hashes under
// independent seeds of: the backend's index fingerprint (snapshot/manifest
// checksums), its options fingerprint, k, the evidence mask, the target
// table's name and column count, and, per column, its name, its cell count
// and every cell. Each field is hashed on its own and chained, so a byte
// moved across a cell boundary or a cell moved across a column changes the
// key. A profile is a pure function of these fields under the backend's
// options (column types, null counts and the subject column are computed
// from the cells; the table's source identity is never read), so
// two submissions collide exactly when nothing downstream could
// distinguish them, and a hit may copy the stored result instead of
// re-profiling and re-retrieving, byte for byte. A table edited in place
// keys differently on its next query. Opening a different snapshot (or a
// re-built one) changes the index fingerprint and thereby every key:
// invalidation across restarts rides on the checksums src/io already
// maintains, with no explicit flush protocol.
//
// Shutdown is graceful: the destructor (or Shutdown()) stops accepting new
// queries, then blocks until every in-flight and queued query has fulfilled
// its future — no future returned by Submit is ever broken.
//
// Hot reload. The backend is held as one immutable Generation (backend
// pointer + its BackendInfo) published through a shared_ptr; SwapBackend
// installs a replacement without pausing service. Each query captures
// exactly one generation snapshot when it starts executing and threads it
// through cache keying, profile, search, and cache insertion — so a query
// racing a swap runs entirely against the old generation and caches its
// result under the OLD index fingerprint, never under a key the new
// generation would read. In-flight queries keep the old backend alive via
// the snapshot's reference; it is destroyed when the last of them drains.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/result_cache.h"
#include "serving/search_backend.h"
#include "serving/thread_pool.h"

namespace d3l::serving {

struct DiscoveryServiceOptions {
  /// Worker threads executing queries (0 = hardware concurrency). With
  /// explicit 0 via `inline_execution`, see below.
  size_t num_threads = 0;
  /// Results cached across queries (0 disables caching entirely).
  size_t cache_capacity = 256;
  /// Lock shards inside the result cache (clamped to the capacity).
  size_t cache_shards = 8;
  /// Byte budget over the cached results' approximate deep sizes (0 =
  /// entry-count bound only). Bounded by default: a handful of huge
  /// SearchResults must not grow the cache past what was provisioned.
  size_t cache_max_bytes = 256ull << 20;
  /// When true the service runs every query inline on the Submit caller
  /// (no worker threads): deterministic single-threaded execution for
  /// tests and benchmarks; futures are ready when Submit returns.
  bool inline_execution = false;
  /// Registry the service's counters and phase histograms report into
  /// (null = the process default). Also handed to the ResultCache and the
  /// worker pool, so one Snapshot covers all three layers.
  obs::MetricRegistry* registry = nullptr;
  /// Record a span tree per query (queue wait, cache, profile, search —
  /// plus the per-server RPC spans a RemoteBackend stitches in). The trace
  /// rides back on QueryStats::trace. Off, queries skip every tracing
  /// branch and QueryStats::trace stays null.
  bool trace_queries = true;
  /// When > 0, a completed query whose total time reaches this threshold
  /// logs its full span tree at WARNING (needs trace_queries). 0 = off.
  double slow_query_seconds = 0;
};

/// \brief One discovery query: target table, k, optional evidence mask.
struct QueryRequest {
  const Table* target = nullptr;
  size_t k = 10;
  /// Evidence mask; defaults to the backend options' enabled set.
  std::optional<std::array<bool, core::kNumEvidence>> enabled;
  /// Skip cache lookup AND insertion for this query (always recompute).
  bool bypass_cache = false;
};

/// \brief Per-query execution metrics.
struct QueryStats {
  bool cache_hit = false;
  double queue_seconds = 0;    ///< Submit() to execution start
  double profile_seconds = 0;  ///< backend Profile (0 on a hit)
  double search_seconds = 0;   ///< backend retrieval+ranking (0 on a hit)
  double total_seconds = 0;    ///< Submit() to response ready
  /// Index fingerprint of the generation this query executed against —
  /// lets callers attribute a response to a reload generation.
  uint64_t index_fingerprint = 0;
  /// The query's span tree (null when tracing is off): queue/cache/
  /// profile/search phases, with any remote servers' handling stitched in
  /// under the same trace id. Render with obs::FormatTrace.
  std::shared_ptr<const obs::Trace> trace;
};

/// \brief The outcome a Submit future resolves to.
struct QueryResponse {
  Result<core::SearchResult> result;
  QueryStats stats;

  QueryResponse() : result(Status::Internal("query not executed")) {}
};

/// \brief Aggregate service counters (all queries since construction) — a
/// thin view over the service's registry instruments (the same series a
/// STAT scrape exports). Invariant once the service is quiescent:
/// submitted == completed + rejected (+ in-flight work while running).
struct ServiceStats {
  size_t submitted = 0;
  size_t completed = 0;
  size_t rejected = 0;     ///< refused at Submit (service shut down)
  size_t failed = 0;       ///< completed with a non-OK result
  size_t cache_hits = 0;
  size_t cache_misses = 0;  ///< executed queries that went to the backend
  ResultCache::Stats cache;
  double profile_seconds = 0;  ///< summed across queries that profiled
  double search_seconds = 0;
};

/// \brief Async top-k discovery serving with a result cache.
class DiscoveryService {
 public:
  /// Non-owning: the backend must outlive the service (and any SwapBackend
  /// that replaces it must happen-before its destruction).
  explicit DiscoveryService(const SearchBackend* backend,
                            DiscoveryServiceOptions options = {});

  /// Owning: the service keeps the backend alive as long as any in-flight
  /// query references its generation. This is the hot-reload constructor.
  explicit DiscoveryService(std::shared_ptr<const SearchBackend> backend,
                            DiscoveryServiceOptions options = {});

  /// Blocks until every accepted query has completed (idempotent; also run
  /// by the destructor). Queries submitted after Shutdown fail fast with
  /// an InvalidArgument response — their futures still resolve.
  ~DiscoveryService();
  void Shutdown() D3L_EXCLUDES(mu_);

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Enqueues one query; the future resolves to its response. Never
  /// blocks on query execution (inline_execution mode aside).
  std::future<QueryResponse> Submit(QueryRequest request) D3L_EXCLUDES(mu_);

  /// Enqueues a vector of queries; futures[i] corresponds to requests[i].
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests);

  /// Convenience: Submit + wait.
  QueryResponse Query(const QueryRequest& request);

  /// Atomically publishes a new backend generation. Returns immediately:
  /// queries already executing finish against the generation they captured
  /// (which stays alive through their snapshot reference); queries that
  /// start executing afterwards see the new one. The ResultCache needs no
  /// flush — the new generation's index fingerprint changes every key, so
  /// old entries can never hit and age out by LRU.
  void SwapBackend(std::shared_ptr<const SearchBackend> backend)
      D3L_EXCLUDES(gen_mu_);

  /// The currently published backend (a new Submit would run against it).
  std::shared_ptr<const SearchBackend> backend() const;
  /// The currently published generation's BackendInfo.
  BackendInfo Info() const;
  ServiceStats Stats() const;

  /// The cache key Submit would use for a target table against the
  /// CURRENT generation — exposed so tests and diagnostics can reason
  /// about hit/miss behavior directly.
  CacheKey KeyFor(const Table& target, size_t k,
                  const std::array<bool, core::kNumEvidence>& enabled_mask) const;

 private:
  /// One published backend: pointer + the BackendInfo captured at publish
  /// time. Immutable after construction; shared by every query that
  /// snapshots it.
  struct Generation {
    std::shared_ptr<const SearchBackend> backend;
    BackendInfo info;
  };

  std::shared_ptr<const Generation> CurrentGeneration() const
      D3L_EXCLUDES(gen_mu_);
  static CacheKey KeyForGeneration(
      const BackendInfo& info, const Table& target, size_t k,
      const std::array<bool, core::kNumEvidence>& enabled_mask);
  void Execute(const QueryRequest& request,
               std::chrono::steady_clock::time_point submitted,
               std::shared_ptr<std::promise<QueryResponse>> promise);
  void RunQuery(const Generation& gen, const QueryRequest& request,
                QueryResponse& response, bool& hit, bool& profiled,
                bool& searched);

  DiscoveryServiceOptions options_;
  /// Resolved registry, never null. Declared before cache_ and pool_: both
  /// register their instruments into it during construction.
  obs::MetricRegistry* registry_;
  ResultCache cache_;
  ThreadPool pool_;

  mutable Mutex gen_mu_;  ///< guards only the generation_ pointer swap
  std::shared_ptr<const Generation> generation_ D3L_GUARDED_BY(gen_mu_);

  mutable Mutex mu_;
  CondVar idle_cv_;
  bool accepting_ D3L_GUARDED_BY(mu_) = true;
  size_t in_flight_ D3L_GUARDED_BY(mu_) = 0;

  // Aggregate instruments. Incremented inside the mu_ critical sections
  // that used to own plain counters, preserving the ordering Stats()
  // documents (a query is booked before its future resolves); phase sums
  // come from the histograms' Sum(), so ServiceStats needs no second
  // bookkeeping.
  std::shared_ptr<obs::Counter> submitted_;
  std::shared_ptr<obs::Counter> completed_;
  std::shared_ptr<obs::Counter> rejected_;
  std::shared_ptr<obs::Counter> failed_;
  std::shared_ptr<obs::Counter> cache_hits_;
  std::shared_ptr<obs::Counter> cache_misses_;
  std::shared_ptr<obs::Counter> slow_queries_;
  std::shared_ptr<obs::Histogram> queue_seconds_;
  std::shared_ptr<obs::Histogram> profile_seconds_;
  std::shared_ptr<obs::Histogram> search_seconds_;
  std::shared_ptr<obs::Histogram> total_seconds_;
};

}  // namespace d3l::serving
