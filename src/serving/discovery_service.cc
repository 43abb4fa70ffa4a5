#include "serving/discovery_service.h"

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace d3l::serving {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Seeds for the two independent halves of the 128-bit cache key.
constexpr uint64_t kKeySeedLo = 0x8f1ef1a6d3a5c3b1ULL;
constexpr uint64_t kKeySeedHi = 0x2b7e151628aed2a6ULL;

// A non-owning shared_ptr: the aliasing constructor with an empty owner
// yields a pointer whose destruction is a no-op, so the raw-pointer
// constructor keeps its "caller guarantees lifetime" contract while the
// rest of the service uniformly handles shared_ptr generations.
std::shared_ptr<const SearchBackend> Unowned(const SearchBackend* backend) {
  return std::shared_ptr<const SearchBackend>(std::shared_ptr<const void>(),
                                              backend);
}

}  // namespace

DiscoveryService::DiscoveryService(const SearchBackend* backend,
                                   DiscoveryServiceOptions options)
    : DiscoveryService(Unowned(backend), options) {}

DiscoveryService::DiscoveryService(std::shared_ptr<const SearchBackend> backend,
                                   DiscoveryServiceOptions options)
    : options_(options),
      registry_(options.registry ? options.registry
                                 : &obs::MetricRegistry::Default()),
      cache_(options.cache_capacity, options.cache_shards,
             options.cache_max_bytes, registry_),
      pool_(options.inline_execution
                ? 0
                : (options.num_threads > 0 ? options.num_threads
                                           : ThreadPool::DefaultThreads()),
            "discovery_service", registry_) {
  submitted_ = registry_->AddCounter("d3l_service_queries_submitted_total", {},
                                     "Queries accepted or rejected at Submit");
  completed_ = registry_->AddCounter("d3l_service_queries_completed_total", {},
                                     "Queries whose future resolved");
  rejected_ = registry_->AddCounter("d3l_service_queries_rejected_total", {},
                                    "Queries refused after shutdown");
  failed_ = registry_->AddCounter("d3l_service_queries_failed_total", {},
                                  "Completed queries with a non-OK result");
  cache_hits_ = registry_->AddCounter("d3l_service_cache_hits_total", {},
                                      "Queries answered by the result cache");
  cache_misses_ = registry_->AddCounter(
      "d3l_service_cache_misses_total", {},
      "Executed queries that went to the backend's search");
  slow_queries_ = registry_->AddCounter(
      "d3l_service_slow_queries_total", {},
      "Queries at or over the slow-query log threshold");
  const auto phase_hist = [this](const char* phase, const char* help) {
    return registry_->AddHistogram("d3l_service_phase_seconds",
                                   {{"phase", phase}}, help);
  };
  queue_seconds_ = phase_hist("queue", "Submit to execution start");
  profile_seconds_ = phase_hist("profile", "Target profiling on a cache miss");
  search_seconds_ = phase_hist("search", "Backend retrieval and ranking");
  total_seconds_ = phase_hist("total", "Submit to response ready");

  auto gen = std::make_shared<Generation>();
  gen->info = backend->Info();
  gen->backend = std::move(backend);
  generation_ = std::move(gen);
}

DiscoveryService::~DiscoveryService() { Shutdown(); }

void DiscoveryService::Shutdown() {
  MutexLock lk(mu_);
  accepting_ = false;
  while (in_flight_ != 0) idle_cv_.Wait(lk);
}

void DiscoveryService::SwapBackend(std::shared_ptr<const SearchBackend> backend) {
  auto gen = std::make_shared<Generation>();
  gen->info = backend->Info();
  gen->backend = std::move(backend);
  MutexLock lk(gen_mu_);
  generation_ = std::move(gen);
}

std::shared_ptr<const DiscoveryService::Generation>
DiscoveryService::CurrentGeneration() const {
  // A plain mutex (not std::atomic<shared_ptr>) keeps the copy wait-free
  // enough: the critical section is one refcount increment, and the swap
  // path is rare. Copying the shared_ptr is the RCU read-side "lock".
  MutexLock lk(gen_mu_);
  return generation_;
}

std::shared_ptr<const SearchBackend> DiscoveryService::backend() const {
  return CurrentGeneration()->backend;
}

BackendInfo DiscoveryService::Info() const { return CurrentGeneration()->info; }

CacheKey DiscoveryService::KeyForGeneration(
    const BackendInfo& info, const Table& target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask) {
  // Backend identity, options, k and mask start both halves; then every
  // field of the table is hashed on its own and chained in, under the
  // half's seed. The column and cell counts are chained too, so no two
  // distinct tables chain the same sequence of fields.
  uint64_t mask_bits = 0;
  for (size_t e = 0; e < core::kNumEvidence; ++e) {
    if (enabled_mask[e]) mask_bits |= uint64_t{1} << e;
  }
  CacheKey key;
  key.lo = HashCombine(HashCombine(info.index_fingerprint, info.options_fingerprint),
                       HashCombine(k, mask_bits));
  key.hi = HashCombine(HashCombine(info.options_fingerprint, info.index_fingerprint),
                       HashCombine(mask_bits, k));
  const auto chain_bytes = [&key](const std::string& bytes) {
    key.lo = HashCombine(key.lo, HashString(bytes, kKeySeedLo));
    key.hi = HashCombine(key.hi, HashString(bytes, kKeySeedHi));
  };
  const auto chain_count = [&key](uint64_t n) {
    key.lo = HashCombine(key.lo, n);
    key.hi = HashCombine(key.hi, n);
  };
  chain_bytes(target.name());
  chain_count(target.num_columns());
  for (const Column& column : target.columns()) {
    chain_bytes(column.name());
    chain_count(column.size());
    for (const std::string& cell : column.cells()) chain_bytes(cell);
  }
  return key;
}

CacheKey DiscoveryService::KeyFor(
    const Table& target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask) const {
  return KeyForGeneration(CurrentGeneration()->info, target, k, enabled_mask);
}

std::future<QueryResponse> DiscoveryService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  const auto submitted = std::chrono::steady_clock::now();
  {
    MutexLock lk(mu_);
    submitted_->Increment();
    if (!accepting_) {
      rejected_->Increment();  // keeps submitted == completed + rejected + in-flight
      QueryResponse response;
      response.result = Status::InvalidArgument("service is shut down");
      promise->set_value(std::move(response));
      return future;
    }
    ++in_flight_;
  }
  pool_.Post([this, request = std::move(request), submitted,
              promise = std::move(promise)] {
    Execute(request, submitted, promise);
  });
  return future;
}

std::vector<std::future<QueryResponse>> DiscoveryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

QueryResponse DiscoveryService::Query(const QueryRequest& request) {
  return Submit(request).get();
}

void DiscoveryService::RunQuery(const Generation& gen,
                                const QueryRequest& request,
                                QueryResponse& response, bool& hit,
                                bool& profiled, bool& searched) {
  const SearchBackend& backend = *gen.backend;
  const std::array<bool, core::kNumEvidence> mask =
      request.enabled.value_or(backend.options().enabled);

  if (request.target == nullptr) {
    response.result = Status::InvalidArgument("query target is null");
    return;
  }
  const bool use_cache = !request.bypass_cache && cache_.capacity() > 0;
  CacheKey key;
  if (use_cache) {
    obs::ScopedSpan span("cache:lookup");
    // Keyed with the fingerprints of THIS query's generation snapshot: a
    // query racing a swap both looks up and inserts under the generation
    // whose backend actually answers it, so a swap can never alias an old
    // result onto a new-generation key (the stale-hit window this keying
    // closes).
    key = KeyForGeneration(gen.info, *request.target, request.k, mask);
    core::SearchResult cached;
    if (cache_.Lookup(key, &cached) == CacheLookup::kHit) {
      hit = true;
      response.result = std::move(cached);
      response.stats.cache_hit = true;
      return;
    }
  }
  profiled = true;
  auto t0 = std::chrono::steady_clock::now();
  Result<core::QueryTarget> target = [&] {
    obs::ScopedSpan span("profile");
    return backend.Profile(*request.target);
  }();
  response.stats.profile_seconds = SecondsSince(t0);
  if (!target.ok()) {
    response.result = target.status();  // never inserted, so it never hits
    return;
  }
  searched = true;
  t0 = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan span("search");
    response.result = backend.Search(std::move(*target), request.k, mask);
  }
  response.stats.search_seconds = SecondsSince(t0);
  if (use_cache && response.result.ok()) {
    obs::ScopedSpan span("cache:insert");
    cache_.Insert(key, *response.result);  // deep copy into the cache
  }
}

void DiscoveryService::Execute(const QueryRequest& request,
                               std::chrono::steady_clock::time_point submitted,
                               std::shared_ptr<std::promise<QueryResponse>> promise) {
  QueryResponse response;
  response.stats.queue_seconds = SecondsSince(submitted);

  // ONE generation snapshot per query: every phase below — cache key,
  // profile, search, insert — sees this backend and this fingerprint, however
  // many SwapBackend calls land while we run. The shared_ptr copy also
  // keeps the old backend alive until the query drains.
  const std::shared_ptr<const Generation> gen = CurrentGeneration();
  response.stats.index_fingerprint = gen->info.index_fingerprint;

  std::shared_ptr<obs::TraceContext> trace;
  if (options_.trace_queries) {
    // Epoch = submit time, so the queue wait — which ended before this
    // context existed — slots in retrospectively at its true offset.
    trace = std::make_shared<obs::TraceContext>(obs::NewTraceId(), submitted);
    trace->AddSpan(
        "queue", -1, 0,
        static_cast<uint64_t>(response.stats.queue_seconds * 1e9));
  }

  bool hit = false;
  bool profiled = false;  ///< the query reached the backend's Profile
  bool searched = false;  ///< the query reached the backend's Search
  {
    // The execute span is the trace root every phase span nests under; the
    // optional keeps the untraced path free of even a TLS install.
    std::optional<obs::ScopedSpan> exec_span;
    if (trace != nullptr) exec_span.emplace(trace, "execute");
    try {
      RunQuery(*gen, request, response, hit, profiled, searched);
    } catch (const std::exception& e) {
      // The codebase speaks Status, not exceptions — but a throw must not
      // escape into the pool (it would strand every queued future). Convert
      // it so THIS caller gets a failed response and everyone else proceeds.
      response.result = Status::Internal(std::string("query threw: ") + e.what());
    } catch (...) {
      response.result = Status::Internal("query threw a non-std exception");
    }
  }
  response.stats.total_seconds = SecondsSince(submitted);

  queue_seconds_->Record(response.stats.queue_seconds);
  if (profiled) profile_seconds_->Record(response.stats.profile_seconds);
  if (searched) search_seconds_->Record(response.stats.search_seconds);
  total_seconds_->Record(response.stats.total_seconds);

  if (trace != nullptr) {
    response.stats.trace = std::make_shared<const obs::Trace>(trace->Snapshot());
    if (options_.slow_query_seconds > 0 &&
        response.stats.total_seconds >= options_.slow_query_seconds) {
      slow_queries_->Increment();
      D3L_LOG_WARNING << "slow query ("
                      << response.stats.total_seconds << "s >= "
                      << options_.slow_query_seconds << "s threshold):\n"
                      << obs::FormatTrace(*response.stats.trace);
    }
  }

  // Book the counters BEFORE fulfilling the future: a caller that wakes
  // from future.get() must already see this query in Stats().
  {
    MutexLock lk(mu_);
    completed_->Increment();
    if (!response.result.ok()) failed_->Increment();
    if (hit) {
      cache_hits_->Increment();
    } else if (searched) {
      // Failed-before-retrieval queries count only in failed_.
      cache_misses_->Increment();
    }
    if (--in_flight_ == 0) idle_cv_.NotifyAll();
  }
  // Safe after in_flight_ hits zero: the promise is owned by this task, and
  // pool destruction joins the worker running it before the service dies.
  promise->set_value(std::move(response));
}

ServiceStats DiscoveryService::Stats() const {
  // Thin view over this service's own instruments. mu_ still orders the
  // reads against the booking sections above: a caller woken by
  // future.get() takes the lock after the booking released it, so the
  // completed query is already visible here.
  ServiceStats stats;
  {
    MutexLock lk(mu_);
    stats.submitted = submitted_->Value();
    stats.completed = completed_->Value();
    stats.rejected = rejected_->Value();
    stats.failed = failed_->Value();
    stats.cache_hits = cache_hits_->Value();
    stats.cache_misses = cache_misses_->Value();
    stats.profile_seconds = profile_seconds_->Sum();
    stats.search_seconds = search_seconds_->Sum();
  }
  stats.cache = cache_.GetStats();
  return stats;
}

}  // namespace d3l::serving
