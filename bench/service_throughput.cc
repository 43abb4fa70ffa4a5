// DiscoveryService throughput: cache hit vs miss, async vs sync, engine vs
// sharded backend — the serving-layer companion to shard_search.
//
//   $ ./build/service_throughput [--scale=F] [--threads=T] [--k=K]
//                                [--metrics-out=PATH]
//
// Four serving modes over the same target set on the Synthetic repository:
//
//   sync direct      D3LEngine::Search on the caller thread (the baseline)
//   async uncached   DiscoveryService::SubmitBatch with the cache bypassed
//   async cold       SubmitBatch against an empty cache (miss + insert)
//   async warm       SubmitBatch with every query already cached (pure hits)
//
// plus a warm pass through a 2-shard ShardedEngine backend. Expected shape:
// async uncached tracks sync direct within scheduling overhead (or beats it
// with T > 1 workers); warm hits are decisively faster than any miss mode
// because profiling, retrieval and scoring are skipped entirely — a warm
// hit costs a digest of the target table plus a cache copy. The bench re-checks byte-identity of
// cached results against direct Search and exits nonzero on a divergence,
// so the CI bench-smoke run doubles as an end-to-end cache-correctness
// gate.
//
// Two observability riders: an extra uncached pass with per-query tracing
// disabled gates the telemetry overhead (the traced pass must stay within
// 1.5x + 0.5ms of the untraced one, a bound far above real span cost but
// below any accidental lock-in-the-hot-path regression), and
// --metrics-out=PATH dumps the post-run Prometheus exposition so CI can
// archive the metrics snapshot next to the timing table.
#include <cstring>
#include <filesystem>
#include <future>
#include <unistd.h>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "serving/discovery_service.h"
#include "serving/search_backend.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"

using namespace d3l;

namespace {

bool SameRanking(const core::SearchResult& a, const core::SearchResult& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].table_index != b.ranked[i].table_index ||
        a.ranked[i].distance != b.ranked[i].distance) {
      return false;
    }
  }
  return true;
}

struct ModeResult {
  double ms_per_query = 0;
  size_t cache_hits = 0;
  bool exact = true;
};

/// Submits every target once and waits; checks results against the
/// references.
ModeResult RunServicePass(serving::DiscoveryService& service,
                          const std::vector<const Table*>& targets, size_t k,
                          bool bypass_cache,
                          const std::vector<core::SearchResult>& reference) {
  const size_t hits_before = service.Stats().cache_hits;
  std::vector<serving::QueryRequest> requests;
  requests.reserve(targets.size());
  for (const Table* t : targets) {
    requests.push_back({t, k, std::nullopt, bypass_cache});
  }
  eval::Timer timer;
  std::vector<std::future<serving::QueryResponse>> futures =
      service.SubmitBatch(std::move(requests));
  ModeResult mode;
  for (size_t i = 0; i < futures.size(); ++i) {
    serving::QueryResponse response = futures[i].get();
    response.result.status().CheckOK();
    mode.exact = mode.exact && SameRanking(reference[i], *response.result);
  }
  mode.ms_per_query = timer.Seconds() * 1000 / static_cast<double>(targets.size());
  mode.cache_hits = service.Stats().cache_hits - hits_before;
  return mode;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  size_t threads = serving::ThreadPool::DefaultThreads();
  size_t k = 20;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      double v = std::atof(a + 8);
      if (v > 0) scale = v;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      long v = std::atol(a + 10);
      if (v > 0) threads = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--k=", 4) == 0) {
      long v = std::atol(a + 4);
      if (v > 0) k = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--metrics-out=", 14) == 0) {
      metrics_out = a + 14;
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", a);
    }
  }
  printf("=== DiscoveryService throughput on Synthetic (scale=%.2f, threads=%zu, "
         "k=%zu) ===\n\n",
         scale, threads, k);

  auto data = bench::MakeSynthetic(scale);
  printf("lake: %zu tables\n", data.lake.size());

  core::D3LEngine engine;
  engine.IndexLake(data.lake).CheckOK();

  // Floor the target count so the smoke-scale CI run still exercises a
  // multi-entry cache (Scaled(20, 0.05) alone would be a single target).
  auto target_ids = eval::SampleTargets(
      data.lake, std::max<size_t>(8, eval::Scaled(20, scale)), 31);
  std::vector<const Table*> targets;
  for (uint32_t t : target_ids) targets.push_back(&data.lake.table(t));

  // Sync direct baseline + the byte-identity references.
  std::vector<core::SearchResult> reference;
  for (const Table* t : targets) {  // warm-up + reference
    reference.push_back(std::move(*engine.Search(*t, k)));
  }
  eval::Timer t_sync;
  for (const Table* t : targets) {
    (void)*engine.Search(*t, k);
  }
  const double sync_ms = t_sync.Seconds() * 1000 / static_cast<double>(targets.size());

  serving::EngineBackend backend(&engine, &data.lake);
  serving::DiscoveryServiceOptions service_options;
  service_options.num_threads = threads;
  // One cache shard with headroom: per-shard LRU slices could otherwise
  // evict within the cold pass when several keys hash to one shard, which
  // would turn the deterministic all-hits warm check into a coin flip.
  service_options.cache_capacity = targets.size() * 4;
  service_options.cache_shards = 1;
  serving::DiscoveryService service(&backend, service_options);

  ModeResult uncached = RunServicePass(service, targets, k, /*bypass_cache=*/true,
                                       reference);
  ModeResult cold = RunServicePass(service, targets, k, /*bypass_cache=*/false,
                                   reference);
  ModeResult warm = RunServicePass(service, targets, k, /*bypass_cache=*/false,
                                   reference);

  // Tracing overhead gate: the same uncached pass with per-query tracing
  // off. Both services run against the already-warm engine, so the delta
  // is the telemetry itself (span allocation, histogram records).
  serving::DiscoveryServiceOptions untraced_options = service_options;
  untraced_options.trace_queries = false;
  serving::DiscoveryService untraced_service(&backend, untraced_options);
  ModeResult untraced = RunServicePass(untraced_service, targets, k,
                                       /*bypass_cache=*/true, reference);

  // Warm pass through a sharded backend: same API, same cache layer.
  namespace fs = std::filesystem;
  fs::path tmp = fs::temp_directory_path() /
                 ("d3l_service_throughput_" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  serving::ShardingOptions shard_options;
  shard_options.num_shards = 2;
  auto report =
      serving::BuildShards(data.lake, shard_options, (tmp / "lake").string());
  report.status().CheckOK();
  serving::ShardedEngineOptions shard_open;
  shard_open.num_threads = threads;
  auto sharded = serving::ShardedEngine::Open(report->manifest_path, shard_open);
  sharded.status().CheckOK();
  serving::DiscoveryServiceOptions sharded_service_options;
  // The sharded backend owns the scatter-gather pool; run the service's
  // submissions on a single worker to avoid oversubscription.
  sharded_service_options.num_threads = 1;
  sharded_service_options.cache_capacity = targets.size() * 4;
  sharded_service_options.cache_shards = 1;
  serving::DiscoveryService sharded_service(sharded->get(), sharded_service_options);
  ModeResult sharded_cold = RunServicePass(sharded_service, targets, k,
                                           /*bypass_cache=*/false, reference);
  ModeResult sharded_warm = RunServicePass(sharded_service, targets, k,
                                           /*bypass_cache=*/false, reference);
  fs::remove_all(tmp);

  eval::TablePrinter out({"mode", "ms/query", "speedup vs sync", "cache hits", "exact"});
  const auto row = [&](const char* name, const ModeResult& m) {
    out.AddRow({name, eval::TablePrinter::Num(m.ms_per_query, 3),
                eval::TablePrinter::Num(sync_ms / m.ms_per_query, 2),
                std::to_string(m.cache_hits), m.exact ? "yes" : "NO"});
  };
  out.AddRow({"sync direct", eval::TablePrinter::Num(sync_ms, 3), "1.00", "-", "yes"});
  row("async uncached", uncached);
  row("async untraced", untraced);
  row("async cold (miss)", cold);
  row("async warm (hit)", warm);
  row("sharded cold (miss)", sharded_cold);
  row("sharded warm (hit)", sharded_warm);
  out.Print();

  printf("\nShape to check: warm hits are the fastest rows by a wide margin\n"
         "(they skip profiling, retrieval and scoring), async uncached tracks\n"
         "sync direct, and every row is exact (byte-identical rankings).\n");

  if (!metrics_out.empty()) {
    // Post-run registry snapshot for the CI artifact. Written before the
    // gates so a failing run still leaves the evidence behind.
    const Status written = bench::WriteTextFile(
        metrics_out, obs::MetricRegistry::Default().ExportText());
    if (!written.ok()) {
      fprintf(stderr, "metrics snapshot failed: %s\n",
              written.ToString().c_str());
      return 1;
    }
  }

  const bool all_exact = uncached.exact && untraced.exact && cold.exact &&
                         warm.exact && sharded_cold.exact && sharded_warm.exact;
  const bool all_hits = warm.cache_hits == targets.size() &&
                        sharded_warm.cache_hits == targets.size();
  // Generous noise bound: telemetry overhead is nanoseconds per query, so
  // only a lock or allocation regression on the hot path can trip this.
  const bool trace_cheap =
      uncached.ms_per_query <= untraced.ms_per_query * 1.5 + 0.5;
  if (!all_exact || !all_hits || !trace_cheap) {
    fprintf(stderr, "FAIL: %s\n",
            !all_exact ? "a served ranking diverged from direct Search"
            : !all_hits
                ? "a warm pass missed the cache"
                : "tracing overhead exceeded the noise gate (traced uncached "
                  "vs untraced uncached)");
    return 1;  // fails the CI bench-smoke step, not just the artifact text
  }
  return 0;
}
