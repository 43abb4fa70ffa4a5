// Remote scatter-gather search: latency of serving::RemoteBackend over N
// in-process RpcServers (real TCP sockets on localhost, real wire frames)
// versus the local ShardedEngine over the same manifest, plus the exactness
// gate — the remote top-k must be byte-identical to local, or the driver
// exits non-zero and fails the CI bench-smoke step.
//
//   $ ./build/remote_search [--scale=F] [--threads=T] [--k=K]
//                           [--metrics-out=PATH]
//
// --metrics-out=PATH dumps the post-run Prometheus exposition (client and
// server series share the process-default registry here, so one file holds
// both sides of the wire) for the CI metrics-snapshot artifact.
//
// Every ms/query figure is timed over at least 20 queries (the sampled
// targets, repeated in passes), so small scales do not time one query.
// Shard sets are built into a temporary directory and removed afterwards.
// Expected shape: remote ms/query tracks local sharded ms/query plus a
// per-server wire cost (two round trips — depth counts, then scores — with
// serialized candidate lists and pair rows on the reply). The gap is the
// price of process isolation, not of extra index work.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "rpc/server.h"
#include "serving/remote_backend.h"
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
  printf("=== Remote scatter-gather search on Synthetic (scale=%.2f, "
         "threads=%zu, k=%zu) ===\n\n",
         scale, threads, k);

  auto data = bench::MakeSynthetic(scale);
  printf("lake: %zu tables\n", data.lake.size());

  auto target_ids = eval::SampleTargets(data.lake, eval::Scaled(20, scale), 31);
  std::vector<const Table*> targets;
  for (uint32_t t : target_ids) targets.push_back(&data.lake.table(t));
  // Timed passes over the targets: at least kMinTimedQueries per figure.
  constexpr size_t kMinTimedQueries = 20;
  const size_t passes =
      (kMinTimedQueries + targets.size() - 1) / std::max<size_t>(1, targets.size());
  const double timed_queries = static_cast<double>(passes * targets.size());
  printf("each row's ms/query is timed over %zu queries (%zu targets x %zu passes)\n\n",
         passes * targets.size(), targets.size(), passes);

  namespace fs = std::filesystem;
  fs::path tmp = fs::temp_directory_path() /
                 ("d3l_remote_search_" + std::to_string(::getpid()));
  fs::create_directories(tmp);

  eval::TablePrinter out({"servers", "local ms/query", "remote ms/query",
                          "overhead", "exact"});
  bool all_exact = true;
  // Each deployment's instruments die with its loop iteration (the registry
  // keeps only weak references), so fold a snapshot in while they are live.
  // Nothing instrumented outlives an iteration here, so the merge never
  // double-counts.
  obs::RegistrySnapshot accumulated;
  for (size_t n_servers : {size_t{1}, size_t{2}, size_t{4}}) {
    if (n_servers > data.lake.size()) break;
    serving::ShardingOptions options;
    options.num_shards = n_servers;
    auto report = serving::BuildShards(
        data.lake, options, (tmp / ("s" + std::to_string(n_servers))).string());
    report.status().CheckOK();

    // The local reference: one process, N shard replicas, worker pool.
    serving::ShardedEngineOptions open_options;
    open_options.num_threads = threads;
    auto local = serving::ShardedEngine::Open(report->manifest_path, open_options);
    local.status().CheckOK();

    // The remote deployment: one RpcServer per shard, each serving its own
    // subset engine over a real localhost socket.
    std::vector<std::unique_ptr<rpc::RpcServer>> servers;
    std::vector<std::string> endpoints;
    for (size_t s = 0; s < n_servers; ++s) {
      serving::ShardedEngineOptions subset_options;
      subset_options.serve_shards = {s};
      auto subset =
          serving::ShardedEngine::Open(report->manifest_path, subset_options);
      subset.status().CheckOK();
      auto server = rpc::RpcServer::Start(
          std::shared_ptr<const serving::ShardedEngine>(std::move(*subset)));
      server.status().CheckOK();
      endpoints.push_back("127.0.0.1:" + std::to_string((*server)->port()));
      servers.push_back(std::move(*server));
    }
    serving::RemoteBackendOptions remote_options;
    remote_options.num_threads = threads;
    auto remote = serving::RemoteBackend::Connect(endpoints, remote_options);
    remote.status().CheckOK();

    // Profile once per target (shared by both sides — profiling cost is
    // identical by construction, the comparison is the query pipeline).
    std::vector<core::QueryTarget> profiled;
    for (const Table* t : targets) {
      profiled.push_back(std::move(*(*local)->Profile(*t)));
    }

    auto run = [&](const serving::SearchBackend& backend,
                   std::vector<core::SearchResult>* results) {
      results->clear();
      for (const core::QueryTarget& qt : profiled) {
        // Search consumes the target's buffers, so hand each call a copy.
        results->push_back(std::move(
            *backend.Search(qt, k, backend.options().enabled)));
      }
    };

    std::vector<core::SearchResult> local_results, remote_results;
    run(**local, &local_results);   // warm-up + reference
    run(**remote, &remote_results); // warm-up
    eval::Timer t_local;
    for (size_t p = 0; p < passes; ++p) run(**local, &local_results);
    double local_ms = t_local.Seconds() * 1000 / timed_queries;
    eval::Timer t_remote;
    for (size_t p = 0; p < passes; ++p) run(**remote, &remote_results);
    double remote_ms = t_remote.Seconds() * 1000 / timed_queries;

    bool exact = true;
    for (size_t i = 0; i < local_results.size(); ++i) {
      exact = exact && SameRanking(local_results[i], remote_results[i]);
    }
    all_exact = all_exact && exact;
    out.AddRow({std::to_string(n_servers), eval::TablePrinter::Num(local_ms, 2),
                eval::TablePrinter::Num(remote_ms, 2),
                eval::TablePrinter::Num(remote_ms / local_ms, 2),
                exact ? "yes" : "NO"});
    accumulated.Merge(obs::MetricRegistry::Default().Snapshot());
  }
  out.Print();
  fs::remove_all(tmp);

  printf(
      "\nShape to check: every row is exact (remote ranking byte-identical\n"
      "to the local sharded engine), and the remote overhead factor stays\n"
      "modest — the wire adds serialization and two round trips per query,\n"
      "not index work.\n");

  if (!metrics_out.empty()) {
    const Status written =
        bench::WriteTextFile(metrics_out, accumulated.ExportText());
    if (!written.ok()) {
      fprintf(stderr, "metrics snapshot failed: %s\n",
              written.ToString().c_str());
      return 1;
    }
  }

  if (!all_exact) {
    fprintf(stderr, "FAIL: a remote ranking diverged from the local engine\n");
    return 1;  // fails the CI bench-smoke step, not just the artifact text
  }
  return 0;
}
