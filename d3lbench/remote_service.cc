// remote_service: the RPC tier, the result cache and the write path. One
// closed-loop client submits whole lake tables, drawn Zipf-skewed from a
// seeded pool, to a DiscoveryService (default 256-entry cache, queries run
// on the client's thread) over a RemoteBackend. The backend talks to two
// in-process RpcServers on loopback, each with one worker, serving two of
// the lake's four shards.
//
// Set-up (timed, repeated): load the CSV lake, build the shard snapshots,
// open each server's half, start the servers, connect the backend.
// References come from an in-process ShardedEngine over the same manifest.
// After the timed phase the deployment picks up edited CSV files through
// the write path: DataLake::LoadDirectory, UpdateShards and a RELD round.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <thread>

#include "core/attribute_profile.h"
#include "rpc/server.h"
#include "serving/discovery_service.h"
#include "serving/remote_backend.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "table/csv.h"
#include "workloads.h"

namespace d3lbench {
namespace {

constexpr size_t kK = 10;
/// One client: with two, both queue for server 0's serialized connection
/// (every query profiles there), which doubled the effect of host slowdowns
/// on latency (p95 spread between seeds 0.36 against 0.20 with one).
constexpr size_t kClients = 1;
constexpr size_t kShards = 4;
constexpr size_t kServers = 2;
/// Target draws are Zipf-Mandelbrot: rank r (from 1) is drawn with weight
/// 1 / (r + kZipfShift)^kZipfExponent. The shift flattens the head, so the
/// most popular table draws about 5% of queries, not the 13% of plain
/// Zipf(1): the hit latency is a mix of dozens of tables, not set by the
/// one or two the seed puts on top. With the ~900-table pool and the
/// 256-entry cache the hit ratio stays near 0.85, away from 1/2, and p95
/// falls in the body of the misses rather than their tail.
constexpr double kZipfExponent = 1.8;
constexpr double kZipfShift = 15;
constexpr size_t kBuildThreads = 4;
constexpr size_t kReferenceThreads = 4;
/// Draws per client; the loop cycles through them.
constexpr size_t kDrawsPerClient = 1 << 15;

struct Sizes {
  size_t universe_tables;  ///< the lake keeps kLakeShare of them
  size_t pool;     ///< distinct targets the Zipf draws range over
  size_t setups;   ///< repeated set-ups; setup_s is their median
  size_t reloads;  ///< write-path reloads; reload_p50_ms is their median
  size_t warmup;   ///< untimed warm-up queries
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kTiny) return {50, 30, 1, 2, 5};
  return {1250, 900, 3, 3, 50};
}

serving::ShardingOptions Sharding() {
  serving::ShardingOptions sharding;
  sharding.num_shards = kShards;
  sharding.engine.num_threads = kBuildThreads;
  return sharding;
}

/// Two servers over halves of the shards, and the backend over both.
/// Members are destroyed backend first, then the servers.
struct Deployment {
  std::vector<std::unique_ptr<rpc::RpcServer>> servers;
  std::unique_ptr<serving::RemoteBackend> backend;
  std::string manifest_path;
};

Result<std::unique_ptr<Deployment>> Deploy(const std::string& csv_dir, const std::string& base,
                                           obs::MetricRegistry* registry,
                                           SetupTimes* times) {
  auto deployment = std::make_unique<Deployment>();
  const Clock::time_point t0 = Clock::now();
  DataLake lake;
  D3L_RETURN_NOT_OK(lake.LoadDirectory(csv_dir));
  const Clock::time_point t1 = Clock::now();
  D3L_ASSIGN_OR_RETURN(serving::ShardBuildReport built,
                       serving::BuildShards(lake, Sharding(), base));
  deployment->manifest_path = built.manifest_path;
  times->build_shards_s = SecondsSince(t1);

  std::vector<std::string> endpoints;
  for (size_t s = 0; s < kServers; ++s) {
    serving::ShardedEngineOptions engine_options;
    engine_options.num_threads = 1;
    for (size_t shard = s * kShards / kServers; shard < (s + 1) * kShards / kServers; ++shard) {
      engine_options.serve_shards.push_back(shard);
    }
    const Clock::time_point o0 = Clock::now();
    D3L_ASSIGN_OR_RETURN(std::unique_ptr<serving::ShardedEngine> opened,
                         serving::ShardedEngine::Open(built.manifest_path, engine_options));
    times->snapshot_open_s += SecondsSince(o0);
    for (size_t shard : opened->served_shards()) {
      const core::D3LEngine& e = opened->shard(shard);
      times->index_profile_s += e.build_stats().profile_seconds;
      times->index_insert_s += e.build_stats().insert_seconds;
      times->forest_parse_ms += e.load_stats().forest_parse_seconds * 1e3;
    }
    // RELD re-opens the manifest with replica reuse, like shard_server.
    rpc::RpcServer::ReloadFn reload =
        [path = built.manifest_path, engine_options](const serving::ShardedEngine* current)
        -> Result<std::shared_ptr<const serving::ShardedEngine>> {
      D3L_ASSIGN_OR_RETURN(std::unique_ptr<serving::ShardedEngine> next,
                           serving::ShardedEngine::Open(path, engine_options, current));
      return std::shared_ptr<const serving::ShardedEngine>(std::move(next));
    };
    rpc::RpcServerOptions server_options;
    server_options.num_workers = 1;
    server_options.registry = registry;
    D3L_ASSIGN_OR_RETURN(
        std::unique_ptr<rpc::RpcServer> server,
        rpc::RpcServer::Start(std::shared_ptr<const serving::ShardedEngine>(std::move(opened)),
                              server_options, std::move(reload)));
    endpoints.push_back(server->host() + ":" + std::to_string(server->port()));
    deployment->servers.push_back(std::move(server));
  }
  // Fan-out runs on the calling thread plus one worker: one thread wake-up
  // per round instead of two.
  serving::RemoteBackendOptions remote_options;
  remote_options.num_threads = kServers - 1;
  remote_options.client.registry = registry;
  D3L_ASSIGN_OR_RETURN(deployment->backend,
                       serving::RemoteBackend::Connect(endpoints, remote_options));
  times->total_s = SecondsSince(t0);
  return deployment;
}

/// Estimated cost of a hit on `table`, in units of one numeric value
/// profiled: PROF ships the whole table to server 0, which profiles at most
/// ProfileOptions::max_values values per column. The weights (a text value
/// 4, a numeric value 1, a shipped character 1/22) were fitted to measured
/// hit latencies of five seeds: R^2 0.78, against 0.59 for rows x columns.
double HitCost(const Table& table) {
  const size_t cap = core::ProfileOptions{}.max_values;
  double cost = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    const double profiled = static_cast<double>(std::min(column.size(), cap));
    cost += column.type() == ColumnType::kNumeric ? profiled : 4 * profiled;
    for (const std::string& cell : column.cells()) cost += static_cast<double>(cell.size()) / 22;
  }
  return cost;
}

/// The Zipf pool in popularity order (rank 0 is drawn most). The pool is a
/// seeded random choice of lake tables; popularity ranks are then spread
/// over the estimated hit cost by a van der Corput sequence — rank 0 gets a
/// median-cost table, ranks 1 and 2 quartile costs, and so on — so the hot
/// set, which sets the hit latency, has the same cost profile for every
/// seed. The seed picks which of eight neighbouring costs fills each slot.
std::vector<uint32_t> PopularityOrder(const DataLake& lake, size_t pool, uint64_t seed) {
  std::vector<size_t> sorted = SeededOrder(lake.size(), seed);
  sorted.resize(std::min(pool, sorted.size()));
  std::vector<double> cost(lake.size());
  for (size_t t : sorted) cost[t] = HitCost(lake.table(t));
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](size_t a, size_t b) { return cost[a] < cost[b]; });
  std::mt19937_64 rng(seed);
  constexpr size_t kBlock = 8;
  for (size_t b = 0; b < sorted.size(); b += kBlock) {
    std::shuffle(sorted.begin() + b, sorted.begin() + std::min(b + kBlock, sorted.size()), rng);
  }
  const size_t n = sorted.size();
  std::vector<bool> used(n, false);
  std::vector<uint32_t> ranked;
  for (size_t r = 0; r < n; ++r) {
    double quantile = 0;  // base-2 radical inverse of r + 1
    double digit = 0.5;
    for (size_t x = r + 1; x > 0; x >>= 1, digit /= 2) {
      if (x & 1) quantile += digit;
    }
    size_t pos = std::min(n - 1, static_cast<size_t>(quantile * static_cast<double>(n)));
    for (size_t d = 0;; ++d) {  // nearest unused slot
      if (pos + d < n && !used[pos + d]) {
        pos += d;
        break;
      }
      if (d <= pos && !used[pos - d]) {
        pos -= d;
        break;
      }
    }
    used[pos] = true;
    ranked.push_back(static_cast<uint32_t>(sorted[pos]));
  }
  return ranked;
}

/// `n` seeded Zipf-Mandelbrot draws of ranks in [0, pool).
std::vector<uint32_t> ZipfDraws(size_t pool, size_t n, uint64_t seed) {
  std::vector<double> cumulative(pool);
  double total = 0;
  for (size_t r = 0; r < pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1) + kZipfShift, kZipfExponent);
    cumulative[r] = total;
  }
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> draws(n);
  for (uint32_t& d : draws) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    d = static_cast<uint32_t>(
        std::min<size_t>(pool - 1, std::upper_bound(cumulative.begin(), cumulative.end(), u) -
                                       cumulative.begin()));
  }
  return draws;
}

uint64_t CounterSum(const obs::MetricRegistry& registry, const std::string& name) {
  uint64_t sum = 0;
  for (const obs::CounterSnapshot& c : registry.Snapshot().counters) {
    if (c.info.name == name) sum += c.value;
  }
  return sum;
}

/// Per-reload timings (ms) and shard counts of the write-path reloads.
struct ReloadSteps {
  std::vector<double> reload_ms;
  std::vector<double> csv_load_ms;
  std::vector<double> update_shards_ms;
  std::vector<double> reld_ms;
  std::vector<double> shards_rebuilt;
  std::vector<double> shards_reused;
};

/// What one client saw in a timed phase.
struct ClientLog {
  std::vector<double> latencies;
  size_t failed = 0;
  std::vector<serving::QueryStats> stats;  ///< traced phase only
};

}  // namespace

Status RunRemoteService(const Args& args, Report& report) {
  const Sizes sizes = SizesFor(args.scale);
  const std::string csv_dir = args.work_dir + "/lake";
  const std::string base = args.work_dir + "/remote";

  // Inputs: the generated lake written as CSV files (benchmark work).
  const Clock::time_point t0 = Clock::now();
  benchdata::GeneratedLake data = MakeLake(sizes.universe_tables, kUniverseSeed, args.seed);
  const double generate_s = SecondsSince(t0);
  std::filesystem::create_directories(csv_dir);
  for (const Table& table : data.lake.tables()) {
    D3L_RETURN_NOT_OK(WriteCsvFile(table, csv_dir + "/" + table.name() + ".csv"));
  }
  // The pool in popularity order: rank 0 is the most frequent target.
  const std::vector<uint32_t> pool =
      PopularityOrder(data.lake, sizes.pool, args.seed ^ 0x9001);
  std::vector<std::vector<uint32_t>> draws;
  for (size_t c = 0; c < kClients; ++c) {
    draws.push_back(ZipfDraws(pool.size(), kDrawsPerClient, args.seed * 131 + c));
  }

  obs::MetricRegistry registry;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> deployment;
  for (size_t r = 0; r < sizes.setups; ++r) {
    deployment.reset();
    SetupTimes s;
    D3L_ASSIGN_OR_RETURN(deployment, Deploy(csv_dir, base, &registry, &s));
    setups.push_back(s);
  }

  // References through an in-process ShardedEngine over the same manifest.
  std::vector<Ranking> reference;
  std::vector<std::string> pool_names;
  double index_bytes = 0;
  {
    serving::ShardedEngineOptions ref_options;
    ref_options.num_threads = kReferenceThreads;
    D3L_ASSIGN_OR_RETURN(std::unique_ptr<serving::ShardedEngine> ref,
                         serving::ShardedEngine::Open(deployment->manifest_path, ref_options));
    for (size_t s = 0; s < ref->num_shards(); ++s) {
      index_bytes += static_cast<double>(ref->shard(s).build_stats().index_bytes);
    }
    constexpr size_t kChunk = 64;
    for (size_t i = 0; i < pool.size(); i += kChunk) {
      serving::QueryBatch batch;
      batch.k = kK;
      for (size_t j = i; j < std::min(pool.size(), i + kChunk); ++j) {
        batch.targets.push_back(&data.lake.table(pool[j]));
      }
      for (auto& result : ref->Execute(batch)) {
        D3L_RETURN_NOT_OK(result.status());
        reference.push_back(RankingOf(*result, *ref));
      }
    }
  }
  for (uint32_t id : pool) pool_names.push_back(data.lake.table(id).name());
  const Quality quality = Evaluate(reference, pool_names, data.truth);
  if (args.perturb_reference) Perturb(reference[draws[0][0]]);

  serving::RemoteBackend& backend = *deployment->backend;
  // Untimed warm-up straight through the backend: faults in the servers'
  // mapped snapshots without touching any result cache.
  for (size_t i = 0; i < std::min(sizes.warmup, pool.size()); ++i) {
    report.Attempted();
    auto result = backend.Search(data.lake.table(pool[i]), kK);
    if (!result.ok() || !(RankingOf(*result, backend) == reference[i])) report.Failed();
  }

  // One timed phase: a fresh service (cold cache) and kClients closed-loop
  // clients, each cycling through its own Zipf draws.
  auto run_phase = [&](double seconds, bool traced) {
    // Queries run on the client's thread: with one client a worker pool only
    // adds two thread wake-ups per query, and on a shared host each wake-up
    // of an idle vCPU can wait for the host to schedule it.
    serving::DiscoveryServiceOptions service_options;
    service_options.inline_execution = true;
    service_options.trace_queries = traced;
    service_options.registry = &registry;
    serving::DiscoveryService service(&backend, service_options);
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        for (size_t n = 0; SecondsSince(start) < seconds; ++n) {
          const uint32_t rank = draws[c][n % draws[c].size()];
          serving::QueryRequest request;
          request.target = &data.lake.table(pool[rank]);
          request.k = kK;
          const Clock::time_point q0 = Clock::now();
          serving::QueryResponse response = service.Submit(request).get();
          log.latencies.push_back(SecondsSince(q0));
          if (!response.result.ok() ||
              !(RankingOf(*response.result, backend) == reference[rank])) {
            ++log.failed;
          }
          if (traced) log.stats.push_back(std::move(response.stats));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall = SecondsSince(start);
    ClientLog all;
    for (ClientLog& log : logs) {
      all.latencies.insert(all.latencies.end(), log.latencies.begin(), log.latencies.end());
      all.failed += log.failed;
      for (auto& s : log.stats) all.stats.push_back(std::move(s));
    }
    report.Attempted(all.latencies.size());
    report.Failed(all.failed);
    return std::make_pair(std::move(all), wall);
  };

  // After the timed phase: reloads through the write path. Each one
  // appends a row to one more seeded table's CSV file, then reloads the
  // lake (DataLake::LoadDirectory), rebuilds its dirty shard (UpdateShards:
  // re-profiling, signing, LSH insert, fsync'd snapshot save) and runs a
  // RELD round, in which every server re-opens the manifest reusing its
  // unchanged replicas and the backend re-stitches the deployment.
  auto run_reloads = [&]() -> Result<ReloadSteps> {
    ReloadSteps steps;
    const std::vector<size_t> edits = SeededOrder(data.lake.size(), args.seed ^ 0x4e1d);
    for (size_t r = 0; r < sizes.reloads; ++r) {
      Table edited = data.lake.table(edits[r]);
      std::vector<std::string> row;
      for (size_t c = 0; c < edited.num_columns(); ++c) row.push_back(edited.column(c).cell(0));
      D3L_RETURN_NOT_OK(edited.AddRow(row));
      D3L_RETURN_NOT_OK(WriteCsvFile(edited, csv_dir + "/" + edited.name() + ".csv"));
      report.Attempted();
      const Clock::time_point r0 = Clock::now();
      DataLake lake;
      D3L_RETURN_NOT_OK(lake.LoadDirectory(csv_dir));
      const Clock::time_point r1 = Clock::now();
      D3L_ASSIGN_OR_RETURN(serving::ShardUpdateReport update,
                           serving::UpdateShards(lake, Sharding(), base));
      const Clock::time_point r2 = Clock::now();
      if (!backend.Reload().ok()) report.Failed();
      const Clock::time_point r3 = Clock::now();
      steps.reload_ms.push_back(SecondsBetween(r0, r3) * 1e3);
      steps.csv_load_ms.push_back(SecondsBetween(r0, r1) * 1e3);
      steps.update_shards_ms.push_back(SecondsBetween(r1, r2) * 1e3);
      steps.reld_ms.push_back(SecondsBetween(r2, r3) * 1e3);
      steps.shards_rebuilt.push_back(static_cast<double>(update.rebuilt_shards.size()));
      steps.shards_reused.push_back(static_cast<double>(update.shards_reused));
    }
    return steps;
  };

  if (!args.trace) {
    auto [log, wall] = run_phase(args.seconds, false);
    ReportLatency(log.latencies, wall, report);
    report.Set("rss_mb", PeakRssMb(), "MB");
    report.Set("precision_at_k", quality.precision, "ratio");
    report.Set("recall_at_k", quality.recall, "ratio");
    report.Set("index_mb", index_bytes / 1e6, "MB");
    ReportSetup(setups, generate_s, false, report);
    D3L_ASSIGN_OR_RETURN(ReloadSteps steps, run_reloads());
    report.Set("reload_p50_ms", Median(steps.reload_ms), "ms");
  } else {
    ReportBypassedLayers(report);
    auto [plain, plain_wall] = run_phase(args.seconds / 2, false);
    const uint64_t bytes0 = CounterSum(registry, "d3l_rpc_client_bytes_sent_total") +
                            CounterSum(registry, "d3l_rpc_client_bytes_received_total");
    const uint64_t failures0 =
        CounterSum(registry, "d3l_rpc_client_transport_failures_total");
    auto [traced, traced_wall] = run_phase(args.seconds / 2, true);
    const uint64_t bytes1 = CounterSum(registry, "d3l_rpc_client_bytes_sent_total") +
                            CounterSum(registry, "d3l_rpc_client_bytes_received_total");
    const uint64_t failures1 =
        CounterSum(registry, "d3l_rpc_client_transport_failures_total");

    D3L_ASSIGN_OR_RETURN(
        SpanStats spans,
        ReportServiceTraces(traced.stats, args.work_dir + "/spans.jsonl", report));
    const double n = std::max<double>(1, static_cast<double>(traced.stats.size()));
    report.Set("rpc.prof_ms", spans.TotalMsPrefix("rpc:PROF") / n, "ms");
    report.Set("rpc.dcnt_ms", spans.TotalMsPrefix("rpc:DCNT") / n, "ms");
    report.Set("rpc.scor_ms", spans.TotalMsPrefix("rpc:SCOR") / n, "ms");
    report.Set("rpc.server_ms", spans.TotalMsPrefix("serve:") / n, "ms");
    report.Set("rpc.wire_ms", spans.SelfMsPrefix("rpc:") / n, "ms");
    report.Set("rpc.bytes_per_query", static_cast<double>(bytes1 - bytes0) / n, "B");
    report.Set("rpc.transport_failures", static_cast<double>(failures1 - failures0), "count");
    // Engine phases as the servers record them.
    report.Set("core.profile_ms", spans.TotalMs("engine:profile") / n, "ms");
    report.Set("lsh.depth_counts_ms", spans.TotalMs("engine:depth_counts") / n, "ms");
    report.Set("core.scoring_ms", spans.TotalMs("engine:score_at_stops") / n, "ms");
    ReportTraceOverhead(plain.latencies, traced.latencies, report);
    ReportSetup(setups, generate_s, true, report);
    D3L_ASSIGN_OR_RETURN(ReloadSteps steps, run_reloads());
    report.Set("table.csv_load_ms", Mean(steps.csv_load_ms), "ms");
    report.Set("serving.update_shards_ms", Mean(steps.update_shards_ms), "ms");
    report.Set("io.shard_open_ms", Mean(steps.reld_ms), "ms");
    report.Set("serving.shards_rebuilt", Mean(steps.shards_rebuilt), "count");
    report.Set("serving.replicas_reused", Mean(steps.shards_reused), "count");
  }
  return Status::OK();
}

}  // namespace d3lbench
