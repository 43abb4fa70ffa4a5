// Sharded scatter-gather search: wall-clock scaling with the shard count
// on the Synthetic repository, plus an exactness check against the single
// unsharded engine (the sharded top-k must be byte-identical).
//
//   $ ./build/shard_search [--scale=F] [--threads=T] [--k=K]
//
// Every ms/query figure is timed over at least 20 queries (the sampled
// targets, repeated in passes), so small scales do not time one query.
// Shard sets are built into a temporary directory and removed afterwards.
// Expected shape on a multi-core box with T >= 4: ms/query drops as the
// shard count grows (profiling the target once, then querying N smaller
// indexes in parallel), flattening once shards outnumber worker threads.
// On a single core the pipeline degenerates gracefully to serial scans.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "bench/bench_common.h"
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
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", a);
    }
  }
  printf("=== Sharded search scaling on Synthetic (scale=%.2f, threads=%zu, "
         "k=%zu) ===\n\n",
         scale, threads, k);

  auto data = bench::MakeSynthetic(scale);
  printf("lake: %zu tables\n", data.lake.size());

  core::D3LEngine unsharded;
  unsharded.IndexLake(data.lake).CheckOK();

  auto target_ids = eval::SampleTargets(data.lake, eval::Scaled(20, scale), 31);
  std::vector<const Table*> targets;
  for (uint32_t t : target_ids) targets.push_back(&data.lake.table(t));
  // Timed passes over the targets: at least kMinTimedQueries per figure.
  constexpr size_t kMinTimedQueries = 20;
  const size_t passes =
      (kMinTimedQueries + targets.size() - 1) / std::max<size_t>(1, targets.size());
  const double timed_queries = static_cast<double>(passes * targets.size());

  // Reference rankings (and a warm single-engine baseline timing).
  std::vector<core::SearchResult> reference;
  for (const Table* t : targets) {
    reference.push_back(std::move(*unsharded.Search(*t, k)));
  }
  eval::Timer t_single;
  for (size_t p = 0; p < passes; ++p) {
    for (const Table* t : targets) unsharded.Search(*t, k).status().CheckOK();
  }
  double single_ms = t_single.Seconds() * 1000 / timed_queries;
  printf("unsharded engine: %.2f ms/query over %zu queries (%zu targets x %zu passes)\n",
         single_ms, passes * targets.size(), targets.size(), passes);
  printf("each row's ms/query is timed over %zu queries\n\n", passes * targets.size());

  namespace fs = std::filesystem;
  fs::path tmp = fs::temp_directory_path() /
                 ("d3l_shard_search_" + std::to_string(::getpid()));
  fs::create_directories(tmp);

  eval::TablePrinter out(
      {"shards", "build (s)", "open (s)", "ms/query", "speedup vs 1", "exact"});
  double one_shard_ms = 0;
  bool all_exact = true;
  for (size_t n_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (n_shards > data.lake.size()) break;
    serving::ShardingOptions options;
    options.num_shards = n_shards;
    auto report = serving::BuildShards(
        data.lake, options, (tmp / ("s" + std::to_string(n_shards))).string());
    report.status().CheckOK();

    serving::ShardedEngineOptions open_options;
    open_options.num_threads = threads;
    eval::Timer t_open;
    auto engine = serving::ShardedEngine::Open(report->manifest_path, open_options);
    engine.status().CheckOK();
    double open_s = t_open.Seconds();

    serving::QueryBatch batch;
    batch.targets = targets;
    batch.k = k;
    // Warm-up — but an error here would skew the timed pass below, so
    // check it instead of discarding (this used to be a silent `(void)`).
    for (auto& warm : (*engine)->Execute(batch)) warm.status().CheckOK();
    eval::Timer t_query;
    auto results = (*engine)->Execute(batch);
    for (size_t p = 1; p < passes; ++p) {
      for (auto& again : (*engine)->Execute(batch)) again.status().CheckOK();
    }
    double ms = t_query.Seconds() * 1000 / timed_queries;
    if (n_shards == 1) one_shard_ms = ms;

    bool exact = true;
    for (size_t i = 0; i < results.size(); ++i) {
      results[i].status().CheckOK();
      exact = exact && SameRanking(reference[i], *results[i]);
    }
    all_exact = all_exact && exact;
    out.AddRow({std::to_string(n_shards), eval::TablePrinter::Num(report->build_seconds),
                eval::TablePrinter::Num(open_s), eval::TablePrinter::Num(ms, 2),
                eval::TablePrinter::Num(one_shard_ms / ms, 2), exact ? "yes" : "NO"});
  }
  out.Print();
  fs::remove_all(tmp);

  printf(
      "\nShape to check: every row's ranking is exact (byte-identical to the\n"
      "unsharded engine), and with >= 4 worker threads ms/query drops as the\n"
      "shard count grows toward the thread count.\n");
  if (!all_exact) {
    fprintf(stderr, "FAIL: a sharded ranking diverged from the unsharded engine\n");
    return 1;  // fails the CI bench-smoke step, not just the artifact text
  }
  return 0;
}
