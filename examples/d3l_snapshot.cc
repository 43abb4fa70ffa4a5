// Snapshot CLI: profile a CSV lake once, then serve discovery queries from
// the persisted index ("profile once, serve many") — monolithic or sharded.
//
//   $ ./build/d3l_snapshot build <csv_dir> <out.d3l>
//       Loads every *.csv in <csv_dir>, runs Algorithm 1 over the lake and
//       writes the built engine (profiles, signatures, LSH structures,
//       schema metadata) to <out.d3l>.
//
//   $ ./build/d3l_snapshot query <backend> <target.csv> [k] [--threads=T]
//                                [--repeat=N] [--cache=C] [--plain]
//       Opens ANY backend reference through serving::OpenBackend and serves
//       the top-k query through the DiscoveryService front-end (default
//       k = 5): a snapshot file or snapshot:<path> loads the monolithic
//       engine (no re-profiling of the lake); a manifest file or
//       manifest:<path> opens every shard replica and serves the query
//       scatter-gather across a T-thread pool; tcp:host:port[,host:port...]
//       connects to running shard_server processes and scatter-gathers
//       remotely. All three paths produce byte-identical rankings over the
//       same lake. `query --shards <base.manifest>` and `query --remote
//       <host:port[,...]>` are spelling shortcuts for the manifest:/tcp:
//       prefixes. --repeat=N serves the query N times (serve-style
//       repeated-query mode): with the result cache on (capacity C, default
//       256; 0 disables) every repeat after the first is a cache hit, and
//       the per-query stats printed at the end show the hit/miss latencies.
//       --plain prints only the ranking (rank, dataset, full-precision
//       distance) — the byte-comparable form the remote smoke test diffs.
//
//   $ ./build/d3l_snapshot shard <csv_dir> <out_base> [--shards=N] [--balance=cells|rr]
//       Partitions the lake into N shards (default 2; size-balanced by
//       cell count, or round-robin with --balance=rr), indexes each shard
//       independently and writes <out_base>.shard<i>.d3l plus
//       <out_base>.manifest.
//
//   $ ./build/d3l_snapshot update <csv_dir> <out_base>
//       Incrementally rebuilds the sharded deployment at <out_base> to
//       match the (changed) CSV directory: diffs the lake against the
//       manifest's recorded source identities and re-profiles ONLY the
//       shards whose tables were added, removed or edited — the others'
//       snapshots are reused byte-for-byte, and added tables are placed
//       by the deployment's recorded balance policy. The updated
//       deployment answers queries exactly like a from-scratch `shard`
//       over the new lake at the same placement.
//
//   $ ./build/d3l_snapshot serve <csv_dir> <out_base> [k] [--threads=T] [--cache=C]
//                                [--shards=N] [--balance=cells|rr]
//                                [--watch] [--interval=MS]
//       Long-running server over a sharded deployment (built from
//       <csv_dir> on first run). Reads commands from stdin, one per line:
//       a CSV path serves that file as a top-k query, `reload` runs an
//       incremental rebuild + RCU generation swap (in-flight queries keep
//       the old index; see serving/hot_reload.h), `stats` prints the
//       service and reload counters plus the full Prometheus text
//       exposition of every registry series, `quit` exits. With --watch a
//       background poller (every MS milliseconds, default 500) reloads
//       automatically whenever the CSV directory's recorded checksums go
//       stale — edits to the lake show up in query results without a
//       restart.
//
//   $ ./build/d3l_snapshot info <file> [csv_dir]
//       Prints container metadata (format version, section table with
//       offsets, sizes and checksum state) plus, for engine snapshots, the
//       table/attribute counts, key options, whether the format is
//       mappable (aligned arrays, v2 on) and a trial mapped load's stats
//       (zero-copy engaged?, banded indexes borrowed, alignment-padding
//       bytes, open/parse time),
//       and for shard manifests, the per-shard layout. With a CSV
//       directory, each shard is additionally checked for staleness
//       against the current files (by recorded size/CRC32 only — nothing
//       is parsed or profiled).
//
// Snapshots are self-contained: `query` never touches the original CSV
// directory, which is what makes a snapshot (or a shard set) the unit of
// deployment for a serving replica.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "eval/table_printer.h"
#include "io/binary_io.h"
#include "serving/backend_ref.h"
#include "serving/discovery_service.h"
#include "serving/hot_reload.h"
#include "serving/manifest.h"
#include "serving/search_backend.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "table/csv.h"
#include "table/lake.h"

using namespace d3l;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s build <csv_dir> <out.d3l>\n"
      "  %s query <backend> <target.csv> [k] [--threads=T] [--repeat=N]\n"
      "       [--cache=C] [--plain]\n"
      "       <backend>: snapshot.d3l | base.manifest | snapshot:<path> |\n"
      "                  manifest:<path> | tcp:host:port[,host:port...]\n"
      "       (query --shards <base.manifest> and query --remote\n"
      "        <host:port[,...]> are shortcuts for the last two)\n"
      "  %s shard <csv_dir> <out_base> [--shards=N] [--balance=cells|rr]\n"
      "  %s update <csv_dir> <out_base>\n"
      "  %s serve <csv_dir> <out_base> [k] [--threads=T] [--cache=C]\n"
      "       [--shards=N] [--balance=cells|rr] [--watch] [--interval=MS]\n"
      "  %s info <snapshot.d3l | base.manifest> [csv_dir]\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

int RunBuild(const std::string& csv_dir, const std::string& out_path) {
  DataLake lake;
  Status load = lake.LoadDirectory(csv_dir);
  if (!load.ok()) return Fail(load);
  if (lake.size() == 0) {
    std::fprintf(stderr, "no CSV files found in %s\n", csv_dir.c_str());
    return 1;
  }
  LakeStats stats = lake.Stats();
  std::printf("loaded %zu tables, %zu attributes from %s\n", stats.num_tables,
              stats.num_attributes, csv_dir.c_str());

  core::D3LEngine engine;
  eval::Timer timer;
  Status indexed = engine.IndexLake(lake);
  if (!indexed.ok()) return Fail(indexed);
  std::printf("indexed in %.3fs (profiling %.3fs, insertion %.3fs)\n", timer.Seconds(),
              engine.build_stats().profile_seconds, engine.build_stats().insert_seconds);

  Status saved = engine.SaveSnapshot(out_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("snapshot written to %s\n", out_path.c_str());
  return 0;
}

void PrintRanking(const core::SearchResult& res,
                  const std::function<std::string(uint32_t)>& name_of) {
  eval::TablePrinter out({"rank", "dataset", "distance"});
  int rank = 1;
  for (const auto& m : res.ranked) {
    out.AddRow({std::to_string(rank++), name_of(m.table_index),
                eval::TablePrinter::Num(m.distance)});
  }
  out.Print();
}

/// Serves `repeat` identical queries through the unified async front-end
/// (the same code path for monolithic and sharded backends) and prints the
/// ranking once plus, for repeated serving, the cache hit/miss stats.
int ServeQueries(const serving::SearchBackend& backend, const Table& target, size_t k,
                 size_t repeat, size_t cache_capacity) {
  serving::DiscoveryServiceOptions service_options;
  service_options.cache_capacity = cache_capacity;
  // The repeats are strictly sequential, so run them inline on this thread
  // (no idle worker pool, no queue-time noise in the printed latencies).
  service_options.inline_execution = true;
  serving::DiscoveryService service(&backend, service_options);

  double miss_seconds = 0, hit_seconds = 0;
  size_t misses = 0, hits = 0;
  bool printed = false;
  for (size_t r = 0; r < repeat; ++r) {
    serving::QueryResponse response =
        service.Query({&target, k, std::nullopt, /*bypass_cache=*/false});
    if (!response.result.ok()) return Fail(response.result.status());
    if (response.stats.cache_hit) {
      ++hits;
      hit_seconds += response.stats.total_seconds;
    } else {
      ++misses;
      miss_seconds += response.stats.total_seconds;
    }
    if (!printed) {
      PrintRanking(*response.result,
                   [&](uint32_t t) { return backend.table_name(t); });
      printed = true;
    }
  }
  if (repeat > 1) {
    serving::ServiceStats stats = service.Stats();
    std::printf("\nserved %zu repeats: %zu cache hits / %zu misses "
                "(capacity %zu)\n",
                repeat, stats.cache_hits, stats.cache_misses,
                stats.cache.capacity);
    if (misses > 0) {
      std::printf("mean miss latency: %.3f ms\n",
                  miss_seconds * 1000 / static_cast<double>(misses));
    }
    if (hits > 0) {
      std::printf("mean hit latency:  %.3f ms\n",
                  hit_seconds * 1000 / static_cast<double>(hits));
    }
  }
  return 0;
}

/// Serves `query` over ANY backend ref — an engine snapshot, a shard
/// manifest (local scatter-gather) or tcp: shard-server endpoints (remote
/// scatter-gather) — through the single serving::OpenBackend factory; the
/// serving path after open is identical for all three. --plain prints the
/// ranking alone (rank, dataset, full-precision distance), the
/// byte-comparable form examples/remote_smoke.sh diffs between a local and
/// a remote deployment of the same manifest.
int RunBackendQuery(const std::string& spec, const std::string& target_csv,
                    size_t k, size_t threads, size_t repeat,
                    size_t cache_capacity, bool plain) {
  serving::OpenBackendOptions open_options;
  open_options.sharded.num_threads = threads;
  open_options.remote.num_threads = threads;
  eval::Timer timer;
  auto backend = serving::OpenBackend(spec, open_options);
  if (!backend.ok()) return Fail(backend.status());
  serving::BackendInfo info = (*backend)->Info();
  if (!plain) {
    std::printf("opened %s backend in %.3fs: %zu tables, %zu attributes, "
                "%zu shard%s\n",
                serving::BackendKindName(info.kind), timer.Seconds(),
                info.num_tables, info.num_attributes, info.num_shards,
                info.num_shards == 1 ? "" : "s");
    std::printf("options fingerprint %016llx, index fingerprint %016llx\n",
                static_cast<unsigned long long>(info.options_fingerprint),
                static_cast<unsigned long long>(info.index_fingerprint));
  }

  auto target = ReadCsvFile(target_csv);
  if (!target.ok()) return Fail(target.status());

  if (plain) {
    auto result = (*backend)->Search(*target, k);
    if (!result.ok()) return Fail(result.status());
    int rank = 1;
    for (const auto& m : result->ranked) {
      std::printf("%d\t%s\t%.17g\n", rank++,
                  (*backend)->table_name(m.table_index).c_str(), m.distance);
    }
    return 0;
  }

  std::printf("query target: %s (%zu columns)\n\n", target->name().c_str(),
              target->num_columns());
  return ServeQueries(**backend, *target, k, repeat, cache_capacity);
}

int RunShard(const std::string& csv_dir, const std::string& out_base,
             size_t num_shards, serving::ShardingOptions::Balance balance) {
  DataLake lake;
  Status load = lake.LoadDirectory(csv_dir);
  if (!load.ok()) return Fail(load);
  if (lake.size() == 0) {
    std::fprintf(stderr, "no CSV files found in %s\n", csv_dir.c_str());
    return 1;
  }
  serving::ShardingOptions options;
  options.num_shards = num_shards;
  options.balance = balance;
  auto report = serving::BuildShards(lake, options, out_base);
  if (!report.ok()) return Fail(report.status());
  std::printf("sharded %zu tables into %zu shards in %.3fs:\n", lake.size(),
              report->shard_paths.size(), report->build_seconds);
  for (size_t s = 0; s < report->shard_paths.size(); ++s) {
    std::printf("  %s (%zu tables)\n", report->shard_paths[s].c_str(),
                report->plan[s].size());
  }
  std::printf("manifest written to %s\n", report->manifest_path.c_str());
  return 0;
}

int RunUpdate(const std::string& csv_dir, const std::string& out_base) {
  DataLake lake;
  Status load = lake.LoadDirectory(csv_dir);
  if (!load.ok()) return Fail(load);
  if (lake.size() == 0) {
    std::fprintf(stderr, "no CSV files found in %s\n", csv_dir.c_str());
    return 1;
  }
  // Shard count and balance policy come from the deployed manifest, not
  // flags: an update never repartitions.
  auto report = serving::UpdateShards(lake, serving::ShardingOptions{}, out_base);
  if (!report.ok()) return Fail(report.status());
  std::printf("updated %zu-shard deployment in %.3fs: %zu rebuilt, %zu reused\n",
              report->shard_paths.size(), report->build_seconds,
              report->rebuilt_shards.size(), report->shards_reused);
  const auto print_list = [](const char* what, const std::vector<std::string>& files) {
    if (files.empty()) return;
    std::printf("%s (%zu):", what, files.size());
    for (const std::string& f : files) std::printf(" %s", f.c_str());
    std::printf("\n");
  };
  print_list("added", report->added);
  print_list("removed", report->removed);
  print_list("changed", report->changed);
  for (size_t s : report->rebuilt_shards) {
    std::printf("  rebuilt %s (%zu tables)\n", report->shard_paths[s].c_str(),
                report->plan[s].size());
  }
  std::printf("manifest rewritten at %s\n", report->manifest_path.c_str());
  return 0;
}

int RunServe(const std::string& csv_dir, const std::string& out_base, size_t k,
             size_t threads, size_t cache_capacity, size_t num_shards,
             serving::ShardingOptions::Balance balance, bool watch,
             size_t interval_ms) {
  serving::HotReloaderOptions options;
  options.sharding.num_shards = num_shards;  // first build only; updates
  options.sharding.balance = balance;        // keep the deployed config
  options.engine.num_threads = threads;
  options.service.cache_capacity = cache_capacity;
  // The stdin loop is strictly sequential; inline execution keeps the
  // printed latencies free of queue-time noise. Reloads still swap from
  // the watcher thread, which is exactly what the generation snapshot in
  // DiscoveryService::Execute makes safe.
  options.service.inline_execution = true;
  options.watch_interval_ms = interval_ms;

  eval::Timer timer;
  auto opened = serving::HotReloader::Open(csv_dir, out_base, options);
  if (!opened.ok()) return Fail(opened.status());
  std::unique_ptr<serving::HotReloader> server = std::move(opened).ValueOrDie();
  serving::BackendInfo info = server->service().Info();
  std::printf("serving %zu shards (%zu tables, %zu attributes) in %.3fs, "
              "index fingerprint %016llx\n",
              info.num_shards, info.num_tables, info.num_attributes,
              timer.Seconds(),
              static_cast<unsigned long long>(info.index_fingerprint));
  if (watch) {
    server->StartWatching();
    std::printf("watching %s every %zums\n", csv_dir.c_str(), interval_ms);
  }
  std::printf("commands: <target.csv> | reload | stats | quit\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    // Trim surrounding whitespace so piped heredocs behave.
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    line = line.substr(b, line.find_last_not_of(" \t\r") - b + 1);
    if (line == "quit" || line == "exit") break;
    if (line == "reload") {
      auto report = server->Reload();
      if (!report.ok()) {
        // An error keeps the old generation serving; report and carry on.
        std::fprintf(stderr, "reload failed: %s\n",
                     report.status().ToString().c_str());
        continue;
      }
      if (report->swapped) {
        std::printf("reloaded in %.3fs: %zu shards rebuilt, %zu replicas "
                    "reused, now serving %016llx\n",
                    report->seconds, report->shards_rebuilt,
                    report->replicas_reused,
                    static_cast<unsigned long long>(report->index_fingerprint));
      } else {
        std::printf("reload: deployment already current (%016llx)\n",
                    static_cast<unsigned long long>(report->index_fingerprint));
      }
      continue;
    }
    if (line == "stats") {
      serving::ServiceStats service_stats = server->service().Stats();
      serving::ReloadStats reload_stats = server->Stats();
      std::printf("queries: %zu completed, %zu failed, %zu cache hits / %zu "
                  "misses\n",
                  service_stats.completed, service_stats.failed,
                  service_stats.cache_hits, service_stats.cache_misses);
      std::printf("reloads: %zu swapped, %zu no-op, %zu failed, %zu watch "
                  "polls, serving %016llx\n",
                  reload_stats.reloads, reload_stats.noop_reloads,
                  reload_stats.failed_reloads, reload_stats.watch_polls,
                  static_cast<unsigned long long>(reload_stats.index_fingerprint));
      // Full Prometheus exposition under the summary — every registry
      // series (service, cache, pool), same bytes a STAT scrape returns.
      const std::string text = obs::MetricRegistry::Default().ExportText();
      std::fwrite(text.data(), 1, text.size(), stdout);
      std::fflush(stdout);
      continue;
    }
    auto target = ReadCsvFile(line);
    if (!target.ok()) {
      std::fprintf(stderr, "error: %s\n", target.status().ToString().c_str());
      continue;
    }
    serving::QueryResponse response =
        server->service().Query({&*target, k, std::nullopt, false});
    if (!response.result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.result.status().ToString().c_str());
      continue;
    }
    std::printf("%s: top %zu in %.3fms (generation %016llx%s)\n",
                target->name().c_str(), k, response.stats.total_seconds * 1000,
                static_cast<unsigned long long>(response.stats.index_fingerprint),
                response.stats.cache_hit ? ", cache hit" : "");
    // Names resolve against one pinned generation (a watcher-thread swap
    // between Query and here must not read two different numberings).
    const std::shared_ptr<const serving::ShardedEngine> gen = server->engine();
    PrintRanking(*response.result,
                 [&gen](uint32_t t) { return gen->table_name(t); });
  }
  return 0;
}

int RunInfo(const std::string& path, const std::string& csv_dir) {
  auto inspected = io::InspectFile(path);
  if (!inspected.ok()) return Fail(inspected.status());

  std::string magic_display;
  for (char c : inspected->magic) {
    if (c == '\n') {
      magic_display += "\\n";
    } else if (c >= 0x20 && c < 0x7f) {
      magic_display.push_back(c);
    } else {
      magic_display.push_back('?');
    }
  }
  std::printf("%s: magic \"%s\", format v%u, %llu bytes\n", path.c_str(),
              magic_display.c_str(), inspected->version,
              static_cast<unsigned long long>(inspected->file_bytes));

  eval::TablePrinter sections({"section", "offset", "payload bytes", "checksum"});
  for (const io::SectionInfo& s : inspected->sections) {
    sections.AddRow({io::SectionName(s.id), std::to_string(s.payload_offset),
                     std::to_string(s.payload_bytes), s.crc_ok ? "ok" : "MISMATCH"});
  }
  sections.Print();

  const std::string magic = inspected->magic;
  if (magic == std::string(core::D3LEngine::kSnapshotMagic, 8)) {
    auto info = core::D3LEngine::ReadSnapshotInfo(path);
    if (!info.ok()) return Fail(info.status());
    std::printf("\nengine snapshot: %zu tables, %zu attributes\n", info->num_tables,
                info->num_attributes);
    std::printf("mappable: %s\n",
                info->mappable
                    ? "yes (aligned index arrays; loads are zero-copy)"
                    : "no (v1 per-entry layout; loads deserialize)");
    {
      // Trial mapped load: reports whether zero-copy actually engages on
      // this platform and how many alignment-padding bytes the writer
      // spent to make the arrays land 8-aligned.
      DataLake trial_lake;
      auto trial = core::D3LEngine::LoadSnapshot(path, &trial_lake,
                                                 core::SnapshotLoadMode::kMapped);
      if (trial.ok()) {
        const core::SnapshotLoadStats& ls = (*trial)->load_stats();
        std::printf("trial load: %s, %zu/5 banded indexes borrowed, %llu "
                    "alignment-padding bytes, %.3fs open (%.3fs index parse, "
                    "%.6fs forest parse)\n",
                    ls.mapped ? "mapped (zero-copy)" : "buffered fallback",
                    (*trial)->indexes().banded_borrowing_mapping(),
                    static_cast<unsigned long long>(ls.pad_bytes),
                    ls.open_seconds, ls.index_parse_seconds,
                    ls.forest_parse_seconds);
      }
    }
    std::printf("options: minhash=%zu rp_bits=%zu trees=%zux%zu threshold=%.2f "
                "candidates/attr=%zu\n",
                info->options.index.minhash_size, info->options.index.rp_bits,
                info->options.index.forest.num_trees,
                info->options.index.forest.hashes_per_tree,
                info->options.index.lsh_threshold,
                info->options.candidates_per_attribute);
    // The canonical options fingerprint: snapshots agree exactly when a
    // result cache may serve one's entries for the other's queries (the
    // full cache key also folds the index fingerprint — see
    // serving/discovery_service.h).
    std::printf("options fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    core::OptionsFingerprint(info->options)));
  } else if (magic == std::string(serving::ShardManifest::kMagic, 8)) {
    auto manifest = serving::ShardManifest::Load(path);
    if (!manifest.ok()) return Fail(manifest.status());
    std::printf("\nshard manifest (v%u): %llu tables, %llu attributes, %zu shards (%s)\n",
                manifest->version,
                static_cast<unsigned long long>(manifest->total_tables),
                static_cast<unsigned long long>(manifest->total_attributes),
                manifest->shards.size(), manifest->balance.c_str());
    // Per-shard staleness against the CSV directory (v2 manifests record
    // every table's source size/CRC32; nothing is parsed or profiled).
    std::vector<serving::ShardFreshness> freshness;
    if (!csv_dir.empty()) {
      auto checked = serving::CheckFreshness(*manifest, csv_dir);
      if (!checked.ok()) return Fail(checked.status());
      freshness = std::move(checked->shards);
      if (!checked->new_files.empty()) {
        std::printf("%zu new csv file(s) not in any shard (first: %s)\n",
                    checked->new_files.size(), checked->new_files[0].c_str());
      }
    }
    eval::TablePrinter shards(
        freshness.empty()
            ? std::vector<std::string>{"shard", "file", "tables", "attrs", "bytes"}
            : std::vector<std::string>{"shard", "file", "tables", "attrs", "bytes",
                                       "status"});
    for (size_t s = 0; s < manifest->shards.size(); ++s) {
      const serving::ShardManifestEntry& e = manifest->shards[s];
      std::vector<std::string> row{std::to_string(s), e.file,
                                   std::to_string(e.num_tables),
                                   std::to_string(e.num_attributes),
                                   std::to_string(e.file_bytes)};
      if (!freshness.empty()) {
        const serving::ShardFreshness& f = freshness[s];
        std::string status;
        if (f.fresh()) {
          status = "fresh";
        } else {
          // Unreadable sources are reported apart from missing ones: the
          // checksums could not be re-verified, which is not the same
          // claim as "the file was deleted" — and never "fresh".
          status = "stale (" + std::to_string(f.changed) + " changed, " +
                   std::to_string(f.missing) + " missing";
          if (f.unreadable > 0) {
            status += ", " + std::to_string(f.unreadable) + " unreadable";
          }
          status += ")";
        }
        row.push_back(std::move(status));
      }
      shards.AddRow(std::move(row));
    }
    shards.Print();
    // Shard sets are options-uniform (enforced at Open), so shard 0's
    // options fingerprint is the deployment's cache-compatibility identity.
    if (!manifest->shards.empty()) {
      const std::string shard0 =
          serving::ResolveRelative(path, manifest->shards[0].file);
      auto info = core::D3LEngine::ReadSnapshotInfo(shard0);
      if (info.ok()) {
        std::printf("options fingerprint: %016llx (from %s)\n",
                    static_cast<unsigned long long>(
                        core::OptionsFingerprint(info->options)),
                    manifest->shards[0].file.c_str());
      }
    }
  }
  return 0;
}

/// Parses trailing [k] / --threads=T / --repeat=N / --cache=C / --shards=N
/// / --balance= flags. Flags outside a subcommand's whitelist are rejected,
/// not ignored — a silently dropped --threads would look like configured
/// parallelism.
struct ParsedFlags {
  size_t k = 5;
  size_t threads = 0;
  size_t shards = 2;
  size_t repeat = 1;
  size_t cache = 256;
  serving::ShardingOptions::Balance balance =
      serving::ShardingOptions::Balance::kSizeBalanced;
  bool watch = false;
  bool plain = false;
  size_t interval = 500;
  std::vector<std::string> positional;
  bool ok = true;
};

ParsedFlags ParseFlags(int argc, char** argv, int first, bool allow_threads,
                       bool allow_shard_flags, bool allow_serve_flags = false,
                       bool allow_watch_flags = false) {
  ParsedFlags f;
  const auto reject = [&f](const char* flag, const char* why) {
    std::fprintf(stderr, "%s flag '%s'\n", why, flag);
    f.ok = false;
    return f;
  };
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--threads=", 10) == 0) {
      if (!allow_threads) return reject(a, "subcommand does not take");
      long v = std::atol(a + 10);
      if (v < 0) return reject(a, "non-negative value required for");
      f.threads = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--repeat=", 9) == 0) {
      if (!allow_serve_flags) return reject(a, "subcommand does not take");
      long v = std::atol(a + 9);
      if (v <= 0) return reject(a, "positive value required for");
      f.repeat = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      if (!allow_serve_flags) return reject(a, "subcommand does not take");
      long v = std::atol(a + 8);
      if (v < 0) return reject(a, "non-negative value required for");
      f.cache = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--shards=", 9) == 0) {
      if (!allow_shard_flags) return reject(a, "subcommand does not take");
      long v = std::atol(a + 9);
      if (v <= 0) return reject(a, "positive value required for");
      f.shards = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--balance=", 10) == 0) {
      if (!allow_shard_flags) return reject(a, "subcommand does not take");
      if (std::strcmp(a + 10, "rr") == 0) {
        f.balance = serving::ShardingOptions::Balance::kRoundRobin;
      } else if (std::strcmp(a + 10, "cells") == 0) {
        f.balance = serving::ShardingOptions::Balance::kSizeBalanced;
      } else {
        return reject(a, "unknown policy in");
      }
    } else if (std::strcmp(a, "--plain") == 0) {
      if (!allow_serve_flags) return reject(a, "subcommand does not take");
      f.plain = true;
    } else if (std::strcmp(a, "--watch") == 0) {
      if (!allow_watch_flags) return reject(a, "subcommand does not take");
      f.watch = true;
    } else if (std::strncmp(a, "--interval=", 11) == 0) {
      if (!allow_watch_flags) return reject(a, "subcommand does not take");
      long v = std::atol(a + 11);
      if (v <= 0) return reject(a, "positive value required for");
      f.interval = static_cast<size_t>(v);
    } else if (a[0] == '-' && a[1] == '-') {
      return reject(a, "unrecognized");
    } else {
      f.positional.push_back(a);
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);

  if (std::strcmp(argv[1], "build") == 0) {
    if (argc != 4) return Usage(argv[0]);
    return RunBuild(argv[2], argv[3]);
  }

  if (std::strcmp(argv[1], "query") == 0) {
    // --shards / --remote are spelling shortcuts for the explicit
    // manifest: / tcp: backend-ref prefixes; a bare first positional also
    // works (snapshot vs manifest resolved by file magic).
    const bool sharded = (argc >= 3 && std::strcmp(argv[2], "--shards") == 0);
    const bool remote = (argc >= 3 && std::strcmp(argv[2], "--remote") == 0);
    ParsedFlags f = ParseFlags(argc, argv, (sharded || remote) ? 3 : 2,
                               /*allow_threads=*/true,
                               /*allow_shard_flags=*/false,
                               /*allow_serve_flags=*/true);
    if (!f.ok || f.positional.size() < 2 || f.positional.size() > 3) {
      return Usage(argv[0]);
    }
    size_t k = 5;
    if (f.positional.size() == 3) {
      long parsed = std::atol(f.positional[2].c_str());
      if (parsed <= 0) return Usage(argv[0]);
      k = static_cast<size_t>(parsed);
    }
    std::string spec = f.positional[0];
    if (sharded) spec = "manifest:" + spec;
    if (remote) spec = "tcp:" + spec;
    return RunBackendQuery(spec, f.positional[1], k, f.threads, f.repeat,
                           f.cache, f.plain);
  }

  if (std::strcmp(argv[1], "shard") == 0) {
    ParsedFlags f = ParseFlags(argc, argv, 2, /*allow_threads=*/false,
                               /*allow_shard_flags=*/true);
    if (!f.ok || f.positional.size() != 2) return Usage(argv[0]);
    return RunShard(f.positional[0], f.positional[1], f.shards, f.balance);
  }

  if (std::strcmp(argv[1], "update") == 0) {
    // --shards= and --balance= are rejected here on purpose: an update
    // keeps the deployed shard count and balance policy (repartitioning
    // or a policy change is a full `shard` build).
    ParsedFlags f = ParseFlags(argc, argv, 2, /*allow_threads=*/false,
                               /*allow_shard_flags=*/false);
    if (!f.ok || f.positional.size() != 2) return Usage(argv[0]);
    return RunUpdate(f.positional[0], f.positional[1]);
  }

  if (std::strcmp(argv[1], "serve") == 0) {
    ParsedFlags f = ParseFlags(argc, argv, 2, /*allow_threads=*/true,
                               /*allow_shard_flags=*/true,
                               /*allow_serve_flags=*/true,
                               /*allow_watch_flags=*/true);
    if (!f.ok || f.positional.size() < 2 || f.positional.size() > 3) {
      return Usage(argv[0]);
    }
    size_t k = 5;
    if (f.positional.size() == 3) {
      long parsed = std::atol(f.positional[2].c_str());
      if (parsed <= 0) return Usage(argv[0]);
      k = static_cast<size_t>(parsed);
    }
    return RunServe(f.positional[0], f.positional[1], k, f.threads, f.cache,
                    f.shards, f.balance, f.watch, f.interval);
  }

  if (std::strcmp(argv[1], "info") == 0) {
    if (argc != 3 && argc != 4) return Usage(argv[0]);
    return RunInfo(argv[2], argc == 4 ? argv[3] : "");
  }

  return Usage(argv[0]);
}
