// Snapshot load-path cost: mapped (zero-copy) vs copied (full
// deserialization) opens of the same engine snapshot, for the monolithic
// engine and a sharded deployment — plus the exactness gate (a mapped
// engine's rankings must be byte-identical to a copied one's), a speedup
// gate on the forest-deserialization phase and a borrow gate on the banded
// indexes. The CI bench-smoke run executes this at --scale=0.05.
//
//   $ ./build/snapshot_load [--scale=F] [--repeat=N] [--k=K]
//                           [--metrics-out=PATH]
//
// Reported per mode: best-of-N open wall clock, the INDX section decode,
// the forest-deserialization component of that decode, index heap
// (D3LIndexes::MemoryUsage), the process-resident delta after load + one
// query, and how many of the five banded indexes borrow the mapping. The
// speedup gate runs on the forest parse: a mapped load fixes up pointers
// into the mapping instead of materializing every key/id array, so its
// cost collapses from O(index bytes) to O(sections). It must be at least
// 5x faster mapped than copied. The banded threshold indexes are stored
// as sorted arrays since format v3 and load the same way: the borrow gate
// requires a mapped load to borrow all five and a copied load to own all
// five (a boolean check, not a timing). The enclosing index parse and
// end-to-end open are printed but not gated: the section CRCs, registry
// and signature decode cost the same under either mode.
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "io/binary_io.h"
#include "obs/metrics.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"

using namespace d3l;

namespace {

bool SameRanking(const core::SearchResult& a, const core::SearchResult& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].table_index != b.ranked[i].table_index ||
        a.ranked[i].distance != b.ranked[i].distance ||
        a.ranked[i].evidence_distances != b.ranked[i].evidence_distances) {
      return false;
    }
  }
  return true;
}

/// Current resident set in bytes (/proc/self/statm; 0 if unreadable).
size_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long vm_pages = 0, rss_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return rss_pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

struct LoadMeasurement {
  double open_seconds = 0;          ///< best-of-N wall clock
  double index_parse_seconds = 0;   ///< best-of-N INDX section decode
  double forest_parse_seconds = 0;  ///< best-of-N forest deserialization
  size_t index_heap_bytes = 0;      ///< D3LIndexes::MemoryUsage of one load
  size_t rss_delta_bytes = 0;       ///< resident growth across load + 1 query
  bool mapped = false;              ///< did zero-copy actually engage
  size_t banded_borrowed = 0;       ///< banded indexes borrowing the mapping (of 5)
};

const char* ModeName(core::SnapshotLoadMode mode) {
  return mode == core::SnapshotLoadMode::kMapped ? "mapped" : "copied";
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  size_t repeat = 3;
  size_t k = 10;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      double v = std::atof(a + 8);
      if (v > 0) scale = v;
    } else if (std::strncmp(a, "--repeat=", 9) == 0) {
      long v = std::atol(a + 9);
      if (v > 0) repeat = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--k=", 4) == 0) {
      long v = std::atol(a + 4);
      if (v > 0) k = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--metrics-out=", 14) == 0) {
      metrics_out = a + 14;
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", a);
    }
  }
  printf("=== Snapshot load: mapped vs copied on Synthetic (scale=%.2f, "
         "repeat=%zu, k=%zu) ===\n\n",
         scale, repeat, k);

  auto data = bench::MakeSynthetic(scale);
  printf("lake: %zu tables\n", data.lake.size());

  core::D3LEngine built;
  built.IndexLake(data.lake).CheckOK();

  namespace fs = std::filesystem;
  fs::path tmp = fs::temp_directory_path() /
                 ("d3l_snapshot_load_" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  const std::string snap_path = (tmp / "engine.d3l").string();
  built.SaveSnapshot(snap_path).CheckOK();
  printf("snapshot: %llu bytes (format v%u)\n\n",
         static_cast<unsigned long long>(fs::file_size(snap_path)),
         core::D3LEngine::kSnapshotVersion);

  auto target_ids = eval::SampleTargets(data.lake, eval::Scaled(10, scale), 17);
  if (target_ids.empty()) target_ids.push_back(0);
  std::vector<const Table*> targets;
  for (uint32_t t : target_ids) targets.push_back(&data.lake.table(t));

  // Reference rankings from the freshly built engine.
  std::vector<core::SearchResult> reference;
  for (const Table* t : targets) {
    reference.push_back(std::move(*built.Search(*t, k)));
  }

  // ---- monolithic engine: load under each mode ----
  // A first throwaway load warms the shared WEM registry and the page
  // cache, so both modes measure the same steady serving-process state.
  {
    DataLake warm_meta;
    core::D3LEngine::LoadSnapshot(snap_path, &warm_meta).status().CheckOK();
  }

  LoadMeasurement measured[2];
  bool all_exact = true;
  const core::SnapshotLoadMode kModes[2] = {core::SnapshotLoadMode::kCopied,
                                            core::SnapshotLoadMode::kMapped};
  for (int mi = 0; mi < 2; ++mi) {
    LoadMeasurement& m = measured[mi];
    m.open_seconds = 1e30;
    m.index_parse_seconds = 1e30;
    m.forest_parse_seconds = 1e30;
    for (size_t r = 0; r < repeat; ++r) {
      const size_t rss_before = ResidentBytes();
      DataLake meta;
      auto loaded = core::D3LEngine::LoadSnapshot(snap_path, &meta, kModes[mi]);
      loaded.status().CheckOK();
      const core::SnapshotLoadStats& ls = (*loaded)->load_stats();
      m.open_seconds = std::min(m.open_seconds, ls.open_seconds);
      m.index_parse_seconds = std::min(m.index_parse_seconds, ls.index_parse_seconds);
      m.forest_parse_seconds =
          std::min(m.forest_parse_seconds, ls.forest_parse_seconds);
      m.mapped = ls.mapped;
      m.banded_borrowed = (*loaded)->indexes().banded_borrowing_mapping();
      m.index_heap_bytes = (*loaded)->indexes().MemoryUsage();
      // Exactness: every target's ranking must match the built engine's.
      for (size_t i = 0; i < targets.size(); ++i) {
        auto res = (*loaded)->Search(*targets[i], k);
        res.status().CheckOK();
        all_exact = all_exact && SameRanking(reference[i], *res);
      }
      const size_t rss_after = ResidentBytes();
      m.rss_delta_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
    }
  }

  eval::TablePrinter out({"mode", "open (ms)", "index parse (ms)",
                          "forest parse (us)", "index heap (MB)",
                          "rss delta (MB)", "zero-copy", "banded borrowed"});
  for (int mi = 0; mi < 2; ++mi) {
    const LoadMeasurement& m = measured[mi];
    out.AddRow({ModeName(kModes[mi]),
                eval::TablePrinter::Num(m.open_seconds * 1000),
                eval::TablePrinter::Num(m.index_parse_seconds * 1000),
                eval::TablePrinter::Num(m.forest_parse_seconds * 1e6),
                eval::TablePrinter::Num(static_cast<double>(m.index_heap_bytes) / 1e6),
                eval::TablePrinter::Num(static_cast<double>(m.rss_delta_bytes) / 1e6),
                m.mapped ? "yes" : "no", std::to_string(m.banded_borrowed) + "/5"});
  }
  out.Print();

  const double parse_speedup =
      measured[1].forest_parse_seconds > 0
          ? measured[0].forest_parse_seconds / measured[1].forest_parse_seconds
          : 1e9;
  printf("\nforest deserialization speedup (copied / mapped): %.1fx\n",
         parse_speedup);
  const bool borrow_ok = measured[1].banded_borrowed == 5 && measured[0].banded_borrowed == 0;
  printf("banded borrow gate: %s\n",
         borrow_ok ? "pass (mapped load borrows all five, copied load owns them)"
                   : "FAIL (banded arrays not served as expected)");
  printf("exactness gate: %s\n",
         all_exact ? "pass (mapped and copied rankings byte-identical)"
                   : "FAIL (rankings diverged)");

  // ---- sharded open: replica loads dominate ShardedEngine::Open ----
  serving::ShardingOptions shard_opts;
  shard_opts.num_shards = 2;
  const std::string shard_base = (tmp / "deploy").string();
  auto report = serving::BuildShards(data.lake, shard_opts, shard_base);
  report.status().CheckOK();

  printf("\nsharded open (%zu shards):\n", shard_opts.num_shards);
  double sharded_open_ms[2] = {0, 0};
  bool sharded_exact = true;
  for (int mi = 0; mi < 2; ++mi) {
    double best = 1e30;
    for (size_t r = 0; r < repeat; ++r) {
      serving::ShardedEngineOptions open_opts;
      open_opts.load_mode = kModes[mi];
      eval::Timer timer;
      auto sharded = serving::ShardedEngine::Open(report->manifest_path, open_opts);
      best = std::min(best, timer.Seconds());
      sharded.status().CheckOK();
      if (r == 0) {
        for (size_t i = 0; i < targets.size(); ++i) {
          auto res = (*sharded)->Search(*targets[i], k);
          res.status().CheckOK();
          sharded_exact = sharded_exact && SameRanking(reference[i], *res);
        }
      }
    }
    sharded_open_ms[mi] = best * 1000;
    printf("  %s: %.2f ms\n", ModeName(kModes[mi]), sharded_open_ms[mi]);
  }
  printf("sharded exactness gate: %s\n",
         sharded_exact ? "pass (both modes byte-identical to the built engine)"
                       : "FAIL (sharded rankings diverged)");

  printf(
      "\nShape to check: the mapped forest deserialization collapses to\n"
      "pointer fixups (>= 5x under the copied full decode; gated), zero-copy\n"
      "engages (forest and banded arrays borrowed, index heap drops; the\n"
      "banded borrow is gated), and both load modes — engine and sharded —\n"
      "rank byte-identically to the freshly built engine. Index parse and\n"
      "open are reported, not gated: the section CRCs and the registry and\n"
      "signature decode cost the same under either mode.\n");

  if (!metrics_out.empty()) {
    obs::MetricRegistry registry;
    // The registry keeps weak references; the gauges must stay alive until
    // ExportText below.
    std::vector<std::shared_ptr<obs::Gauge>> gauges;
    const auto add = [&](const char* name, obs::LabelSet labels, int64_t v) {
      gauges.push_back(registry.AddGauge(name, std::move(labels)));
      gauges.back()->Set(v);
    };
    for (int mi = 0; mi < 2; ++mi) {
      const obs::LabelSet labels = {{"mode", ModeName(kModes[mi])}};
      add("d3l_snapshot_load_open_us", labels,
          static_cast<int64_t>(measured[mi].open_seconds * 1e6));
      add("d3l_snapshot_load_index_parse_us", labels,
          static_cast<int64_t>(measured[mi].index_parse_seconds * 1e6));
      add("d3l_snapshot_load_forest_parse_ns", labels,
          static_cast<int64_t>(measured[mi].forest_parse_seconds * 1e9));
      add("d3l_snapshot_load_index_heap_bytes", labels,
          static_cast<int64_t>(measured[mi].index_heap_bytes));
      add("d3l_snapshot_sharded_open_us", labels,
          static_cast<int64_t>(sharded_open_ms[mi] * 1000));
      add("d3l_snapshot_load_banded_borrowed", labels,
          static_cast<int64_t>(measured[mi].banded_borrowed));
    }
    add("d3l_snapshot_load_exact", {}, all_exact && sharded_exact ? 1 : 0);
    const Status written = bench::WriteTextFile(metrics_out, registry.ExportText());
    if (!written.ok()) {
      fprintf(stderr, "metrics snapshot failed: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  fs::remove_all(tmp);

  if (!all_exact || !sharded_exact) {
    fprintf(stderr, "FAIL: a loaded engine's ranking diverged\n");
    return 1;
  }
  if (!measured[1].mapped) {
    fprintf(stderr, "FAIL: zero-copy did not engage on the mapped load\n");
    return 1;
  }
  if (!borrow_ok) {
    fprintf(stderr,
            "FAIL: banded indexes borrowed %zu/5 mapped and %zu/5 copied "
            "(gate: 5 and 0)\n",
            measured[1].banded_borrowed, measured[0].banded_borrowed);
    return 1;
  }
  if (parse_speedup < 5.0) {
    fprintf(stderr,
            "FAIL: mapped forest deserialization only %.1fx faster (gate: 5x)\n",
            parse_speedup);
    return 1;
  }
  return 0;
}
