// Shared helpers for the paper-exhibit bench harnesses.
//
// Every bench accepts --scale=<f> (default 1.0) to grow or shrink the
// workload; README "Benchmarks" lists the runs CI makes. Efficiency
// benches pin D3L profiling to one thread so system comparisons are
// apples-to-apples.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/aurum.h"
#include "baselines/tus.h"
#include "baselines/yago_kb.h"
#include "benchdata/domains.h"
#include "benchdata/realish_gen.h"
#include "benchdata/synthetic_gen.h"
#include "core/join_graph.h"
#include "core/query.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"

namespace d3l::bench {

/// Writes `text` to `path`, reporting every failure mode (open, short
/// write, close/flush) as a Status. The --metrics-out CI artifacts go
/// through this so a full disk or bad path fails the bench run instead of
/// silently uploading a truncated snapshot.
inline Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fclose(f) != 0) {
    return Status::IOError("close failed for " + path +
                           " (buffered bytes may be lost)");
  }
  if (written != text.size()) {
    return Status::IOError("short write to " + path + ": " +
                           std::to_string(written) + " of " +
                           std::to_string(text.size()) + " bytes");
  }
  return Status::OK();
}

/// Synthetic repository: 30 base tables x (1 + 29 derived) = 900 tables at
/// scale 1.0.
inline benchdata::GeneratedLake MakeSynthetic(double scale, uint64_t seed = 42) {
  benchdata::SyntheticOptions opts;
  opts.num_base_tables = eval::Scaled(30, scale);
  opts.derived_per_base = 29;
  opts.seed = seed;
  auto gen = benchdata::GenerateSynthetic(opts);
  gen.status().CheckOK();
  return std::move(*gen);
}

/// Default-scale Smaller-Real-like repository (~320 tables at 1.0).
inline benchdata::GeneratedLake MakeRealish(double scale, uint64_t seed = 7) {
  benchdata::RealishOptions opts;
  opts.num_clusters = eval::Scaled(40, scale);
  opts.seed = seed;
  auto gen = benchdata::GenerateRealish(opts);
  gen.status().CheckOK();
  return std::move(*gen);
}

/// Larger-Real-like lake of roughly `num_tables` tables (efficiency runs).
inline benchdata::GeneratedLake MakeLargerReal(size_t num_tables, uint64_t seed = 11) {
  auto gen = benchdata::GenerateRealish(benchdata::LargerRealOptions(num_tables, seed));
  gen.status().CheckOK();
  return std::move(*gen);
}

/// A ready-to-use TUS stack (KB built from the domain vocabulary).
struct TusStack {
  TusStack()
      : kb(benchdata::DomainRegistry::Instance().BuildKbVocabulary()), wem(),
        engine(baselines::TusOptions{}, &kb, &wem) {}
  baselines::YagoKb kb;
  SubwordHashModel wem;
  baselines::TusEngine engine;
};

/// Ranked table names from a D3L search result.
inline std::vector<std::string> NamesOf(const core::SearchResult& res,
                                        const DataLake& lake) {
  std::vector<std::string> names;
  names.reserve(res.ranked.size());
  for (const auto& m : res.ranked) names.push_back(lake.table(m.table_index).name());
  return names;
}

/// A system under PR evaluation: returns ranked table names for (target, k).
using RankedNamesFn =
    std::function<std::vector<std::string>(const Table& target, size_t k)>;

struct PrPoint {
  size_t k = 0;
  double precision = 0;
  double recall = 0;
};

/// Average precision/recall over targets for each k (one search per target
/// at max k; prefixes give the smaller-k points, as ranked lists nest).
inline std::vector<PrPoint> PrCurve(const RankedNamesFn& search,
                                    const DataLake& lake,
                                    const benchdata::GroundTruth& truth,
                                    const std::vector<uint32_t>& targets,
                                    const std::vector<size_t>& ks) {
  size_t max_k = 0;
  for (size_t k : ks) max_k = std::max(max_k, k);
  std::vector<PrPoint> points;
  for (size_t k : ks) points.push_back({k, 0, 0});
  for (uint32_t t : targets) {
    const Table& target = lake.table(t);
    std::vector<std::string> ranked = search(target, max_k);
    for (size_t i = 0; i < ks.size(); ++i) {
      std::vector<std::string> prefix(
          ranked.begin(),
          ranked.begin() + std::min(ks[i], ranked.size()));
      auto e = eval::EvaluateTopK(prefix, target.name(), truth);
      points[i].precision += e.precision;
      points[i].recall += e.recall;
    }
  }
  for (PrPoint& p : points) {
    p.precision /= static_cast<double>(targets.size());
    p.recall /= static_cast<double>(targets.size());
  }
  return points;
}

/// Converts D3L matches to the evaluation representation.
inline std::vector<eval::RankedTable> ToRankedTables(const core::D3LEngine& engine,
                                                     const core::SearchResult& res) {
  std::vector<eval::RankedTable> out;
  for (const auto& m : res.ranked) {
    eval::RankedTable rt;
    rt.name = engine.lake()->table(m.table_index).name();
    for (const auto& p : m.pairs) {
      rt.alignments.push_back(
          {p.target_column, engine.indexes().profile(p.attribute_id).ref.column});
    }
    out.push_back(std::move(rt));
  }
  return out;
}

/// Join-path datasets per top-k entry for D3L (+J evaluation).
inline std::vector<std::vector<eval::RankedTable>> D3lJoinTables(
    const core::D3LEngine& engine, const core::SaJoinGraph& graph,
    const core::SearchResult& res) {
  std::unordered_set<uint32_t> top_set;
  for (const auto& m : res.ranked) top_set.insert(m.table_index);
  std::unordered_set<uint32_t> related;
  for (const auto& [ti, a] : res.candidate_alignments) related.insert(ti);

  std::vector<std::vector<eval::RankedTable>> joins(res.ranked.size());
  for (size_t i = 0; i < res.ranked.size(); ++i) {
    auto paths = core::FindJoinPaths(graph, res.ranked[i].table_index, top_set, related);
    std::unordered_set<uint32_t> path_tables;
    for (const auto& p : paths) {
      for (size_t j = 1; j < p.tables.size(); ++j) path_tables.insert(p.tables[j]);
    }
    for (uint32_t pt : path_tables) {
      eval::RankedTable rt;
      rt.name = engine.lake()->table(pt).name();
      auto it = res.candidate_alignments.find(pt);
      if (it != res.candidate_alignments.end()) {
        for (const auto& [tc, attr] : it->second) {
          rt.alignments.push_back({tc, engine.indexes().profile(attr).ref.column});
        }
      }
      joins[i].push_back(std::move(rt));
    }
  }
  return joins;
}

/// Converts TUS matches to the evaluation representation.
inline std::vector<eval::RankedTable> ToRankedTables(const baselines::TusEngine& engine,
                                                     const baselines::TusSearchResult& res) {
  std::vector<eval::RankedTable> out;
  for (const auto& m : res.ranked) {
    eval::RankedTable rt;
    rt.name = engine.lake()->table(m.table_index).name();
    for (const auto& a : m.alignments) {
      rt.alignments.push_back({a.target_column, a.column});
    }
    out.push_back(std::move(rt));
  }
  return out;
}

/// Converts Aurum matches to the evaluation representation.
inline std::vector<eval::RankedTable> ToRankedTables(
    const baselines::AurumEngine& engine, const baselines::AurumSearchResult& res) {
  std::vector<eval::RankedTable> out;
  for (const auto& m : res.ranked) {
    eval::RankedTable rt;
    rt.name = engine.lake()->table(m.table_index).name();
    for (const auto& a : m.alignments) {
      rt.alignments.push_back({a.target_column, a.column});
    }
    out.push_back(std::move(rt));
  }
  return out;
}

/// Aurum+J: join-expanded datasets per top-k entry (FK edges), with the
/// alignments Aurum's search discovered for them.
inline std::vector<std::vector<eval::RankedTable>> AurumJoinTables(
    const baselines::AurumEngine& engine, const baselines::AurumSearchResult& res) {
  std::vector<std::vector<eval::RankedTable>> joins(res.ranked.size());
  for (size_t i = 0; i < res.ranked.size(); ++i) {
    for (uint32_t pt : engine.JoinExpand({res.ranked[i].table_index}, 2)) {
      eval::RankedTable rt;
      rt.name = engine.lake()->table(pt).name();
      auto it = res.candidate_alignments.find(pt);
      if (it != res.candidate_alignments.end()) {
        for (const auto& a : it->second) {
          rt.alignments.push_back({a.target_column, a.column});
        }
      }
      joins[i].push_back(std::move(rt));
    }
  }
  return joins;
}

}  // namespace d3l::bench
