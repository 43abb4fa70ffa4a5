// exemplar_search: the paper's main query — a target schema plus a few
// exemplar tuples — against a mapped snapshot, one closed-loop client, k=100,
// no serving tier and no result cache.
//
// Set-up (timed, repeated): index the lake in memory, save the snapshot,
// open it mapped through EngineBackend::FromSnapshot. The in-memory engine
// that wrote the snapshot computes the reference rankings. The timed phase
// cycles through the seeded targets in a fixed order; the traced run swaps
// Search for the same pipeline composed from its public phases, timed per
// phase.
#include <algorithm>

#include "workloads.h"

namespace d3lbench {
namespace {

constexpr size_t kK = 100;
constexpr size_t kExemplarRows = 5;
/// Index-build threads (D3LOptions::num_threads), pinned.
constexpr size_t kBuildThreads = 4;

struct Sizes {
  size_t universe_tables;  ///< the lake keeps kLakeShare of them
  size_t targets;
  size_t setups;   ///< repeated set-ups; setup_s is their median
  size_t reopens;  ///< snapshot re-opens; reload_p50_ms is their median
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kTiny) return {50, 8, 1, 2};
  return {1250, 300, 3, 3};
}

/// Per-query work counts of the composed pipeline.
struct Work {
  double profile_values = 0;
  double lookups = 0;
  double candidates = 0;
  double rows_scored = 0;
  double rows_in_topk = 0;
};

/// D3LEngine::Search composed from its public phases, with one span per
/// phase under a "query" root: profiling (BuildProfile and
/// D3LIndexes::Sign per column, then SubjectAttributeDetector::Detect),
/// then CollectDepthCounts, ResolveStopDepths, CollectCandidates,
/// UnionCandidates, ScoreCandidates and RankRows. Must be byte-identical to
/// Search.
core::SearchResult ComposedSearch(const core::D3LEngine& engine, const Table& target,
                                  size_t k, obs::Span* root, Work* work) {
  const Clock::time_point epoch = Clock::now();
  std::vector<obs::Span> spans;
  std::vector<obs::Span> profile_spans;
  Clock::time_point t = epoch;
  auto end_phase = [&](const char* name, std::vector<obs::Span>& into) {
    const Clock::time_point now = Clock::now();
    into.push_back(MakeSpan(name, epoch, t, now));
    t = now;
  };

  core::QueryTarget qt;
  {
    CachingEmbedder cache(&engine.wem());
    const size_t n_cols = target.num_columns();
    qt.profiles.reserve(n_cols);
    qt.sigs.reserve(n_cols);
    for (size_t c = 0; c < n_cols; ++c) {
      core::AttributeProfile p =
          core::BuildProfile(target, c, engine.wem(), &cache, engine.options().profile);
      end_phase("core.build_profile", profile_spans);
      qt.sigs.push_back(engine.indexes().Sign(p));
      end_phase("lsh.sign", profile_spans);
      work->profile_values += static_cast<double>(p.extent_size);
      qt.profiles.push_back(std::move(p));
    }
    qt.subject_col = engine.subject_detector().Detect(target);
  }
  t = Clock::now();
  spans.push_back(MakeSpan("core.profile", epoch, epoch, t));
  spans.back().children = std::move(profile_spans);

  const std::array<bool, core::kNumEvidence>& mask = engine.options().enabled;
  const size_t m = std::max(engine.options().candidates_per_attribute, k);
  core::CandidateDepthCounts counts = engine.CollectDepthCounts(qt, mask, m);
  end_phase("lsh.depth_counts", spans);
  core::CandidateStopDepths stops = core::D3LEngine::ResolveStopDepths(counts, m);
  end_phase("core.stop_resolution", spans);
  core::CandidateLists lists = engine.CollectCandidates(qt, stops, m);
  end_phase("lsh.candidates", spans);
  std::vector<std::vector<uint32_t>> per_column = core::D3LEngine::UnionCandidates(lists);
  end_phase("core.union", spans);
  std::vector<core::PairDistances> rows = engine.ScoreCandidates(qt, per_column, mask);
  end_phase("core.scoring", spans);
  core::EvidenceWeights weights = engine.options().weights;
  for (size_t e = 0; e < core::kNumEvidence; ++e) {
    if (!mask[e]) weights.w[e] = 0;
  }
  auto table_of = [&engine](uint32_t id) { return engine.indexes().profile(id).ref.table; };
  core::SearchResult result =
      core::D3LEngine::RankRows(std::move(rows), qt.sigs.size(), engine.lake()->size(),
                                table_of, weights, k);
  result.target_profiles = std::move(qt.profiles);
  result.target_sigs = std::move(qt.sigs);
  end_phase("core.rank", spans);
  *root = MakeSpan("query", epoch, epoch, t);
  root->children = std::move(spans);

  // Work counts, outside the timed spans.
  for (const auto& per_col : counts.counts) {
    for (const auto& c : per_col) work->lookups += c.empty() ? 0 : 1;
  }
  for (const auto& per_col : lists.ids) {
    for (const auto& ids : per_col) work->candidates += static_cast<double>(ids.size());
  }
  std::vector<bool> in_topk(engine.lake()->size(), false);
  for (const core::TableMatch& match : result.ranked) in_topk[match.table_index] = true;
  for (const auto& ids : per_column) {
    work->rows_scored += static_cast<double>(ids.size());
    for (uint32_t id : ids) work->rows_in_topk += in_topk[table_of(id)] ? 1 : 0;
  }
  return result;
}

}  // namespace

Status RunExemplarSearch(const Args& args, Report& report) {
  const Sizes sizes = SizesFor(args.scale);
  const std::string snapshot = args.work_dir + "/exemplar.d3l";

  // Inputs (benchmark work, outside setup_s).
  Clock::time_point t0 = Clock::now();
  benchdata::GeneratedLake data = MakeLake(sizes.universe_tables, kUniverseSeed, args.seed);
  const double generate_s = SecondsSince(t0);
  std::vector<Table> targets;
  std::vector<std::string> target_names;
  for (uint32_t id : StratifiedSample(data.lake, sizes.targets, args.seed ^ 0x7a11)) {
    targets.push_back(ExemplarTarget(data.lake.table(id), kExemplarRows));
    target_names.push_back(targets.back().name());
  }

  // Set-up, repeated; the last engine and backend are kept.
  core::D3LOptions options;
  options.num_threads = kBuildThreads;
  std::vector<SetupTimes> setups;
  std::unique_ptr<core::D3LEngine> engine;
  std::unique_ptr<serving::EngineBackend> backend;
  for (size_t r = 0; r < sizes.setups; ++r) {
    backend.reset();
    engine.reset();
    SetupTimes s;
    t0 = Clock::now();
    engine = std::make_unique<core::D3LEngine>(options);
    D3L_RETURN_NOT_OK(engine->IndexLake(data.lake));
    const Clock::time_point t1 = Clock::now();
    D3L_RETURN_NOT_OK(engine->SaveSnapshot(snapshot));
    const Clock::time_point t2 = Clock::now();
    D3L_ASSIGN_OR_RETURN(backend, serving::EngineBackend::FromSnapshot(snapshot));
    const Clock::time_point t3 = Clock::now();
    s.total_s = SecondsBetween(t0, t3);
    s.index_profile_s = engine->build_stats().profile_seconds;
    s.index_insert_s = engine->build_stats().insert_seconds;
    s.snapshot_save_s = SecondsBetween(t1, t2);
    s.snapshot_open_s = SecondsBetween(t2, t3);
    s.forest_parse_ms = backend->engine().load_stats().forest_parse_seconds * 1e3;
    setups.push_back(s);
  }

  // References through the in-memory engine that wrote the snapshot.
  std::vector<Ranking> reference;
  for (const Table& target : targets) {
    D3L_ASSIGN_OR_RETURN(core::SearchResult result, engine->Search(target, kK));
    reference.push_back(RankingOf(result, data.lake));
  }
  const Quality quality = Evaluate(reference, target_names, data.truth);
  const double index_mb = static_cast<double>(engine->build_stats().index_bytes) / 1e6;
  engine.reset();
  if (args.perturb_reference) Perturb(reference.front());

  // The fixed, seeded query order of one pass.
  const std::vector<size_t> order = SeededOrder(targets.size(), args.seed ^ 0x0de5);

  // Untimed warm-up pass: faults in the mapped snapshot and fills the
  // profiling caches. The traced run also checks here that the composed
  // pipeline is byte-identical to Search.
  for (const Table& target : targets) {
    report.Attempted();
    auto result = backend->Search(target, kK);
    if (!result.ok()) {
      report.Failed();
      continue;
    }
    if (args.trace) {
      obs::Span root;
      Work work;
      const core::SearchResult composed =
          ComposedSearch(backend->engine(), target, kK, &root, &work);
      if (ResultBytes(composed) != ResultBytes(*result)) report.Failed();
    }
  }

  // One timed closed-loop phase over the fixed order; `composed` selects
  // the traced pipeline. Returns the per-query latencies (seconds).
  auto run_phase = [&](double seconds, bool composed, SpanStats* stats, Work* work,
                       SpanFile* file) {
    std::vector<double> latencies;
    const Clock::time_point start = Clock::now();
    for (size_t n = 0; SecondsSince(start) < seconds; ++n) {
      const size_t i = order[n % order.size()];
      report.Attempted();
      Ranking got;
      const Clock::time_point q0 = Clock::now();
      if (composed) {
        obs::Span root;
        const core::SearchResult result =
            ComposedSearch(backend->engine(), targets[i], kK, &root, work);
        latencies.push_back(SecondsSince(q0));
        got = RankingOf(result, *backend);
        stats->Add({root});
        file->Add(n, {std::move(root)});
      } else {
        auto result = backend->Search(targets[i], kK);
        latencies.push_back(SecondsSince(q0));
        if (!result.ok()) {
          report.Failed();
          continue;
        }
        got = RankingOf(*result, *backend);
      }
      if (!(got == reference[i])) report.Failed();
    }
    return std::make_pair(latencies, SecondsSince(start));
  };

  if (!args.trace) {
    auto [latencies, wall] = run_phase(args.seconds, false, nullptr, nullptr, nullptr);
    ReportLatency(latencies, wall, report);
    report.Set("rss_mb", PeakRssMb(), "MB");
    report.Set("precision_at_k", quality.precision, "ratio");
    report.Set("recall_at_k", quality.recall, "ratio");
    report.Set("index_mb", index_mb, "MB");
    ReportSetup(setups, generate_s, false, report);
    // Reload = re-opening the mapped snapshot, as a snapshot deployment
    // picks up a rebuilt index.
    std::vector<double> reopen_s;
    for (size_t r = 0; r < sizes.reopens; ++r) {
      report.Attempted();
      t0 = Clock::now();
      auto reopened = serving::EngineBackend::FromSnapshot(snapshot);
      reopen_s.push_back(SecondsSince(t0));
      if (!reopened.ok()) report.Failed();
    }
    report.Set("reload_p50_ms", Median(reopen_s) * 1e3, "ms");
  } else {
    // Half the time untraced, half traced: their p50s give the overhead.
    ReportBypassedLayers(report);
    auto [plain, plain_wall] = run_phase(args.seconds / 2, false, nullptr, nullptr, nullptr);
    SpanStats stats;
    SpanFile file;
    Work work;
    auto [traced, traced_wall] = run_phase(args.seconds / 2, true, &stats, &work, &file);
    const double n = std::max<double>(1, static_cast<double>(traced.size()));
    report.Set("core.profile_ms", stats.TotalMs("core.profile") / n, "ms");
    report.Set("core.build_profile_ms", stats.SelfMs("core.build_profile") / n, "ms");
    report.Set("lsh.sign_ms", stats.SelfMs("lsh.sign") / n, "ms");
    report.Set("lsh.depth_counts_ms", stats.SelfMs("lsh.depth_counts") / n, "ms");
    report.Set("core.stop_resolution_ms", stats.SelfMs("core.stop_resolution") / n, "ms");
    report.Set("lsh.candidates_ms", stats.SelfMs("lsh.candidates") / n, "ms");
    report.Set("core.union_ms", stats.SelfMs("core.union") / n, "ms");
    report.Set("core.scoring_ms", stats.SelfMs("core.scoring") / n, "ms");
    report.Set("core.rank_ms", stats.SelfMs("core.rank") / n, "ms");
    report.Set("core.profile_values", work.profile_values / n, "count");
    report.Set("lsh.lookups", work.lookups / n, "count");
    report.Set("lsh.candidates", work.candidates / n, "count");
    report.Set("core.rows_scored", work.rows_scored / n, "count");
    report.Set("core.rows_in_topk_ratio",
               work.rows_scored > 0 ? work.rows_in_topk / work.rows_scored : 0, "ratio");
    report.Set("obs.uncovered_ratio",
               stats.TotalMs("query") > 0 ? stats.SelfMs("query") / stats.TotalMs("query") : 0,
               "ratio");
    ReportTraceOverhead(plain, traced, report);
    ReportSetup(setups, generate_s, true, report);
    D3L_RETURN_NOT_OK(file.Write(args.work_dir + "/spans.jsonl"));
  }
  return Status::OK();
}

}  // namespace d3lbench
