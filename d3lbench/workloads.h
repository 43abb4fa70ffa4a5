// The benchmark's workloads. Each one builds its inputs from the seed, sets
// the program up, checks every answer against a reference ranking computed
// through a different path, and fills the report: end-to-end metrics with
// tracing off, per-layer metrics in a traced run (see NOTES.md).
#pragma once

#include "harness.h"
#include "serving/discovery_service.h"

namespace d3lbench {

Status RunExemplarSearch(const Args& args, Report& report);
Status RunRemoteService(const Args& args, Report& report);

/// Sets every per-layer metric to 0 with its unit, so a traced run reports
/// the full set; each workload then overwrites the layers it exercises.
void ReportBypassedLayers(Report& report);

/// Set-up timings of one deployment build, medians of which are reported.
struct SetupTimes {
  double total_s = 0;
  double index_profile_s = 0;
  double index_insert_s = 0;
  double build_shards_s = 0;
  double snapshot_save_s = 0;
  double snapshot_open_s = 0;
  double forest_parse_ms = 0;
};

/// Reports setup_s (untraced runs) or the set-up layer metrics and
/// benchdata.generate_s (traced runs), as medians over the repeated set-ups.
void ReportSetup(const std::vector<SetupTimes>& setups, double generate_s, bool trace,
                 Report& report);

/// Reports query_p50_ms, query_p95_ms and qps from a timed phase's
/// latencies (seconds) and wall time.
void ReportLatency(const std::vector<double>& latencies, double wall_seconds,
                   Report& report);

/// Reports obs.trace_overhead_ratio: the traced phase's median latency over
/// the untraced phase's, minus 1.
void ReportTraceOverhead(const std::vector<double>& plain, const std::vector<double>& traced,
                         Report& report);

/// Reports the serving layer of a traced DiscoveryService phase: queue,
/// profile and search times from QueryStats, cache and coordinator (the
/// `search` span's self) times from the span trees, the cache hit ratio and
/// the share of query time no span covers. Writes the span trees to
/// `spans_path` and returns their statistics for the workload's own layers.
Result<SpanStats> ReportServiceTraces(const std::vector<serving::QueryStats>& stats,
                                      const std::string& spans_path, Report& report);

}  // namespace d3lbench
