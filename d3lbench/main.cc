// D3L benchmark program: runs one workload and prints its result as one JSON
// line on stdout (the last line). Usually started through run.py, which
// builds this binary first:
//
//   d3lbench --workload exemplar_search --seed 1 --seconds 15 --trace 0
//            [--scale full|tiny] [--perturb-reference] [--work-dir DIR]
//
// Exit code 0 with a result line, or non-zero with a message on stderr when
// the run could not be completed.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "workloads.h"

namespace d3lbench {

void ReportBypassedLayers(Report& report) {
  static const char* const kMs[] = {
      "core.profile_ms",       "core.build_profile_ms", "lsh.sign_ms",
      "lsh.depth_counts_ms",   "core.stop_resolution_ms", "lsh.candidates_ms",
      "core.union_ms",         "core.scoring_ms",       "core.rank_ms",
      "serving.queue_ms",      "serving.profile_ms",    "serving.cache_lookup_ms",
      "serving.search_ms",     "serving.cache_insert_ms", "serving.coordinator_ms",
      "rpc.prof_ms",           "rpc.dcnt_ms",           "rpc.scor_ms",
      "rpc.server_ms",         "rpc.wire_ms",           "table.csv_load_ms",
      "serving.update_shards_ms", "io.shard_open_ms",   "io.forest_parse_ms"};
  static const char* const kCounts[] = {
      "core.profile_values",   "lsh.lookups",           "lsh.candidates",
      "core.rows_scored",      "serving.shards_rebuilt", "serving.replicas_reused",
      "rpc.transport_failures"};
  static const char* const kRatios[] = {"core.rows_in_topk_ratio",
                                        "serving.cache_hit_ratio",
                                        "obs.trace_overhead_ratio",
                                        "obs.uncovered_ratio"};
  static const char* const kSeconds[] = {
      "benchdata.generate_s", "core.index_profile_s", "core.index_insert_s",
      "serving.build_shards_s", "io.snapshot_save_s", "io.snapshot_open_s"};
  for (const char* name : kMs) report.Set(name, 0, "ms");
  for (const char* name : kCounts) report.Set(name, 0, "count");
  for (const char* name : kRatios) report.Set(name, 0, "ratio");
  for (const char* name : kSeconds) report.Set(name, 0, "s");
  report.Set("rpc.bytes_per_query", 0, "B");
}

void ReportSetup(const std::vector<SetupTimes>& setups, double generate_s, bool trace,
                 Report& report) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(std::move(v));
  };
  if (!trace) {
    report.Set("setup_s", median_of(&SetupTimes::total_s), "s");
    return;
  }
  report.Set("benchdata.generate_s", generate_s, "s");
  report.Set("core.index_profile_s", median_of(&SetupTimes::index_profile_s), "s");
  report.Set("core.index_insert_s", median_of(&SetupTimes::index_insert_s), "s");
  report.Set("serving.build_shards_s", median_of(&SetupTimes::build_shards_s), "s");
  report.Set("io.snapshot_save_s", median_of(&SetupTimes::snapshot_save_s), "s");
  report.Set("io.snapshot_open_s", median_of(&SetupTimes::snapshot_open_s), "s");
  report.Set("io.forest_parse_ms", median_of(&SetupTimes::forest_parse_ms), "ms");
}

void ReportLatency(const std::vector<double>& latencies, double wall_seconds,
                   Report& report) {
  report.Set("query_p50_ms", Quantile(latencies, 0.50) * 1e3, "ms");
  report.Set("query_p95_ms", Quantile(latencies, 0.95) * 1e3, "ms");
  report.Set("qps", wall_seconds > 0 ? static_cast<double>(latencies.size()) / wall_seconds : 0,
             "1/s");
}

void ReportTraceOverhead(const std::vector<double>& plain, const std::vector<double>& traced,
                         Report& report) {
  const double plain_p50 = Quantile(plain, 0.5);
  report.Set("obs.trace_overhead_ratio",
             plain_p50 > 0 ? Quantile(traced, 0.5) / plain_p50 - 1 : 0, "ratio");
}

Result<SpanStats> ReportServiceTraces(const std::vector<serving::QueryStats>& stats,
                                      const std::string& spans_path, Report& report) {
  SpanStats spans;
  SpanFile file;
  std::vector<double> queue, profile, search;
  double hits = 0;
  for (size_t i = 0; i < stats.size(); ++i) {
    const serving::QueryStats& s = stats[i];
    queue.push_back(s.queue_seconds * 1e3);
    profile.push_back(s.profile_seconds * 1e3);
    search.push_back(s.search_seconds * 1e3);
    hits += s.cache_hit ? 1 : 0;
    if (s.trace != nullptr) {
      spans.Add(s.trace->roots);
      file.Add(i, s.trace->roots);
    }
  }
  const double n = std::max<double>(1, static_cast<double>(stats.size()));
  report.Set("serving.queue_ms", Mean(queue), "ms");
  report.Set("serving.profile_ms", Mean(profile), "ms");
  report.Set("serving.search_ms", Mean(search), "ms");
  report.Set("serving.cache_lookup_ms", spans.TotalMs("cache:lookup") / n, "ms");
  report.Set("serving.cache_insert_ms", spans.TotalMs("cache:insert") / n, "ms");
  report.Set("serving.cache_hit_ratio", hits / n, "ratio");
  report.Set("serving.coordinator_ms", spans.SelfMs("search") / n, "ms");
  const double query_ms = spans.TotalMs("queue") + spans.TotalMs("execute");
  report.Set("obs.uncovered_ratio", query_ms > 0 ? spans.SelfMs("execute") / query_ms : 0,
             "ratio");
  D3L_RETURN_NOT_OK(file.Write(spans_path));
  return spans;
}

}  // namespace d3lbench

int main(int argc, char** argv) {
  using namespace d3lbench;
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "d3lbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args->work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "d3lbench: cannot create %s\n", args->work_dir.c_str());
    return 1;
  }

  Report report;
  Status status;
  if (args->workload == "exemplar_search") {
    status = RunExemplarSearch(*args, report);
  } else if (args->workload == "remote_service") {
    status = RunRemoteService(*args, report);
  } else {
    status = Status::InvalidArgument("unknown workload " + args->workload);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "d3lbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
