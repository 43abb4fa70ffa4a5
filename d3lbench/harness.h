// Shared plumbing of the D3L benchmark: arguments, the result line, latency
// summaries, span bookkeeping for traced runs, and the seeded inputs every
// workload derives from its seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchdata/synthetic_gen.h"
#include "common/status.h"
#include "core/query.h"
#include "obs/trace.h"
#include "serving/search_backend.h"

namespace d3lbench {

using namespace d3l;

/// Full scale is the measured configuration; tiny scale only checks that a
/// workload runs and reports every metric (the self-test).
enum class Scale { kFull, kTiny };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Corrupts one reference ranking so the run must count failures.
  bool perturb_reference = false;
  /// Scratch space for snapshots, CSV lakes and the span file.
  std::string work_dir = ".bench_build/work";
};

Result<Args> ParseArgs(int argc, char** argv);

/// Outcome of one run: operation counts plus named metrics with units.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Attempted(size_t n = 1) { attempted_ += n; }
  void Failed(size_t n = 1) { failed_ += n; }
  /// The single-line JSON object the benchmark prints last.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) { return SecondsBetween(t, Clock::now()); }

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MB (VmHWM in
/// /proc/self/status). Set-up sets it in every workload; sampling the
/// resident set during the timed phase instead would read heap
/// fragmentation left by set-up, which varies from run to run.
double PeakRssMb();

/// The lake of one run. The generator (GenerateRealish with
/// LargerRealOptions) builds a universe of about `universe_tables` tables
/// from the fixed `universe_seed`; the run's seed keeps a random
/// `kLakeShare` of them, with the ground truth restricted to the kept
/// tables. Lakes differ from seed to seed but keep the universe's shape, so
/// the seed moves the figures far less than a fresh universe would.
inline constexpr double kLakeShare = 0.8;
inline constexpr uint64_t kUniverseSeed = 11;
benchdata::GeneratedLake MakeLake(size_t universe_tables, uint64_t universe_seed,
                                  uint64_t seed);

/// `n` lake tables, one drawn at random from each of `n` equal strata of
/// the tables ordered by column count, then row count: the sample keeps the
/// lake's mix of table shapes whatever the seed.
std::vector<uint32_t> StratifiedSample(const DataLake& lake, size_t n, uint64_t seed);

/// Returns `items` in a seeded random order.
std::vector<size_t> SeededOrder(size_t items, uint64_t seed);

/// The paper's query shape: the schema of `table` plus `rows` exemplar
/// tuples at evenly spaced row positions. Keeps the table's name, so the
/// source table is excluded from precision/recall like the target itself.
Table ExemplarTarget(const Table& table, size_t rows);

/// A ranking reduced to what a user sees: table names, combined distances
/// and per-evidence distances, in rank order.
struct Ranking {
  std::vector<std::string> names;
  std::vector<double> distances;
  std::vector<core::DistanceVector> evidence;
  bool operator==(const Ranking&) const = default;
};

Ranking RankingOf(const core::SearchResult& result,
                  const serving::SearchBackend& backend);
Ranking RankingOf(const core::SearchResult& result, const DataLake& lake);

/// Puts a bogus table on top, so the ranking matches no correct answer.
void Perturb(Ranking& ranking);

/// Mean table-level precision and recall at k of reference rankings
/// against the generator's ground truth (eval::EvaluateTopK).
struct Quality {
  double precision = 0;
  double recall = 0;
};
Quality Evaluate(const std::vector<Ranking>& rankings,
                 const std::vector<std::string>& target_names,
                 const benchdata::GroundTruth& truth);

/// The SaveSearchResult bytes of a result (byte-identity checks).
std::string ResultBytes(const core::SearchResult& result);

/// Per-name self times, totals and counts accumulated over span trees.
///
/// A span's self time is its duration minus the part of it its children
/// cover. Children recorded in the same epoch cover the union of their
/// intervals; a child subtree stitched in from a server (name "serve:*")
/// runs on another clock, so it covers its duration.
class SpanStats {
 public:
  /// Adds one query's span forest.
  void Add(const std::vector<obs::Span>& roots);
  /// Sum of self / inclusive time (ms) over spans whose name matches.
  double SelfMs(const std::string& name) const;
  double TotalMs(const std::string& name) const;
  /// Same, for every span whose name starts with `prefix`.
  double SelfMsPrefix(const std::string& prefix) const;
  double TotalMsPrefix(const std::string& prefix) const;

 private:
  void Visit(const obs::Span& span);
  struct Entry {
    double self_ms = 0;
    double total_ms = 0;
  };
  std::map<std::string, Entry> by_name_;
};

/// Keeps traced runs' span trees in memory and writes them, one JSON object
/// per query, when the run ends.
class SpanFile {
 public:
  void Add(uint64_t query, const std::vector<obs::Span>& roots);
  Status Write(const std::string& path) const;

 private:
  std::vector<std::pair<uint64_t, std::vector<obs::Span>>> queries_;
};

/// Builds a span from two steady-clock instants relative to `epoch`.
obs::Span MakeSpan(std::string name, Clock::time_point epoch, Clock::time_point start,
                   Clock::time_point end);

}  // namespace d3lbench
