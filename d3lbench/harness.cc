#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>

#include "benchdata/realish_gen.h"
#include "eval/metrics.h"
#include "io/binary_io.h"

namespace d3lbench {

namespace {

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteSpanJson(std::ostream& out, const obs::Span& span) {
  out << "{\"name\":" << JsonString(span.name) << ",\"start_ns\":" << span.start_ns
      << ",\"duration_ns\":" << span.duration_ns << ",\"children\":[";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) out << ",";
    WriteSpanJson(out, span.children[i]);
  }
  out << "]}";
}

}  // namespace

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      args.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + flag);
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Status::InvalidArgument("bad --seed");
      args.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0)) {
        return Status::InvalidArgument("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Status::InvalidArgument("--trace is 0 or 1");
      args.trace = n == 1;
    } else if (flag == "--scale") {
      if (std::strcmp(value, "full") == 0) {
        args.scale = Scale::kFull;
      } else if (std::strcmp(value, "tiny") == 0) {
        args.scale = Scale::kTiny;
      } else {
        return Status::InvalidArgument("--scale is full or tiny");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  return args;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
           ", \"unit\": " + JsonString(vu.second) + "}";
  }
  return out + "}}";
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;  // KiB -> MB
    }
  }
  return 0;
}

benchdata::GeneratedLake MakeLake(size_t universe_tables, uint64_t universe_seed,
                                  uint64_t seed) {
  auto universe =
      benchdata::GenerateRealish(benchdata::LargerRealOptions(universe_tables, universe_seed));
  universe.status().CheckOK();
  benchdata::GeneratedLake lake;
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(kLakeShare);
  for (size_t t = 0; t < universe->lake.size(); ++t) {
    if (!keep(rng)) continue;
    Table& table = universe->lake.table(t);
    std::vector<uint64_t> labels;
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      labels.push_back(universe->truth.LabelOf(table.name(), c));
    }
    lake.truth.SetTableLabels(table.name(), std::move(labels));
    lake.lake.AddTable(std::move(table)).CheckOK();
  }
  return lake;
}

std::vector<uint32_t> StratifiedSample(const DataLake& lake, size_t n, uint64_t seed) {
  std::vector<uint32_t> ids(lake.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    const Table& ta = lake.table(a);
    const Table& tb = lake.table(b);
    if (ta.num_columns() != tb.num_columns()) return ta.num_columns() < tb.num_columns();
    return ta.num_rows() < tb.num_rows();
  });
  n = std::min(n, ids.size());
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> sample;
  for (size_t s = 0; s < n; ++s) {
    const size_t lo = s * ids.size() / n;
    const size_t hi = (s + 1) * ids.size() / n;
    sample.push_back(ids[lo + rng() % (hi - lo)]);
  }
  return sample;
}

std::vector<size_t> SeededOrder(size_t items, uint64_t seed) {
  std::vector<size_t> order(items);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

Table ExemplarTarget(const Table& table, size_t rows) {
  std::vector<size_t> picks;
  const size_t n = table.num_rows();
  const size_t take = std::min(rows, n);
  for (size_t i = 0; i < take; ++i) picks.push_back(i * n / take);
  return table.SelectRows(picks, table.name());
}

namespace {
template <typename NameOf>
Ranking RankingWith(const core::SearchResult& result, NameOf name_of) {
  Ranking r;
  for (const core::TableMatch& m : result.ranked) {
    r.names.push_back(name_of(m.table_index));
    r.distances.push_back(m.distance);
    r.evidence.push_back(m.evidence_distances);
  }
  return r;
}
}  // namespace

Ranking RankingOf(const core::SearchResult& result,
                  const serving::SearchBackend& backend) {
  return RankingWith(result, [&](uint32_t t) { return backend.table_name(t); });
}

Ranking RankingOf(const core::SearchResult& result, const DataLake& lake) {
  return RankingWith(result, [&](uint32_t t) { return lake.table(t).name(); });
}

void Perturb(Ranking& ranking) {
  ranking.names.insert(ranking.names.begin(), "perturbed");
  ranking.distances.insert(ranking.distances.begin(), 0.0);
  ranking.evidence.insert(ranking.evidence.begin(), core::DistanceVector{});
}

Quality Evaluate(const std::vector<Ranking>& rankings,
                 const std::vector<std::string>& target_names,
                 const benchdata::GroundTruth& truth) {
  Quality q;
  if (rankings.empty()) return q;
  for (size_t i = 0; i < rankings.size(); ++i) {
    const eval::TopKEval e = eval::EvaluateTopK(rankings[i].names, target_names[i], truth);
    q.precision += e.precision;
    q.recall += e.recall;
  }
  q.precision /= static_cast<double>(rankings.size());
  q.recall /= static_cast<double>(rankings.size());
  return q;
}

std::string ResultBytes(const core::SearchResult& result) {
  std::string bytes;
  io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(io::SectionId("SRES"));
  core::SaveSearchResult(w, result);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return bytes;
}

void SpanStats::Add(const std::vector<obs::Span>& roots) {
  for (const obs::Span& root : roots) Visit(root);
}

void SpanStats::Visit(const obs::Span& span) {
  // Union of the same-clock children's intervals, clipped to the parent.
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  uint64_t foreign_ns = 0;
  for (const obs::Span& child : span.children) {
    if (child.name.rfind("serve:", 0) == 0) {
      foreign_ns += child.duration_ns;
      continue;
    }
    const uint64_t lo = std::max(child.start_ns, span.start_ns);
    const uint64_t hi =
        std::min(child.start_ns + child.duration_ns, span.start_ns + span.duration_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
  for (const auto& [lo, hi] : intervals) {
    if (cur_hi <= lo) {
      covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  covered += cur_hi - cur_lo;
  covered = std::min<uint64_t>(span.duration_ns, covered + foreign_ns);
  Entry& e = by_name_[span.name];
  e.self_ms += static_cast<double>(span.duration_ns - covered) / 1e6;
  e.total_ms += static_cast<double>(span.duration_ns) / 1e6;
  for (const obs::Span& child : span.children) Visit(child);
}

double SpanStats::SelfMs(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.self_ms;
}

double SpanStats::TotalMs(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.total_ms;
}

double SpanStats::SelfMsPrefix(const std::string& prefix) const {
  double sum = 0;
  for (const auto& [name, e] : by_name_) {
    if (name.rfind(prefix, 0) == 0) sum += e.self_ms;
  }
  return sum;
}

double SpanStats::TotalMsPrefix(const std::string& prefix) const {
  double sum = 0;
  for (const auto& [name, e] : by_name_) {
    if (name.rfind(prefix, 0) == 0) sum += e.total_ms;
  }
  return sum;
}

void SpanFile::Add(uint64_t query, const std::vector<obs::Span>& roots) {
  queries_.emplace_back(query, roots);
}

Status SpanFile::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  for (const auto& [query, roots] : queries_) {
    out << "{\"query\":" << query << ",\"spans\":[";
    for (size_t i = 0; i < roots.size(); ++i) {
      if (i > 0) out << ",";
      WriteSpanJson(out, roots[i]);
    }
    out << "]}\n";
  }
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

obs::Span MakeSpan(std::string name, Clock::time_point epoch, Clock::time_point start,
                   Clock::time_point end) {
  obs::Span span;
  span.name = std::move(name);
  span.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch).count());
  span.duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  return span;
}

}  // namespace d3lbench
