#include "serving/coordinator.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace d3l::serving {

namespace {

/// fn(i) for every endpoint i: on `pool` with the caller's trace installed
/// in each worker, so per-endpoint spans nest under the caller's span, or
/// in turn on the calling thread when `pool` is null.
template <typename T, typename Fn>
std::vector<Result<T>> FanOut(ThreadPool* pool, size_t n, const Fn& fn) {
  std::vector<Result<T>> out(n, Result<T>(Status::Internal("endpoint not called")));
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  const obs::TraceHandle trace = obs::CurrentTrace();
  pool->ParallelFor(n, [&](size_t i) {
    obs::TraceScope scope(trace);
    out[i] = fn(i);
  });
  return out;
}

bool ListsCandidate(const core::CandidateLists& lists, size_t column, uint32_t id) {
  return std::any_of(lists.ids[column].begin(), lists.ids[column].end(),
                     [id](const std::vector<uint32_t>& ids) {
                       return std::find(ids.begin(), ids.end(), id) != ids.end();
                     });
}

}  // namespace

Result<core::SearchResult> Coordinate(
    const std::vector<const ShardEndpoint*>& endpoints, ThreadPool* pool,
    core::QueryTarget target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask,
    const core::D3LOptions& options, const std::vector<uint32_t>& attr_table,
    size_t num_tables) {
  if (endpoints.empty()) return Status::InvalidArgument("no endpoints to query");
  if (target.sigs.empty() || target.profiles.size() != target.sigs.size()) {
    return Status::InvalidArgument("target is not a profiled table");
  }
  const size_t n = endpoints.size();
  const size_t n_cols = target.sigs.size();
  const size_t n_attrs = attr_table.size();
  const size_t m = std::max(options.candidates_per_attribute, k);
  const auto bad_reply = [&endpoints](size_t i, const std::string& what) {
    return Status::IOError("endpoint " + endpoints[i]->endpoint_name() +
                           " sent a malformed reply: " + what);
  };
  const auto cell = [](size_t column, uint32_t id) {
    return "column " + std::to_string(column) + ", attribute " + std::to_string(id);
  };

  // 1. Depth counts: the endpoints' sums add into the whole-lake counts.
  std::vector<Result<core::CandidateDepthCounts>> counts =
      FanOut<core::CandidateDepthCounts>(pool, n, [&](size_t i) {
        return endpoints[i]->CollectDepthCounts(target, enabled_mask, m);
      });
  core::CandidateDepthCounts total;
  for (size_t i = 0; i < n; ++i) {
    D3L_RETURN_NOT_OK(counts[i].status());
    if (counts[i]->counts.size() != n_cols) {
      return bad_reply(i, "depth counts for " + std::to_string(counts[i]->counts.size()) +
                              " of " + std::to_string(n_cols) + " columns");
    }
    if (i == 0) {
      total = std::move(*counts[0]);
    } else if (const Status added = total.Add(*counts[i]); !added.ok()) {
      return bad_reply(i, added.message() + " from " + endpoints[0]->endpoint_name() + "'s");
    }
  }
  const core::CandidateStopDepths stops = core::D3LEngine::ResolveStopDepths(total, m);

  // 2. Retrieval and scoring at the global stop depths.
  std::vector<Result<ShardScore>> scores = FanOut<ShardScore>(pool, n, [&](size_t i) {
    return endpoints[i]->ScoreAtStops(target, stops, m, enabled_mask);
  });
  std::vector<core::CandidateLists> lists(n);
  for (size_t i = 0; i < n; ++i) {
    D3L_RETURN_NOT_OK(scores[i].status());
    lists[i] = std::move(scores[i]->lists);
    if (lists[i].ids.size() != n_cols) {
      return bad_reply(i, "candidate lists for " + std::to_string(lists[i].ids.size()) +
                              " of " + std::to_string(n_cols) + " columns");
    }
    for (size_t c = 0; c < n_cols; ++c) {
      for (const std::vector<uint32_t>& ids : lists[i].ids[c]) {
        for (uint32_t id : ids) {
          if (id >= n_attrs) return bad_reply(i, "candidate " + cell(c, id) + " out of range");
        }
      }
    }
  }

  // 3. Merge the lists, then keep exactly one row per selected candidate:
  // endpoints score their own unions, so rows outside the selection drop.
  const std::vector<std::vector<uint32_t>> selected = core::D3LEngine::UnionCandidates(
      core::D3LEngine::MergeCandidateLists(lists, m));
  std::vector<std::vector<bool>> has_row(n_cols);
  for (size_t c = 0; c < n_cols; ++c) has_row[c].resize(selected[c].size());
  std::vector<core::PairDistances> rows;
  for (size_t i = 0; i < n; ++i) {
    for (const core::PairDistances& row : scores[i]->rows) {
      if (row.target_column >= n_cols || row.attribute_id >= n_attrs) {
        return bad_reply(i, "row for " + cell(row.target_column, row.attribute_id) +
                                " out of range");
      }
      const std::vector<uint32_t>& sel = selected[row.target_column];
      const auto it = std::lower_bound(sel.begin(), sel.end(), row.attribute_id);
      if (it == sel.end() || *it != row.attribute_id) continue;
      std::vector<bool>& seen = has_row[row.target_column];
      const size_t j = static_cast<size_t>(it - sel.begin());
      if (seen[j]) {
        return bad_reply(i, "second row for " + cell(row.target_column, row.attribute_id));
      }
      seen[j] = true;
      rows.push_back(row);
    }
  }
  for (size_t c = 0; c < n_cols; ++c) {
    const auto missing = std::find(has_row[c].begin(), has_row[c].end(), false);
    if (missing == has_row[c].end()) continue;
    const uint32_t id = selected[c][static_cast<size_t>(missing - has_row[c].begin())];
    size_t owner = 0;  // the endpoint that listed the candidate
    while (owner + 1 < n && !ListsCandidate(lists[owner], c, id)) ++owner;
    return bad_reply(owner, "no row for " + cell(c, id));
  }

  // 4. Rank.
  core::SearchResult result = core::D3LEngine::RankRows(
      std::move(rows), n_cols, num_tables,
      [&attr_table](uint32_t id) { return attr_table[id]; },
      core::MaskedWeights(options.weights, enabled_mask), k);
  result.target_profiles = std::move(target.profiles);
  result.target_sigs = std::move(target.sigs);
  return result;
}

}  // namespace d3l::serving
