// One query over N shard endpoints: the scatter-gather coordinator behind
// ShardedEngine::Search (one in-process endpoint) and RemoteBackend::Search
// (one endpoint per shard server).
//
// D3L's query splits cleanly across disjoint shards (Section III-D).
// Coordinate runs it in four steps:
//
//   1. every endpoint sums its shards' LSH depth counts (DCNT); the sums are
//      Add()ed and the stop depths resolved once, by the single-engine stop
//      rule (core::D3LEngine::ResolveStopDepths);
//   2. every endpoint retrieves its candidates at those depths and scores
//      its own per-column unions (SCOR);
//   3. the endpoints' candidate lists are joined (MergeCandidateLists, then
//      UnionCandidates), and exactly one row is kept per selected candidate;
//   4. RankRows ranks the rows under the masked evidence weights.
//
// An id in the whole-lake first m owned by endpoint E is in E's first m, so
// the merge recovers the whole-lake lists; rows are pure functions of
// (query, candidate); RankRows canonically re-sorts. The ranking is
// therefore byte-identical to one engine over the unsharded lake.
//
// Endpoints score their own unions, a superset of their share of the
// selected candidates, and the coordinator drops the extra rows. Inside one
// process, ShardedEngine::ScoreAtStops merges its replicas' lists before
// scoring, so an in-process query scores exactly the whole-lake union.
//
// Replies are checked before use. An endpoint's own error is returned
// unchanged; a malformed reply (wrong shapes, ids beyond the attribute
// count, a selected candidate with no row or two rows) fails the query with
// an IOError that names the endpoint.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "serving/thread_pool.h"

namespace d3l::serving {

/// \brief One endpoint's contribution to a query at the resolved stop depths.
struct ShardScore {
  /// Per (column, evidence) candidate ids in GLOBAL numbering, ascending,
  /// merged across the endpoint's shards and capped at the m smallest.
  core::CandidateLists lists;
  /// One row per (column, candidate) of the per-column unions of `lists`,
  /// attribute ids in GLOBAL numbering.
  std::vector<core::PairDistances> rows;
};

/// \brief A set of shards that answers the two scatter phases of a query,
/// in the lake's global attribute numbering: a ShardedEngine in process, or
/// a shard server over RPC (the DCNT and SCOR methods).
class ShardEndpoint {
 public:
  virtual ~ShardEndpoint() = default;

  /// Names the endpoint in errors (a server's host:port, the shards served).
  virtual std::string endpoint_name() const = 0;

  /// Depth counts summed over the endpoint's shards. `m` is the per-index
  /// budget, max(candidates_per_attribute, k).
  virtual Result<core::CandidateDepthCounts> CollectDepthCounts(
      const core::QueryTarget& target,
      const std::array<bool, core::kNumEvidence>& enabled_mask, size_t m) const = 0;

  /// Retrieval and scoring at externally resolved stop depths.
  virtual Result<ShardScore> ScoreAtStops(
      const core::QueryTarget& target, const core::CandidateStopDepths& stops,
      size_t m, const std::array<bool, core::kNumEvidence>& enabled_mask) const = 0;
};

/// \brief Top-k over `endpoints`, which together must serve every shard of
/// one deployment exactly once. `pool` runs the per-endpoint calls in
/// parallel with the caller's trace installed; null runs them in turn on the
/// calling thread. It must not be a pool the endpoints run their own phases
/// on (ParallelFor does not nest). `options` supplies the candidate budget
/// and the evidence weights; `attr_table` maps each global attribute id to
/// its global table, of which there are `num_tables`. The target's profiles
/// and signatures are moved into the result.
Result<core::SearchResult> Coordinate(
    const std::vector<const ShardEndpoint*>& endpoints, ThreadPool* pool,
    core::QueryTarget target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask,
    const core::D3LOptions& options, const std::vector<uint32_t>& attr_table,
    size_t num_tables);

}  // namespace d3l::serving
