#include "core/join_graph.h"

#include <algorithm>

namespace d3l::core {

namespace {

// Estimated overlap coefficient from an estimated Jaccard similarity and
// the two set sizes, via |A ∩ B| ≈ j/(1+j) * (|A| + |B|).
double OverlapFromJaccard(double jaccard, size_t size_a, size_t size_b) {
  if (size_a == 0 || size_b == 0) return 0;
  double inter = jaccard / (1.0 + jaccard) *
                 static_cast<double>(size_a + size_b);
  double ov = inter / static_cast<double>(std::min(size_a, size_b));
  return std::clamp(ov, 0.0, 1.0);
}

uint64_t EdgeKey(uint32_t ta, uint32_t ca, uint32_t tb, uint32_t cb) {
  // Canonical order so (a, b) and (b, a) collide.
  if (ta > tb || (ta == tb && ca > cb)) {
    std::swap(ta, tb);
    std::swap(ca, cb);
  }
  return (static_cast<uint64_t>(ta) << 48) ^ (static_cast<uint64_t>(ca) << 32) ^
         (static_cast<uint64_t>(tb) << 16) ^ static_cast<uint64_t>(cb);
}

}  // namespace

SaJoinGraph SaJoinGraph::Build(const D3LEngine& engine, double min_overlap) {
  SaJoinGraph g;
  const DataLake* lake = engine.lake();
  if (lake == nullptr) return g;
  g.adjacency_.resize(lake->size());

  const D3LIndexes& indexes = engine.indexes();
  std::unordered_set<uint64_t> seen_edges;

  // For every subject attribute, find V-related attributes in other tables;
  // each hit satisfies both SA-joinability conditions (one endpoint is a
  // subject attribute, tset overlap has IV evidence at tau).
  for (uint32_t ti = 0; ti < lake->size(); ++ti) {
    uint32_t said = engine.subject_attribute_id(ti);
    if (said == UINT32_MAX) continue;
    const AttributeSignatures& ssigs = indexes.signatures(said);
    if (!ssigs.has_value) continue;
    const IndexedAttribute& sprof = indexes.profile(said);

    for (uint32_t cand : indexes.LookupValueJoin(ssigs)) {
      const IndexedAttribute& cprof = indexes.profile(cand);
      if (cprof.ref.table == ti) continue;
      uint64_t key = EdgeKey(ti, sprof.ref.column, cprof.ref.table, cprof.ref.column);
      if (!seen_edges.insert(key).second) continue;

      double jac = EstimateJaccard(ssigs.value_sig, indexes.signatures(cand).value_sig);
      double ov = OverlapFromJaccard(jac, sprof.tset_size, cprof.tset_size);
      if (ov < min_overlap) continue;  // containment too weak to postulate a join

      JoinEdge e{ti, sprof.ref.column, cprof.ref.table, cprof.ref.column, ov};
      g.adjacency_[ti].push_back(e);
      JoinEdge rev{cprof.ref.table, cprof.ref.column, ti, sprof.ref.column, ov};
      g.adjacency_[cprof.ref.table].push_back(rev);
      ++g.num_edges_;
    }
  }
  return g;
}

bool SaJoinGraph::HasEdge(uint32_t a, uint32_t b) const {
  for (const JoinEdge& e : adjacency_[a]) {
    if (e.to_table == b) return true;
  }
  return false;
}

namespace {

void Dfs(const SaJoinGraph& graph, uint32_t node,
         const std::unordered_set<uint32_t>& top_k,
         const std::unordered_set<uint32_t>& related_to_target,
         const JoinGraphOptions& options, JoinPath* path,
         std::vector<JoinPath>* out) {
  if (out->size() >= options.max_paths_per_start) return;
  if (path->tables.size() >= options.max_path_length) return;
  for (const JoinEdge& e : graph.neighbours(node)) {
    uint32_t next = e.to_table;
    // Algorithm 3's admissibility conditions: not in S_k, acyclic, related
    // to the target under at least one index.
    if (top_k.count(next) > 0) continue;
    if (std::find(path->tables.begin(), path->tables.end(), next) !=
        path->tables.end()) {
      continue;
    }
    if (related_to_target.count(next) == 0) continue;

    path->tables.push_back(next);
    path->edges.push_back(e);
    out->push_back(*path);  // every admissible prefix is a join path
    Dfs(graph, next, top_k, related_to_target, options, path, out);
    path->tables.pop_back();
    path->edges.pop_back();
    if (out->size() >= options.max_paths_per_start) return;
  }
}

}  // namespace

std::vector<JoinPath> FindJoinPaths(const SaJoinGraph& graph, uint32_t start,
                                    const std::unordered_set<uint32_t>& top_k,
                                    const std::unordered_set<uint32_t>& related_to_target,
                                    const JoinGraphOptions& options) {
  std::vector<JoinPath> out;
  JoinPath path;
  path.tables.push_back(start);
  Dfs(graph, start, top_k, related_to_target, options, &path, &out);
  return out;
}

std::vector<JoinPath> FindAllJoinPaths(const SaJoinGraph& graph,
                                       const SearchResult& result,
                                       const JoinGraphOptions& options) {
  std::unordered_set<uint32_t> top_k;
  for (const TableMatch& m : result.ranked) top_k.insert(m.table_index);
  std::unordered_set<uint32_t> related;
  for (const auto& [table, aligns] : result.candidate_alignments) related.insert(table);

  std::vector<JoinPath> all;
  for (const TableMatch& m : result.ranked) {
    std::vector<JoinPath> paths =
        FindJoinPaths(graph, m.table_index, top_k, related, options);
    all.insert(all.end(), paths.begin(), paths.end());
  }
  return all;
}

}  // namespace d3l::core
