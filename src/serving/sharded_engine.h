// Scatter-gather query serving over a sharded lake.
//
// A ShardedEngine opens a manifest (see manifest.h), loads every shard's
// snapshot into its own D3LEngine replica and answers top-k discovery
// queries over all of them. It is both a SearchBackend, which front-ends
// (DiscoveryService, the CLI) address exactly like a single engine, and a
// ShardEndpoint (coordinator.h): Search runs serving::Coordinate over one
// endpoint, this engine. The endpoint phases fan out across a fixed thread
// pool, one task per replica:
// CollectDepthCounts sums the replicas' depth counts, and ScoreAtStops
// merges their candidate lists before scoring, so an in-process query
// scores exactly the whole-lake candidate union.
//
// Shards index disjoint attribute sets, and each replica's local ids are
// remapped onto the original lake's table/attribute numbering, so the
// ranking is byte-identical to a single unsharded engine's — distances,
// evidence vectors, tie order and all (asserted by tests/serving_test.cc).
// A SUBSET engine (ShardedEngineOptions::serve_shards) is the same endpoint
// over some of the shards: what a shard server answers DCNT and SCOR with.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "serving/coordinator.h"
#include "serving/manifest.h"
#include "serving/search_backend.h"
#include "serving/thread_pool.h"
#include "table/lake.h"

namespace d3l::serving {

struct ShardedEngineOptions {
  /// Worker threads in the query pool (0 = hardware concurrency). The
  /// calling thread always participates, so 0 workers would still serve.
  size_t num_threads = 0;
  /// Verify each shard file's size and CRC32 against the manifest before
  /// loading (catches torn copies and bit rot at open time).
  bool verify_checksums = true;
  /// How shard snapshots are loaded. kMapped (the default) borrows the
  /// index arrays straight out of the mapped file — replicas open faster
  /// and share page cache across processes; falls back to buffered reads
  /// where mmap is unavailable. kCopied forces the buffered path.
  core::SnapshotLoadMode load_mode = core::SnapshotLoadMode::kMapped;
  /// Manifest shard indices to actually load and serve; empty means all.
  /// A SUBSET engine is the building block of a remote deployment (one
  /// shard_server process per subset): it keeps the whole lake's GLOBAL
  /// numbering — reconstructed from the manifest's per-table column counts,
  /// so the manifest must be v3 — but answers only the phase API
  /// (CollectDepthCounts / ScoreAtStops) for its shards. Whole-lake
  /// Search/Execute on a subset engine fails with InvalidArgument, because
  /// stop depths resolved from a subset's counts alone would differ from
  /// the single-engine stop rule.
  std::vector<size_t> serve_shards;
};

/// \brief A batch of targets for ShardedEngine::Execute.
struct QueryBatch {
  std::vector<const Table*> targets;
  size_t k = 10;
};

/// \brief Parallel scatter-gather SearchBackend over N shard replicas.
class ShardedEngine : public SearchBackend, public ShardEndpoint {
 public:
  /// Loads every shard named by the manifest (eagerly). Fails with a clean
  /// Status on a missing shard file, a checksum/size mismatch, shards whose
  /// contents contradict the manifest, or shards built with diverging
  /// engine options (compared by core::OptionsFingerprint).
  ///
  /// `reuse` (optional) is the previous generation of the same deployment:
  /// shards whose manifest identity (file bytes, file CRC32, schema
  /// fingerprint) is unchanged share the previous engine's already-loaded
  /// replica instead of re-reading and re-indexing the snapshot, so a
  /// reload after an incremental UpdateShards pays only for the rebuilt
  /// shards. Shared replicas are read-only and reference-counted — the old
  /// generation may be destroyed first, in-flight queries included.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      const std::string& manifest_path, ShardedEngineOptions options = {},
      const ShardedEngine* reuse = nullptr);

  size_t num_shards() const { return shards_.size(); }
  /// Shards adopted from the `reuse` engine rather than loaded from disk.
  size_t reused_replicas() const { return reused_replicas_; }
  size_t num_tables() const { return table_names_.size(); }
  size_t num_attributes() const { return attr_table_.size(); }
  const ShardManifest& manifest() const { return manifest_; }
  const core::D3LEngine& shard(size_t s) const { return *shards_[s]; }

  /// The manifest shard indices this engine loaded (ascending; every shard
  /// unless ShardedEngineOptions::serve_shards restricted the set).
  const std::vector<size_t>& served_shards() const { return served_; }
  bool serves_all() const { return served_.size() == manifest_.shards.size(); }

  /// One table this engine serves, in the lake's global numbering — what a
  /// shard server reports so a remote coordinator can stitch the partition
  /// back together.
  struct ServedTable {
    uint32_t global_id = 0;
    std::string name;
    uint32_t column_count = 0;
  };
  /// Every served table, ascending by global id.
  std::vector<ServedTable> ServedTables() const;

  // -- ShardEndpoint --
  //
  // The two scatter phases over the served shards, in global attribute ids.
  // Search runs them through Coordinate; a shard server answers DCNT and
  // SCOR with them, and a RemoteBackend coordinates over its servers.

  /// "shards 0,2": the manifest shards this engine serves.
  std::string endpoint_name() const override;

  /// Summed candidate depth counts over the served shards. `m` is the
  /// per-index early-termination budget (max(candidates_per_attribute, k)).
  Result<core::CandidateDepthCounts> CollectDepthCounts(
      const core::QueryTarget& target,
      const std::array<bool, core::kNumEvidence>& enabled_mask,
      size_t m) const override;

  /// Retrieval at externally resolved stop depths, the served replicas'
  /// lists merged (core::D3LEngine::MergeCandidateLists), then scoring of
  /// the merged per-column unions.
  Result<ShardScore> ScoreAtStops(
      const core::QueryTarget& target, const core::CandidateStopDepths& stops,
      size_t m, const std::array<bool, core::kNumEvidence>& enabled_mask) const override;

  // -- SearchBackend --
  using SearchBackend::Search;  // the Profile+Search convenience overload

  /// Profiles a target once for all shards (signatures depend only on the
  /// uniform engine options, so any replica produces the same QueryTarget).
  Result<core::QueryTarget> Profile(const Table& target) const override;

  /// Top-k search from a profiled target over the whole sharded lake.
  /// TableMatch::table_index and the attribute ids inside
  /// pairs/candidate_alignments are GLOBAL (the original lake's numbering),
  /// so results read exactly like a single engine's over the unsharded lake.
  Result<core::SearchResult> Search(
      core::QueryTarget target, size_t k,
      const std::array<bool, core::kNumEvidence>& enabled_mask) const override;

  /// The (uniform) options every shard engine was built with.
  const core::D3LOptions& options() const override {
    return shards_[served_.front()]->options();
  }

  /// Backend identity: the index fingerprint folds every manifest entry's
  /// file and schema checksums, so rebuilding or swapping any shard file
  /// yields a different identity (and invalidates cached results).
  BackendInfo Info() const override;

  std::string table_name(uint32_t table_index) const override {
    return table_names_[table_index];
  }

  /// Batched execution: results[i] corresponds to batch.targets[i]. A bad
  /// target (null, or without columns) fails only its own slot. Distinct
  /// targets are profiled in parallel, then searched one after another;
  /// duplicates (same Table pointer) copy the first slot's result.
  std::vector<Result<core::SearchResult>> Execute(const QueryBatch& batch) const;

 private:
  ShardedEngine(ShardManifest manifest, size_t num_threads);

  ShardManifest manifest_;
  /// Schema-only metadata backing each loaded engine (must outlive it).
  /// shared_ptr (not unique_ptr) so an unchanged replica can be shared by
  /// consecutive reload generations; const because replicas are immutable
  /// once loaded — that immutability is what makes sharing race-free.
  std::vector<std::shared_ptr<const DataLake>> shard_lakes_;
  std::vector<std::shared_ptr<const core::D3LEngine>> shards_;
  size_t reused_replicas_ = 0;
  /// Loaded shard indices, ascending. Vectors above stay sized to the full
  /// manifest with null entries for unserved shards, so shard indices keep
  /// meaning manifest indices everywhere.
  std::vector<size_t> served_;

  std::vector<std::string> table_names_;          ///< [global table] -> name
  std::vector<uint32_t> attr_table_;              ///< [global attr] -> global table
  /// [shard][local attr] -> global attr. Strictly increasing in the local
  /// id (shards keep their tables in ascending global order), which is what
  /// lets per-shard candidate lists merge into the global id-order first-m.
  std::vector<std::vector<uint32_t>> attr_global_;
  std::vector<uint32_t> attr_shard_;              ///< [global attr] -> owning shard
  std::vector<uint32_t> attr_local_;              ///< [global attr] -> local attr id
  uint64_t index_fingerprint_ = 0;                ///< manifest checksum digest

  mutable ThreadPool pool_;
};

}  // namespace d3l::serving
