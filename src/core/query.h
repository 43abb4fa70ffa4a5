// The D3L engine: index a data lake, then answer top-k relatedness queries
// for a target table (Section III-D).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/aggregation.h"
#include "io/binary_io.h"
#include "core/attribute_profile.h"
#include "core/distance.h"
#include "core/indexes.h"
#include "core/subject_attribute.h"
#include "embedding/subword_model.h"
#include "table/lake.h"

namespace d3l::core {

// When adding a field here, also write it in SaveOptions/LoadOptions
// (query.cc): that serialization is both the snapshot format and the byte
// stream behind OptionsFingerprint, which serving uses for shard-uniformity
// checks and result-cache keys — an unserialized field cannot reach either.
struct D3LOptions {
  IndexOptions index;
  ProfileOptions profile;
  SubwordModelOptions wem;
  EvidenceWeights weights = EvidenceWeights::Default();
  /// Candidate budget per target attribute per index: each LSH Forest is
  /// descended to the depth at which this many distinct candidates match,
  /// and every candidate at that depth is retrieved (then exactly re-ranked
  /// from signatures). Ties at the stop depth can return slightly more.
  size_t candidates_per_attribute = 64;
  /// Evidence-type mask, for the individual-evidence ablation (Fig. 3):
  /// disabled types are neither looked up nor weighted in Eq. 3.
  std::array<bool, kNumEvidence> enabled = {true, true, true, true, true};
  /// Worker threads for lake profiling (0 = hardware concurrency).
  size_t num_threads = 0;
};

/// \brief One ranked candidate dataset.
struct TableMatch {
  uint32_t table_index = 0;
  double distance = 1.0;                    ///< Eq. 3 combined distance
  DistanceVector evidence_distances;        ///< Eq. 1 per-evidence aggregates
  std::vector<PairDistances> pairs;         ///< the Table-I rows for this dataset
};

/// \brief Result of a top-k search.
struct SearchResult {
  std::vector<TableMatch> ranked;  ///< ascending distance, at most k entries

  /// Every candidate table touched by any index lookup, with its attribute
  /// alignments (target column -> lake attribute id). Superset of `ranked`;
  /// feeds Algorithm 3's relatedness condition and the coverage metrics.
  std::unordered_map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>>
      candidate_alignments;

  /// Profiles/signatures of the target columns (reused by join discovery).
  std::vector<AttributeProfile> target_profiles;
  std::vector<AttributeSignatures> target_sigs;
};

/// \brief Timing/size metrics of an IndexLake call.
struct IndexBuildStats {
  double profile_seconds = 0;  ///< feature extraction (dominant, per paper)
  double insert_seconds = 0;   ///< signature + LSH insertion
  size_t num_attributes = 0;
  size_t index_bytes = 0;      ///< MemoryUsage of the four indexes
};

/// \brief How LoadSnapshot backs the loaded index structures.
enum class SnapshotLoadMode {
  kCopied,  ///< buffered read; every array is a heap copy
  /// mmap the snapshot; the forest key/id arrays are served in place from
  /// the mapping (shared, page-cached across processes and replicas).
  /// Falls back to kCopied when mapping is unavailable — results are
  /// identical either way, only the backing differs.
  kMapped,
};

/// \brief What a LoadSnapshot call actually did (perf accounting: the
/// snapshot_load bench and `d3l_snapshot info` report these).
struct SnapshotLoadStats {
  uint32_t format_version = 0;  ///< version found in the file
  bool mapped = false;          ///< the file was served from an mmap
  uint64_t pad_bytes = 0;       ///< alignment padding skipped while reading
  double open_seconds = 0;      ///< whole LoadSnapshot wall time
  /// Wall time decoding the INDX section: registry and signature decode,
  /// the forests and the banded indexes (read and checked in v3, rebuilt
  /// from the signatures for v1 and v2 files).
  double index_parse_seconds = 0;
  /// Wall time of the forest deserialization alone — the full-array
  /// materialization that a mapped load collapses to pointer fixups.
  /// This is the component `bench/snapshot_load` gates mapped-vs-copied.
  double forest_parse_seconds = 0;
};

/// \brief A profiled query target: per-column profiles and signatures plus
/// the detected subject column.
///
/// Depends only on the engine options (hashers, profile settings) — never
/// on the indexed lake — so engines built with identical options, such as
/// the shard replicas of src/serving, produce identical QueryTargets for
/// the same table. This is what lets a sharded deployment profile a target
/// once and reuse it against every shard.
struct QueryTarget {
  std::vector<AttributeProfile> profiles;
  std::vector<AttributeSignatures> sigs;
  int subject_col = -1;
};

/// \brief Canonical 64-bit fingerprint of everything in `options` that
/// influences signatures, distances or ranking.
///
/// Computed by hashing the options' snapshot serialization (SaveOptions)
/// with `num_threads` — pure build-time parallelism — zeroed out, so two
/// engines agree on the fingerprint exactly when they produce identical
/// rankings for identical indexed data. Serving compares fingerprints to
/// enforce shard uniformity and mixes them into result-cache keys; pass
/// different `seed`s to derive independent hashes of the same bytes.
uint64_t OptionsFingerprint(const D3LOptions& options, uint64_t seed = 0);

/// \brief Writes every D3LOptions field into the writer's current section —
/// the single serialization behind engine snapshots, OptionsFingerprint and
/// the RPC wire protocol (a field absent here reaches none of them; see the
/// comment on D3LOptions).
void SaveOptions(io::Writer& w, const D3LOptions& options);

/// \brief Reads options written by SaveOptions; check the reader's status()
/// before use.
D3LOptions LoadOptions(io::Reader& r);

/// \brief Writes a profiled target (per-column profiles + signatures +
/// subject column) into the writer's current section. Exactly the bytes
/// CanonicalTargetBytes fingerprints, so a target shipped over the wire and
/// one profiled locally with the same options produce identical cache keys.
void SaveQueryTarget(io::Writer& w, const QueryTarget& target);

/// \brief Reads a target written by SaveQueryTarget; check the reader's
/// status() before use.
QueryTarget LoadQueryTarget(io::Reader& r);

/// \brief Writes a SearchResult — ranking, candidate alignments (in sorted
/// table order, so equal results serialize to equal bytes), and the target
/// profiles/signatures — into the writer's current section.
void SaveSearchResult(io::Writer& w, const SearchResult& result);

/// \brief Reads a result written by SaveSearchResult; check the reader's
/// status() before use.
SearchResult LoadSearchResult(io::Reader& r);

/// \brief Canonical byte string of a profiled query target: the serialized
/// per-column profiles and signatures plus the subject column.
///
/// Two targets serialize identically iff they are indistinguishable to
/// every later query phase — the property that lets a result cache treat
/// "same bytes" as "same answer". Callers needing several independent
/// hashes of one target (the serving cache's 128-bit keys) serialize once
/// and hash the returned string per seed.
std::string CanonicalTargetBytes(const QueryTarget& target);

/// \brief Distinct-candidate counts per LSH-Forest prefix depth for every
/// (target column, evidence index) pair — the scatter half of candidate
/// retrieval.
///
/// counts[c][e] is LshForest::DepthCounts for target column c against the
/// evidence-e forest, or empty when that index is not consulted (disabled
/// evidence, or a query column without the evidence). Because shards index
/// disjoint attribute sets, counts from shard replicas Add() element-wise
/// into exactly the whole-lake counts, so the stop depths — and therefore
/// the candidate sets — of a sharded query match the single engine's.
struct CandidateDepthCounts {
  std::vector<std::array<std::vector<size_t>, kNumEvidence>> counts;

  /// Element-wise accumulation of another engine's counts. The shapes must
  /// match (same columns, same consulted indexes, same forest depths);
  /// otherwise returns InvalidArgument, and this sum is no longer usable.
  Status Add(const CandidateDepthCounts& other);
};

/// \brief Resolved candidate-retrieval depth for every (column, evidence)
/// lookup: candidates are all attributes matching at >= that depth. A depth
/// of 0 means the index is not consulted for that column.
struct CandidateStopDepths {
  std::vector<std::array<size_t, kNumEvidence>> depths;
};

/// \brief Retrieved candidate ids per (column, evidence): ascending, and
/// capped at the per-index budget m by id order — a canonical truncation
/// rule (smallest ids win) that bounds scoring work on degenerate lakes
/// where one prefix bucket holds far more than m attributes. Because a
/// shard's local id order is monotone in the global id order, per-shard
/// lists merge into exactly the whole-lake first-m (src/serving).
struct CandidateLists {
  std::vector<std::array<std::vector<uint32_t>, kNumEvidence>> ids;
};

/// \brief Dataset discovery engine (indexing + querying).
class D3LEngine {
 public:
  explicit D3LEngine(D3LOptions options = {});

  const D3LOptions& options() const { return options_; }

  /// Profiles and indexes every attribute of the lake (Algorithm 1) and
  /// detects each table's subject attribute. The lake must outlive the
  /// engine. May be called once.
  Status IndexLake(const DataLake& lake);

  /// Top-k most related datasets to `target` (Definition 1 relatedness,
  /// Eq. 1-3 scoring). Per-index candidate retrieval descends each LSH
  /// Forest to the depth at which max(options().candidates_per_attribute, k)
  /// distinct candidates exist and scores every candidate at that depth —
  /// so larger answers do more lookup work, as in the paper's Experiments
  /// 5-6, and retrieval decomposes exactly across shards (src/serving).
  Result<SearchResult> Search(const Table& target, size_t k) const;

  /// Search with an explicit evidence mask (the Fig. 3 single-evidence
  /// ablation); disabled types are neither looked up nor weighted.
  Result<SearchResult> Search(const Table& target, size_t k,
                              const std::array<bool, kNumEvidence>& enabled_mask) const;

  /// Checks a profiled target, and the stop depths it is retrieved at when
  /// given, against this engine's index shapes: one signature set per
  /// profile (at least one), a subject column in range, MinHash signatures
  /// of IndexOptions::minhash_size values, embedding signatures of rp_bits
  /// bits in (rp_bits + 63) / 64 words, ascending NaN-free numeric samples
  /// (IsKsSample), and one stop depth per (column, evidence) within that
  /// forest's key width (D3LIndexes::max_depth). Targets can arrive from
  /// clients (src/rpc), so a violation is InvalidArgument, never a crash.
  /// SearchTarget and every ShardedEngine query entry run it first.
  Status ValidateTarget(const QueryTarget& target,
                        const CandidateStopDepths* stops = nullptr) const;

  /// Search from an already-profiled target (ProfileTarget output): the
  /// whole retrieval/scoring/ranking pipeline minus the profiling phase.
  /// This is the entry the serving layer's SearchBackend interface maps
  /// onto — a front-end profiles once (possibly caching on the profile
  /// fingerprint) and then queries any backend built with the same options.
  /// The target's profiles/signatures are moved into the returned result.
  Result<SearchResult> SearchTarget(QueryTarget target, size_t k,
                                    const std::array<bool, kNumEvidence>& enabled_mask) const;

  // -- Scatter-gather decomposition of Search --
  //
  // Search(target, k) is exactly ProfileTarget -> CollectDepthCounts ->
  // ResolveStopDepths -> CollectCandidates -> UnionCandidates ->
  // ScoreCandidates -> RankRows. serving::Coordinate runs the same pipeline
  // over disjoint shards: depth counts are Add()ed before resolving stop
  // depths, candidate lists (whose local id order is monotone in the global
  // order) are joined by MergeCandidateLists, and scored rows with global
  // attribute ids are concatenated before ranking — yielding a top-k that is
  // byte-identical to a single engine over the whole lake.

  /// Profiles a target table (columns must be non-empty). Shard-independent:
  /// depends only on the engine options.
  QueryTarget ProfileTarget(const Table& target) const;

  /// Scatter phase A: distinct-candidate counts per forest depth for every
  /// (column, consulted index) pair. The consulted indexes are the enabled
  /// evidences plus the Algorithm-2 numeric fallback (a numeric column with
  /// distribution evidence enabled draws candidates through IN and IF).
  /// A non-zero `budget` (the per-index m) lets each forest stop scanning
  /// once it alone has seen that many distinct candidates; counts at depths
  /// at or below the final stop depth stay exact, so stop depths — and the
  /// retrieved candidates — are unchanged (LshForest::DepthCounts).
  CandidateDepthCounts CollectDepthCounts(
      const QueryTarget& target, const std::array<bool, kNumEvidence>& enabled_mask,
      size_t budget = 0) const;

  /// The stop rule applied to (possibly shard-summed) depth counts:
  /// the deepest depth with at least m distinct candidates, else 1
  /// (LshForest::StopDepth); 0 where an index is not consulted.
  static CandidateStopDepths ResolveStopDepths(const CandidateDepthCounts& counts,
                                               size_t m);

  /// Scatter phase B: the candidates matching at the stop depths, per
  /// (column, evidence), ascending and truncated to the m smallest ids.
  /// (Indexes not consulted carry stop depth 0 and yield empty lists.)
  CandidateLists CollectCandidates(const QueryTarget& target,
                                   const CandidateStopDepths& stops, size_t m) const;

  /// Per-column union (sorted, deduplicated) of a CandidateLists — the
  /// shape ScoreCandidates consumes.
  static std::vector<std::vector<uint32_t>> UnionCandidates(
      const CandidateLists& lists);

  /// Joins candidate lists from disjoint shards, all for the same target
  /// columns: per (column, evidence), the m smallest ids of their union, in
  /// ascending order — the CollectCandidates cap applied across shards. An
  /// id in the whole-lake first m has fewer than m smaller ids in any one
  /// shard, so merging each shard's first m yields the whole-lake lists.
  static CandidateLists MergeCandidateLists(const std::vector<CandidateLists>& parts,
                                            size_t m);

  /// Scatter phase C: scores the given candidates — one PairDistances row
  /// per (target column, candidate attribute), in (column, id) order.
  /// `per_column_candidates[c]` must be sorted and deduplicated. Pure
  /// per-engine work: a row depends only on the query and that candidate,
  /// never on other candidates, so shard rows concatenate into exactly the
  /// single-engine row set.
  std::vector<PairDistances> ScoreCandidates(
      const QueryTarget& target,
      const std::vector<std::vector<uint32_t>>& per_column_candidates,
      const std::array<bool, kNumEvidence>& enabled_mask) const;

  /// Gather phase: rebuilds the Eq. 2 distance distributions from the rows,
  /// aggregates per dataset (Eq. 1), combines with the evidence weights
  /// (Eq. 3) and returns the top-k with candidate alignments filled in.
  /// `table_of` maps an attribute id to its dataset index in [0, num_tables).
  /// Deterministic: rows are canonically re-sorted by (column, attribute id)
  /// first, so any permutation of the same row set ranks identically.
  static SearchResult RankRows(std::vector<PairDistances> rows,
                               size_t num_target_columns, size_t num_tables,
                               const std::function<uint32_t(uint32_t)>& table_of,
                               const EvidenceWeights& weights, size_t k);

  const DataLake* lake() const { return lake_; }
  const D3LIndexes& indexes() const { return indexes_; }
  const IndexBuildStats& build_stats() const { return build_stats_; }

  /// Serializes the built engine — options, lake table/column metadata,
  /// profiles, signatures, LSH structures and table→attribute mappings —
  /// to a versioned binary snapshot ("profile once, serve many"). Requires
  /// IndexLake to have run.
  Status SaveSnapshot(const std::string& path) const;

  /// Loads a snapshot written by SaveSnapshot. `lake_metadata` receives
  /// schema-only tables (names + column names, no cells), must be empty on
  /// entry and must outlive the returned engine, which serves Search()
  /// without re-profiling. Under the default SnapshotLoadMode::kMapped a
  /// current-version snapshot is mmapped and the index arrays borrow the
  /// mapping (the engine keeps it alive); v1 snapshots and mapping failures
  /// fall back to full deserialization, and v1/v2 snapshots rebuild their
  /// banded indexes, all with identical results. Truncated,
  /// corrupt or version-mismatched files fail with a descriptive non-OK
  /// Status. See load_stats() for what a given load actually did.
  static Result<std::unique_ptr<D3LEngine>> LoadSnapshot(
      const std::string& path, DataLake* lake_metadata,
      SnapshotLoadMode mode = SnapshotLoadMode::kMapped);

  /// Magic bytes and format-version range of engine snapshot files.
  /// v1: per-entry forest encoding. v2: flat aligned forest arrays
  /// (mappable). v3: registry records without the q/t/r sets, plus the
  /// banded indexes as sorted aligned arrays (see D3LIndexes::Load).
  /// Readers accept [kSnapshotMinReadVersion, kSnapshotVersion].
  static constexpr char kSnapshotMagic[9] = "D3LSNAP\n";
  static constexpr uint32_t kSnapshotVersion = 3;
  static constexpr uint32_t kSnapshotMinReadVersion = 1;

  /// Lightweight snapshot metadata (the `d3l_snapshot info` view).
  struct SnapshotInfo {
    D3LOptions options;
    size_t num_tables = 0;
    size_t num_attributes = 0;    ///< sum of the schema column counts
    uint32_t format_version = 0;  ///< version found in the file
    bool mappable = false;        ///< flat-array format (zero-copy capable)
  };

  /// Reads a snapshot's options and lake schema metadata without loading
  /// the index sections — cheap even for large snapshots.
  static Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

  /// Subject-attribute column of an indexed table (-1 if none).
  int subject_column(uint32_t table_index) const;
  /// Registry id of (table, column); tables/columns must be indexed.
  uint32_t attribute_id(uint32_t table_index, uint32_t column) const;
  /// Registry id of a table's subject attribute (UINT32_MAX if none).
  uint32_t subject_attribute_id(uint32_t table_index) const;

  const WordEmbeddingModel& wem() const { return *wem_; }
  const SubjectAttributeDetector& subject_detector() const { return detector_; }

  /// What the snapshot load that produced this engine did (all zero for
  /// engines built via IndexLake).
  const SnapshotLoadStats& load_stats() const { return load_stats_; }

 private:
  D3LOptions options_;
  /// Shared across engines with equal options (SharedSubwordModel): the
  /// bucket table is immutable and expensive, and serving processes hold
  /// many same-options engines (shard replicas, reload generations).
  std::shared_ptr<const SubwordHashModel> wem_;
  SubjectAttributeDetector detector_;
  D3LIndexes indexes_;
  const DataLake* lake_ = nullptr;
  std::vector<std::vector<uint32_t>> attr_ids_;  // [table][column] -> id
  std::vector<int> subject_cols_;                // [table] -> column or -1
  IndexBuildStats build_stats_;
  SnapshotLoadStats load_stats_;
};

}  // namespace d3l::core
