// The four LSH indexes of D3L (IN, IV, IF, IE — Section III-B) plus the
// attribute registry they index into.
//
// Each index pairs an LSH Forest (top-m candidate retrieval) with a banded
// threshold index (membership lookups at the configured tau, used by the
// Algorithm-2 guards and the SA-join graph). Signatures are retained so
// distances between any two indexed/query attributes can be estimated
// without touching raw extents.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/attribute_profile.h"
#include "core/evidence.h"
#include "io/binary_io.h"
#include "lsh/lsh_banding.h"
#include "lsh/lsh_forest.h"
#include "lsh/minhash.h"
#include "lsh/simhash.h"

namespace d3l::core {

struct IndexOptions {
  size_t minhash_size = 256;   ///< MinHash signature size (paper: 256)
  double lsh_threshold = 0.7;  ///< tau for threshold lookups (paper: 0.7)
  /// Jaccard threshold of the auxiliary IV index used for SA-join
  /// discovery. Join candidates are containment-flavoured (a small tset
  /// included in a large one has a high overlap coefficient but a modest
  /// Jaccard), so this sits well below lsh_threshold; candidates are then
  /// filtered on the estimated overlap coefficient (Section IV's bound).
  double join_threshold = 0.45;
  size_t rp_bits = 256;        ///< random-projection signature bits
  size_t embedding_dim = 64;   ///< WEM dimensionality p
  LshForestOptions forest;     ///< trees * hashes_per_tree <= minhash_size
  uint64_t seed = 0xd31a5eed;

  bool operator==(const IndexOptions&) const = default;
};

/// \brief The signatures of one attribute under all four hashing schemes.
struct AttributeSignatures {
  Signature name_sig;    ///< MinHash of the qset
  Signature value_sig;   ///< MinHash of the tset (empty for numeric attrs)
  Signature format_sig;  ///< MinHash of the rset
  BitSignature emb_sig;  ///< random projections of the embedding vector
  bool has_value = false;
  bool has_embedding = false;

  /// Serializes all signatures into the writer's current section.
  void Save(io::Writer& w) const;

  /// Deserializes signatures written by Save(); check the reader's
  /// status() before use.
  static AttributeSignatures Load(io::Reader& r);
};

/// \brief What the registry keeps of an indexed attribute once its
/// signatures are computed: the fields lookups, scoring, the join graph and
/// callers read. The q/t/r sets and the embedding survive only as
/// signatures (a query target keeps its full AttributeProfile).
struct IndexedAttribute {
  AttributeRef ref;
  std::string column_name;
  bool is_numeric = false;
  size_t tset_size = 0;  ///< |tset|, for SaJoinGraph's overlap bound
  std::vector<double> numeric_sample;  ///< ascending, NaN-free (evidence D)

  /// The registry record of a full profile.
  static IndexedAttribute From(AttributeProfile profile);

  /// Approximate heap footprint (space-overhead accounting).
  size_t MemoryUsage() const;

  void Save(io::Writer& w) const;
  /// Deserializes a record written by Save(); check the reader's status().
  static IndexedAttribute Load(io::Reader& r);
};

/// \brief Attribute registry + IN/IV/IF/IE. Insertion is Algorithm 1.
class D3LIndexes {
 public:
  explicit D3LIndexes(IndexOptions options = {});

  const IndexOptions& options() const { return options_; }

  /// Registers an attribute: computes signatures and inserts them into the
  /// four indexes (Algorithm 1 lines 15-18), keeping the profile's
  /// IndexedAttribute record. Returns the attribute id.
  uint32_t Insert(AttributeProfile profile);

  /// Sorts the forests and banded indexes; must be called after the last
  /// Insert.
  void Finalize();

  size_t num_attributes() const { return profiles_.size(); }
  const IndexedAttribute& profile(uint32_t id) const { return profiles_[id]; }
  const AttributeSignatures& signatures(uint32_t id) const { return sigs_[id]; }

  /// Computes query signatures for a non-inserted profile (target attrs).
  AttributeSignatures Sign(const AttributeProfile& profile) const;

  /// Top-m candidates from one evidence index. Indexes without evidence for
  /// the query (e.g. IV for a numeric target) return empty.
  std::vector<uint32_t> Lookup(Evidence e, const AttributeSignatures& query,
                               size_t m) const;

  /// Distinct-candidate counts per LSH-Forest prefix depth for one evidence
  /// index (LshForest::DepthCounts). Returns an empty vector when the query
  /// lacks the evidence. Counts of engines over disjoint attribute sets
  /// (src/serving shards) add element-wise, which is what makes the Search
  /// stop depths exactly reproducible under sharding. A non-zero `budget`
  /// enables the forest's early-terminated scan (exact at and below the
  /// stop depth; see LshForest::DepthCounts).
  std::vector<size_t> LookupDepthCounts(Evidence e, const AttributeSignatures& query,
                                        size_t budget = 0) const;

  /// All candidates of one evidence index matching the query at a prefix
  /// depth of at least `min_depth` (LshForest::QueryAtDepth), ascending and
  /// distinct. Returns empty when the query lacks the evidence or min_depth
  /// is 0.
  std::vector<uint32_t> LookupAtDepth(Evidence e, const AttributeSignatures& query,
                                      size_t min_depth) const;

  /// Threshold membership: ids whose signature collides with the query in
  /// the banded index at tau (the paper's "a' in IN.lookup(a)" relation).
  /// Ascending and distinct (BandedLsh::Query).
  std::vector<uint32_t> LookupThreshold(Evidence e,
                                        const AttributeSignatures& query) const;

  /// IV lookup at the (lower) join threshold — SA-join candidate retrieval.
  /// Ascending and distinct.
  std::vector<uint32_t> LookupValueJoin(const AttributeSignatures& query) const;

  /// Key width (hashes per tree) of evidence e's forest: the deepest prefix
  /// a depth lookup can ask for. 0 for Evidence::kDistribution, which has
  /// no forest.
  size_t max_depth(Evidence e) const;

  /// Estimated distance of one evidence type between a query attribute and
  /// an indexed attribute; 1.0 when evidence is missing on either side.
  /// Evidence::kDistribution is not served here (see distance.h).
  double EstimateDistance(Evidence e, const AttributeSignatures& query,
                          uint32_t id) const;

  size_t MemoryUsage() const;

  /// How many of the five banded indexes borrow their arrays from a
  /// snapshot mapping (a mapped v3 load borrows all five).
  size_t banded_borrowing_mapping() const;

  /// Wall time the last Load() spent deserializing the four forests — the
  /// array-materialization component that a mapped kFlat reader collapses
  /// to pointer fixups. Zero for indexes built in process.
  double forest_parse_seconds() const { return forest_parse_seconds_; }

  /// Serializes options, registry records, signatures, the four LSH
  /// forests and the five banded indexes (the snapshot v3 layout) into the
  /// writer's current section. Finalize() must have run.
  void Save(io::Writer& w) const;

  /// Deserializes indexes from an engine snapshot of `snapshot_version`,
  /// which fixes the layout: v1 has full profiles, per-entry forests and
  /// no banded indexes; v2 has full profiles, flat aligned forests and no
  /// banded indexes; v3 (Save) has registry records, flat forests and the
  /// sorted banded arrays. Under a mapped reader a v3 load borrows the
  /// forest and banded arrays from the mapping (v2 the forest arrays)
  /// instead of copying them. Full profiles are slimmed to registry
  /// records, and missing banded indexes are rebuilt from the signatures
  /// by Insert + Index() as in a build. Fails with a non-OK Status on
  /// truncated payloads, structural inconsistencies (e.g. signature sizes
  /// or band shapes that contradict the saved options, unsorted bands, ids
  /// outside the registry) or reader errors.
  static Result<D3LIndexes> Load(io::Reader& r, uint32_t snapshot_version);

 private:
  IndexOptions options_;
  MinHasher name_hasher_;
  MinHasher value_hasher_;
  MinHasher format_hasher_;
  RandomProjectionHasher rp_hasher_;

  LshForest name_forest_;
  LshForest value_forest_;
  LshForest format_forest_;
  LshForest emb_forest_;

  BandedLsh name_banded_;
  BandedLsh value_banded_;
  BandedLsh format_banded_;
  BandedLsh emb_banded_;
  BandedLsh value_join_banded_;  ///< IV at join_threshold (Section IV)

  /// The banded indexes in Save/Load order.
  std::array<BandedLsh*, 5> banded() {
    return {&name_banded_, &value_banded_, &format_banded_, &emb_banded_,
            &value_join_banded_};
  }
  std::array<const BandedLsh*, 5> banded() const {
    return {&name_banded_, &value_banded_, &format_banded_, &emb_banded_,
            &value_join_banded_};
  }
  /// Inserts one attribute's signatures into the banded indexes.
  void InsertBanded(uint32_t id, const AttributeSignatures& s);

  std::vector<IndexedAttribute> profiles_;
  std::vector<AttributeSignatures> sigs_;

  double forest_parse_seconds_ = 0;  ///< see forest_parse_seconds()
};

}  // namespace d3l::core
