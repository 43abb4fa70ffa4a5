// The unified query API every D3L serving deployment speaks.
//
// A SearchBackend is anything that can profile a target table into a
// QueryTarget and answer top-k relatedness queries from it: a single
// in-process D3LEngine (EngineBackend below), a scatter-gather
// ShardedEngine (sharded_engine.h), and — because the interface is
// polymorphic — whatever comes next (remote replicas, tiered indexes)
// without the front-ends changing. Profile and Search are split on purpose:
//
//   * a front-end profiles ONCE and may fan the QueryTarget out to several
//     backends before any retrieval work happens (profiles depend only on
//     the target table and the engine options, never on the indexed lake,
//     which is why a result cache can key by the table and skip profiling
//     on a hit);
//   * Search(target, k, mask) is then a pure function of the profiled
//     target and the backend's indexed data — which is what makes cached
//     results byte-identical to recomputed ones.
//
// Info() describes the backend's identity: table/attribute counts plus two
// fingerprints — the canonical options fingerprint (core::OptionsFingerprint)
// and an index fingerprint derived from the snapshot/manifest checksums the
// backend was opened from. DiscoveryService mixes both into its cache keys,
// so results cached against one index can never be served from another.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/query.h"
#include "table/lake.h"

namespace d3l::serving {

/// \brief What is actually answering queries behind a SearchBackend.
///
/// Typed (rather than the free-form string it once was) because the kind is
/// carried over the RPC wire and branched on by front-ends; the numeric
/// values are stable for the same reason StatusCode's are.
enum class BackendKind : uint32_t {
  kEngine = 0,   ///< one in-process core::D3LEngine
  kSharded = 1,  ///< scatter-gather over local shard snapshots
  kRemote = 2,   ///< scatter-gather over remote shard servers (RPC)
};

/// \brief Display name of a BackendKind: "engine" / "sharded" / "remote".
const char* BackendKindName(BackendKind kind);

/// \brief Inverse of BackendKindName; fails on unknown names.
Result<BackendKind> ParseBackendKind(const std::string& name);

/// \brief Identity and shape of a SearchBackend (the `Info()` view).
struct BackendInfo {
  BackendKind kind = BackendKind::kEngine;
  size_t num_tables = 0;      ///< datasets served
  size_t num_attributes = 0;  ///< attributes indexed
  size_t num_shards = 1;      ///< index partitions behind this backend
  /// core::OptionsFingerprint of the backend's options: backends agree
  /// exactly when they rank identically over identical data.
  uint64_t options_fingerprint = 0;
  /// Content identity of the indexed data. For snapshot/manifest-opened
  /// backends this is derived from the file checksums already maintained
  /// by src/io — reindexing or swapping the underlying files changes it,
  /// which is what invalidates result-cache entries across restarts.
  uint64_t index_fingerprint = 0;
};

/// \brief Abstract top-k dataset discovery backend (the tentpole API).
class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Profiles a target table into the backend-independent QueryTarget
  /// (per-column profiles + signatures + subject column). Fails on a
  /// table with no columns.
  virtual Result<core::QueryTarget> Profile(const Table& target) const = 0;

  /// Top-k datasets related to an already-profiled target, with an
  /// explicit evidence mask. Deterministic: equal (target, k, mask) against
  /// equal indexed data yields byte-identical SearchResults. Takes the
  /// target by value — the profiles/signatures end up inside the returned
  /// result — so callers done with a target move it in; callers keeping it
  /// (e.g. to fan one target out to several backends) pass a copy.
  virtual Result<core::SearchResult> Search(
      core::QueryTarget target, size_t k,
      const std::array<bool, core::kNumEvidence>& enabled_mask) const = 0;

  /// Convenience: Profile + Search with the backend options' evidence mask.
  Result<core::SearchResult> Search(const Table& target, size_t k) const;

  /// The (uniform) engine options behind this backend.
  virtual const core::D3LOptions& options() const = 0;

  /// Identity/shape metadata (cache keying, diagnostics).
  virtual BackendInfo Info() const = 0;

  /// Display name of a served dataset (SearchResult table indexes).
  virtual std::string table_name(uint32_t table_index) const = 0;
};

/// \brief SearchBackend adapter over a single in-process core::D3LEngine.
///
/// Non-owning by default: the engine and the lake it was built over must
/// outlive the backend. FromSnapshot() instead loads and owns an engine
/// from a .d3l file, with the index fingerprint tied to the file's size and
/// CRC32 (the checksums src/io already maintains).
class EngineBackend : public SearchBackend {
 public:
  /// Wraps a built engine. `index_fingerprint` pins the cache identity of
  /// the indexed data; pass 0 to derive one from the lake's schema
  /// fingerprint, attribute count, and each table's recorded source
  /// identity (file + size + CRC32, when present). Two backends swapped
  /// through a running service (DiscoveryService::SwapBackend) must not
  /// share a fingerprint unless their results are byte-identical — tables
  /// without a load-time source contribute only their schema here, so
  /// in-memory deployments should pass an explicit fingerprint or prefer
  /// FromSnapshot's checksum-derived identity, which guarantees it.
  EngineBackend(const core::D3LEngine* engine, const DataLake* lake,
                uint64_t index_fingerprint = 0);

  /// Loads a snapshot written by D3LEngine::SaveSnapshot and serves it,
  /// owning the engine and its schema metadata. The index fingerprint is
  /// derived from the snapshot's size and section checksums
  /// (io::FileIdentity — O(sections), no second full-file read). `mode`
  /// defaults to mapped loading (zero-copy index arrays where the format
  /// and platform allow it; silent buffered fallback otherwise).
  static Result<std::unique_ptr<EngineBackend>> FromSnapshot(
      const std::string& path,
      core::SnapshotLoadMode mode = core::SnapshotLoadMode::kMapped);

  using SearchBackend::Search;  // the Profile+Search convenience overload

  Result<core::QueryTarget> Profile(const Table& target) const override;
  Result<core::SearchResult> Search(
      core::QueryTarget target, size_t k,
      const std::array<bool, core::kNumEvidence>& enabled_mask) const override;
  const core::D3LOptions& options() const override { return engine_->options(); }
  BackendInfo Info() const override;
  std::string table_name(uint32_t table_index) const override;

  const core::D3LEngine& engine() const { return *engine_; }

 private:
  EngineBackend() = default;

  const core::D3LEngine* engine_ = nullptr;
  const DataLake* lake_ = nullptr;
  uint64_t index_fingerprint_ = 0;
  /// FromSnapshot ownership (declaration order: the lake must outlive the
  /// engine loaded over it, so it is destroyed last).
  std::unique_ptr<DataLake> owned_lake_;
  std::unique_ptr<core::D3LEngine> owned_engine_;
};

}  // namespace d3l::serving
