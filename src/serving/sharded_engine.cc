#include "serving/sharded_engine.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/hash.h"

namespace d3l::serving {

ShardedEngine::ShardedEngine(ShardManifest manifest, size_t num_threads)
    : manifest_(std::move(manifest)),
      pool_(num_threads > 0 ? num_threads : ThreadPool::DefaultThreads()) {}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& manifest_path, ShardedEngineOptions options,
    const ShardedEngine* reuse) {
  D3L_ASSIGN_OR_RETURN(ShardManifest manifest, ShardManifest::Load(manifest_path));
  auto engine = std::unique_ptr<ShardedEngine>(
      new ShardedEngine(std::move(manifest), options.num_threads));
  const ShardManifest& m = engine->manifest_;
  const size_t n_shards = m.shards.size();

  // Which manifest shards this process loads and serves.
  if (options.serve_shards.empty()) {
    engine->served_.resize(n_shards);
    std::iota(engine->served_.begin(), engine->served_.end(), 0);
  } else {
    if (!m.has_column_counts()) {
      return Status::InvalidArgument(
          "manifest records no per-table column counts (v1/v2 format); "
          "serving a shard subset needs the global attribute numbering, so "
          "rebuild or incrementally update the deployment first");
    }
    std::vector<size_t> served = options.serve_shards;
    std::sort(served.begin(), served.end());
    served.erase(std::unique(served.begin(), served.end()), served.end());
    if (served.back() >= n_shards) {
      return Status::InvalidArgument(
          "serve_shards names shard " + std::to_string(served.back()) +
          " but the manifest has only " + std::to_string(n_shards));
    }
    engine->served_ = std::move(served);
  }

  // The backend's index identity: every shard file's size/CRC32 and schema
  // fingerprint — plus, for v2 manifests, every table's recorded source
  // identity — folded in manifest order. Any rebuilt, swapped or
  // re-partitioned shard set digests differently (an incremental
  // UpdateShards rewrites the dirty shards' checksums and sources), which
  // is what ties result-cache invalidation to the manifest checksums.
  // Deliberately folded over the FULL manifest even when serve_shards
  // restricts loading: every subset server of one deployment then reports
  // the same identity as an in-process engine over all of it, so a remote
  // coordinator can verify its servers agree — and cached results keyed on
  // the local fingerprint stay valid for the remote deployment.
  engine->index_fingerprint_ = HashCombine(m.total_tables, m.total_attributes);
  for (const ShardManifestEntry& entry : m.shards) {
    engine->index_fingerprint_ = HashCombine(
        engine->index_fingerprint_,
        HashCombine(HashCombine(entry.file_bytes, entry.file_crc32),
                    entry.schema_crc32));
    for (const TableSource& src : entry.sources) {
      engine->index_fingerprint_ = HashCombine(
          engine->index_fingerprint_,
          HashCombine(HashBytes(src.file.data(), src.file.size(), src.bytes),
                      src.crc32));
    }
  }

  // Match unchanged shards against the previous generation by content
  // identity (file bytes + CRC32 + schema fingerprint): the checksums
  // pin the exact snapshot bytes, so a matching replica already holds the
  // byte-identical index and can be shared instead of reloaded. This is
  // what makes a hot reload after an incremental UpdateShards cost only
  // the rebuilt shards.
  const size_t n_prev = reuse == nullptr ? 0 : reuse->shards_.size();
  std::vector<size_t> reuse_from(n_shards, SIZE_MAX);
  for (size_t s : engine->served_) {
    if (n_prev == 0) break;
    const ShardManifestEntry& entry = m.shards[s];
    for (size_t j = 0; j < n_prev; ++j) {
      if (reuse->shards_[j] == nullptr) continue;  // unserved in prev generation
      const ShardManifestEntry& prev = reuse->manifest_.shards[j];
      if (prev.file_bytes == entry.file_bytes &&
          prev.file_crc32 == entry.file_crc32 &&
          prev.schema_crc32 == entry.schema_crc32) {
        reuse_from[s] = j;
        ++engine->reused_replicas_;
        break;
      }
    }
  }

  // Load every shard replica, in parallel on the query pool (the section
  // CRCs and the registry and signature decode are the bulk of the open
  // cost for big shard sets).
  engine->shard_lakes_.resize(n_shards);
  engine->shards_.resize(n_shards);
  std::vector<Status> load_status(n_shards);
  engine->pool_.ParallelFor(engine->served_.size(), [&](size_t j) {
    const size_t s = engine->served_[j];
    if (reuse_from[s] != SIZE_MAX) {
      // The previous generation verified these bytes when it loaded them;
      // sharing the replica skips both the disk read and the checksum pass.
      engine->shard_lakes_[s] = reuse->shard_lakes_[reuse_from[s]];
      engine->shards_[s] = reuse->shards_[reuse_from[s]];
      return;
    }
    const ShardManifestEntry& entry = m.shards[s];
    const std::string path = ResolveRelative(manifest_path, entry.file);
    if (options.verify_checksums) {
      auto size_crc = FileSizeAndCrc32(path);
      if (!size_crc.ok()) {
        load_status[s] = size_crc.status();
        return;
      }
      if (size_crc->first != entry.file_bytes || size_crc->second != entry.file_crc32) {
        load_status[s] = Status::IOError("shard file " + entry.file +
                                         " does not match its manifest checksum");
        return;
      }
    }
    auto lake = std::make_unique<DataLake>();
    auto loaded = core::D3LEngine::LoadSnapshot(path, lake.get(), options.load_mode);
    if (!loaded.ok()) {
      load_status[s] = loaded.status();
      return;
    }
    engine->shard_lakes_[s] = std::move(lake);
    engine->shards_[s] = std::move(loaded).ValueOrDie();
  });
  for (size_t s = 0; s < n_shards; ++s) {
    D3L_RETURN_NOT_OK(load_status[s]);
  }

  // Cross-check shard contents against the manifest and each other.
  const size_t first_served = engine->served_.front();
  const uint64_t shard0_options_fp =
      core::OptionsFingerprint(engine->shards_[first_served]->options());
  for (size_t s : engine->served_) {
    const ShardManifestEntry& entry = m.shards[s];
    if (engine->shard_lakes_[s]->size() != entry.num_tables ||
        engine->shards_[s]->indexes().num_attributes() != entry.num_attributes) {
      return Status::IOError("shard file " + entry.file +
                             " disagrees with the manifest table/attribute counts");
    }
    // Schema fingerprint catches a valid snapshot sitting in the wrong
    // entry's slot (same-shaped shards swapped on disk, stale rebuilds)
    // even when file-level checksum verification is off.
    if (SchemaFingerprint(*engine->shard_lakes_[s]) != entry.schema_crc32) {
      return Status::IOError("shard file " + entry.file +
                             " does not contain the tables the manifest "
                             "assigns to it");
    }
    // Options uniformity across shards: everything that influences
    // signatures, distances or ranking must match. The canonical options
    // fingerprint covers exactly that set (num_threads — build-time
    // parallelism only — is excluded by construction).
    if (s != first_served &&
        core::OptionsFingerprint(engine->shards_[s]->options()) !=
            shard0_options_fp) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " was built with different engine options than shard " +
          std::to_string(first_served) +
          "; sharded serving requires uniform options");
    }
  }

  // Global numbering: table names, per-table attribute id bases (attributes
  // are assigned densely in table order, then column order, exactly as a
  // single engine's IndexLake would) and the shard-local -> global maps.
  // The column counts of UNSERVED tables — without which the bases of
  // everything after them are unknown — come from the v3 manifest; a full
  // engine reads them off its loaded lakes (and cross-checks the manifest
  // where it records them).
  engine->table_names_.assign(m.total_tables, "");
  std::vector<size_t> cols_of(m.total_tables, 0);
  if (m.has_column_counts()) {
    for (size_t s = 0; s < n_shards; ++s) {
      for (size_t lt = 0; lt < m.shards[s].global_tables.size(); ++lt) {
        cols_of[m.shards[s].global_tables[lt]] = m.shards[s].column_counts[lt];
      }
    }
  }
  for (size_t s : engine->served_) {
    const DataLake& lake = *engine->shard_lakes_[s];
    for (size_t lt = 0; lt < lake.size(); ++lt) {
      const uint32_t g = m.shards[s].global_tables[lt];
      engine->table_names_[g] = lake.table(lt).name();
      if (m.has_column_counts() && cols_of[g] != lake.table(lt).num_columns()) {
        return Status::IOError("shard file " + m.shards[s].file +
                               " disagrees with the manifest column counts");
      }
      cols_of[g] = lake.table(lt).num_columns();
    }
  }
  std::vector<uint32_t> base(m.total_tables, 0);
  uint32_t next_attr = 0;
  for (size_t g = 0; g < m.total_tables; ++g) {
    base[g] = next_attr;
    next_attr += static_cast<uint32_t>(cols_of[g]);
  }
  if (next_attr != m.total_attributes) {
    return Status::IOError(
        "shard schemas disagree with the manifest attribute total");
  }
  engine->attr_table_.resize(next_attr);
  for (size_t g = 0; g < m.total_tables; ++g) {
    for (size_t c = 0; c < cols_of[g]; ++c) {
      engine->attr_table_[base[g] + c] = static_cast<uint32_t>(g);
    }
  }
  engine->attr_global_.resize(n_shards);
  engine->attr_shard_.resize(next_attr);
  engine->attr_local_.resize(next_attr);
  for (size_t s : engine->served_) {
    const DataLake& lake = *engine->shard_lakes_[s];
    auto& map = engine->attr_global_[s];
    map.resize(engine->shards_[s]->indexes().num_attributes());
    for (size_t lt = 0; lt < lake.size(); ++lt) {
      const uint32_t g = m.shards[s].global_tables[lt];
      for (size_t c = 0; c < lake.table(lt).num_columns(); ++c) {
        const uint32_t local = engine->shards_[s]->attribute_id(
            static_cast<uint32_t>(lt), static_cast<uint32_t>(c));
        const uint32_t global = base[g] + static_cast<uint32_t>(c);
        map[local] = global;
        engine->attr_shard_[global] = static_cast<uint32_t>(s);
        engine->attr_local_[global] = local;
      }
    }
  }
  return engine;
}

Result<core::QueryTarget> ShardedEngine::Profile(const Table& target) const {
  if (target.num_columns() == 0) {
    return Status::InvalidArgument("target has no columns");
  }
  return shards_[served_.front()]->ProfileTarget(target);
}

BackendInfo ShardedEngine::Info() const {
  BackendInfo info;
  info.kind = BackendKind::kSharded;
  info.num_tables = num_tables();
  info.num_attributes = num_attributes();
  info.num_shards = num_shards();
  info.options_fingerprint = core::OptionsFingerprint(options());
  info.index_fingerprint = index_fingerprint_;
  return info;
}

std::vector<ShardedEngine::ServedTable> ShardedEngine::ServedTables() const {
  std::vector<ServedTable> out;
  for (size_t s : served_) {
    const ShardManifestEntry& entry = manifest_.shards[s];
    for (size_t lt = 0; lt < entry.global_tables.size(); ++lt) {
      ServedTable t;
      t.global_id = entry.global_tables[lt];
      t.name = table_names_[t.global_id];
      t.column_count =
          static_cast<uint32_t>(shard_lakes_[s]->table(lt).num_columns());
      out.push_back(std::move(t));
    }
  }
  std::sort(out.begin(), out.end(), [](const ServedTable& a, const ServedTable& b) {
    return a.global_id < b.global_id;
  });
  return out;
}

std::string ShardedEngine::endpoint_name() const {
  std::string name = "shards ";
  for (size_t s : served_) {
    if (s != served_.front()) name += ',';
    name += std::to_string(s);
  }
  return name;
}

Result<core::CandidateDepthCounts> ShardedEngine::CollectDepthCounts(
    const core::QueryTarget& target,
    const std::array<bool, core::kNumEvidence>& enabled_mask, size_t m) const {
  D3L_RETURN_NOT_OK(shards_[served_.front()]->ValidateTarget(target));
  std::vector<core::CandidateDepthCounts> counts(served_.size());
  pool_.ParallelFor(served_.size(), [&](size_t j) {
    counts[j] = shards_[served_[j]]->CollectDepthCounts(target, enabled_mask, m);
  });
  core::CandidateDepthCounts total = std::move(counts[0]);
  for (size_t j = 1; j < counts.size(); ++j) D3L_RETURN_NOT_OK(total.Add(counts[j]));
  return total;
}

Result<ShardScore> ShardedEngine::ScoreAtStops(
    const core::QueryTarget& target, const core::CandidateStopDepths& stops,
    size_t m, const std::array<bool, core::kNumEvidence>& enabled_mask) const {
  D3L_RETURN_NOT_OK(shards_[served_.front()]->ValidateTarget(target, &stops));
  const size_t n_cols = target.sigs.size();

  // Retrieve per served shard at the externally resolved depths, remapped
  // onto global ids (monotone per shard, so lists stay sorted).
  std::vector<core::CandidateLists> cand(served_.size());
  pool_.ParallelFor(served_.size(), [&](size_t j) {
    const size_t s = served_[j];
    core::CandidateLists lists = shards_[s]->CollectCandidates(target, stops, m);
    for (auto& per_evidence : lists.ids) {
      for (auto& ids : per_evidence) {
        for (uint32_t& id : ids) id = attr_global_[s][id];
      }
    }
    cand[j] = std::move(lists);
  });

  // Merge across the served shards before scoring, then split the merged
  // per-column unions back into shard-local candidates.
  ShardScore score;
  score.lists = core::D3LEngine::MergeCandidateLists(cand, m);
  std::vector<std::vector<std::vector<uint32_t>>> shard_candidates(
      served_.size(), std::vector<std::vector<uint32_t>>(n_cols));
  const std::vector<std::vector<uint32_t>> selected =
      core::D3LEngine::UnionCandidates(score.lists);
  for (size_t c = 0; c < n_cols; ++c) {
    for (uint32_t g : selected[c]) {
      const auto it = std::find(served_.begin(), served_.end(),
                                static_cast<size_t>(attr_shard_[g]));
      shard_candidates[it - served_.begin()][c].push_back(attr_local_[g]);
    }
  }
  std::vector<std::vector<core::PairDistances>> rows(served_.size());
  pool_.ParallelFor(served_.size(), [&](size_t j) {
    const size_t s = served_[j];
    rows[j] = shards_[s]->ScoreCandidates(target, shard_candidates[j], enabled_mask);
    for (core::PairDistances& row : rows[j]) {
      row.attribute_id = attr_global_[s][row.attribute_id];
    }
  });
  size_t total_rows = 0;
  for (const auto& r : rows) total_rows += r.size();
  score.rows.reserve(total_rows);
  for (auto& r : rows) {
    score.rows.insert(score.rows.end(), r.begin(), r.end());
  }
  return score;
}

Result<core::SearchResult> ShardedEngine::Search(
    core::QueryTarget target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask) const {
  if (!serves_all()) {
    return Status::InvalidArgument(
        "this engine serves a shard subset; whole-lake Search needs every "
        "shard (subset servers answer the phase API instead)");
  }
  return Coordinate({this}, nullptr, std::move(target), k, enabled_mask, options(),
                    attr_table_, num_tables());
}

std::vector<Result<core::SearchResult>> ShardedEngine::Execute(
    const QueryBatch& batch) const {
  const size_t n_targets = batch.targets.size();
  // A Table repeated across slots is profiled and searched once.
  std::vector<size_t> first(n_targets);
  std::unordered_map<const Table*, size_t> first_slot;
  for (size_t i = 0; i < n_targets; ++i) {
    first[i] = first_slot.try_emplace(batch.targets[i], i).first->second;
  }
  std::vector<Result<core::QueryTarget>> profiled(
      n_targets, Status::InvalidArgument("batch target is null"));
  pool_.ParallelFor(n_targets, [&](size_t i) {
    if (first[i] == i && batch.targets[i] != nullptr) {
      profiled[i] = Profile(*batch.targets[i]);
    }
  });

  std::vector<Result<core::SearchResult>> out;
  out.reserve(n_targets);
  for (size_t i = 0; i < n_targets; ++i) {
    if (first[i] != i) {
      out.push_back(out[first[i]]);
    } else if (!profiled[i].ok()) {
      out.emplace_back(profiled[i].status());
    } else {
      out.push_back(Search(std::move(profiled[i]).ValueOrDie(), batch.k, options().enabled));
    }
  }
  return out;
}

}  // namespace d3l::serving
