#include "core/query.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/hash.h"
#include "io/binary_io.h"
#include "stats/ks.h"

namespace d3l::core {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

constexpr uint32_t kSectionOptions = io::SectionId("OPTS");
constexpr uint32_t kSectionLake = io::SectionId("LAKE");
constexpr uint32_t kSectionIndexes = io::SectionId("INDX");
constexpr uint32_t kSectionEngine = io::SectionId("ENGN");
}  // namespace

void SaveOptions(io::Writer& w, const D3LOptions& o) {
  w.WriteU64(o.index.minhash_size);
  w.WriteDouble(o.index.lsh_threshold);
  w.WriteDouble(o.index.join_threshold);
  w.WriteU64(o.index.rp_bits);
  w.WriteU64(o.index.embedding_dim);
  w.WriteU64(o.index.forest.num_trees);
  w.WriteU64(o.index.forest.hashes_per_tree);
  w.WriteU64(o.index.seed);
  w.WriteU64(o.profile.qgram_q);
  w.WriteU64(o.profile.max_values);
  w.WriteU64(o.profile.max_numeric_sample);
  w.WriteU64(o.wem.dim);
  w.WriteU64(o.wem.min_ngram);
  w.WriteU64(o.wem.max_ngram);
  w.WriteU64(o.wem.num_buckets);
  w.WriteU64(o.wem.seed);
  for (double wt : o.weights.w) w.WriteDouble(wt);
  w.WriteU64(o.candidates_per_attribute);
  for (bool e : o.enabled) w.WriteBool(e);
  w.WriteU64(o.num_threads);
}

D3LOptions LoadOptions(io::Reader& r) {
  D3LOptions o;
  o.index.minhash_size = r.ReadU64();
  o.index.lsh_threshold = r.ReadDouble();
  o.index.join_threshold = r.ReadDouble();
  o.index.rp_bits = r.ReadU64();
  o.index.embedding_dim = r.ReadU64();
  o.index.forest.num_trees = r.ReadU64();
  o.index.forest.hashes_per_tree = r.ReadU64();
  o.index.seed = r.ReadU64();
  o.profile.qgram_q = r.ReadU64();
  o.profile.max_values = r.ReadU64();
  o.profile.max_numeric_sample = r.ReadU64();
  o.wem.dim = r.ReadU64();
  o.wem.min_ngram = r.ReadU64();
  o.wem.max_ngram = r.ReadU64();
  o.wem.num_buckets = r.ReadU64();
  o.wem.seed = r.ReadU64();
  for (double& wt : o.weights.w) wt = r.ReadDouble();
  o.candidates_per_attribute = r.ReadU64();
  for (size_t t = 0; t < kNumEvidence; ++t) o.enabled[t] = r.ReadBool();
  o.num_threads = r.ReadU64();
  return o;
}

void SaveQueryTarget(io::Writer& w, const QueryTarget& target) {
  w.WriteU64(target.profiles.size());
  for (size_t c = 0; c < target.profiles.size(); ++c) {
    target.profiles[c].Save(w);
    target.sigs[c].Save(w);
  }
  w.WriteI32(target.subject_col);
}

QueryTarget LoadQueryTarget(io::Reader& r) {
  QueryTarget target;
  const size_t n = r.ReadLength(1);
  target.profiles.reserve(n);
  target.sigs.reserve(n);
  for (size_t c = 0; c < n && r.status().ok(); ++c) {
    target.profiles.push_back(AttributeProfile::Load(r));
    target.sigs.push_back(AttributeSignatures::Load(r));
  }
  target.subject_col = r.ReadI32();
  if (r.status().ok() &&
      (target.subject_col < -1 ||
       target.subject_col >= static_cast<int>(target.profiles.size()))) {
    r.MarkCorrupt("query target subject column out of range");
  }
  return target;
}

void SaveSearchResult(io::Writer& w, const SearchResult& result) {
  w.WriteU64(result.ranked.size());
  for (const TableMatch& m : result.ranked) {
    w.WriteU32(m.table_index);
    w.WriteDouble(m.distance);
    for (double d : m.evidence_distances) w.WriteDouble(d);
    w.WriteU64(m.pairs.size());
    for (const PairDistances& p : m.pairs) {
      w.WriteU32(p.target_column);
      w.WriteU32(p.attribute_id);
      for (double d : p.d) w.WriteDouble(d);
    }
  }
  // The alignments live in an unordered_map; serialize in ascending table
  // order so byte-identical results produce byte-identical serializations.
  std::vector<uint32_t> tables;
  tables.reserve(result.candidate_alignments.size());
  for (const auto& [table, aligns] : result.candidate_alignments) {
    tables.push_back(table);
  }
  std::sort(tables.begin(), tables.end());
  w.WriteU64(tables.size());
  for (uint32_t table : tables) {
    const auto& aligns = result.candidate_alignments.at(table);
    w.WriteU32(table);
    w.WriteU64(aligns.size());
    for (const auto& [col, attr] : aligns) {
      w.WriteU32(col);
      w.WriteU32(attr);
    }
  }
  w.WriteU64(result.target_profiles.size());
  for (const AttributeProfile& p : result.target_profiles) p.Save(w);
  w.WriteU64(result.target_sigs.size());
  for (const AttributeSignatures& s : result.target_sigs) s.Save(w);
}

SearchResult LoadSearchResult(io::Reader& r) {
  SearchResult result;
  const size_t n_ranked = r.ReadLength(1);
  result.ranked.reserve(n_ranked);
  for (size_t i = 0; i < n_ranked && r.status().ok(); ++i) {
    TableMatch m;
    m.table_index = r.ReadU32();
    m.distance = r.ReadDouble();
    for (double& d : m.evidence_distances) d = r.ReadDouble();
    const size_t n_pairs = r.ReadLength(1);
    m.pairs.reserve(n_pairs);
    for (size_t p = 0; p < n_pairs && r.status().ok(); ++p) {
      PairDistances pd;
      pd.target_column = r.ReadU32();
      pd.attribute_id = r.ReadU32();
      for (double& d : pd.d) d = r.ReadDouble();
      m.pairs.push_back(pd);
    }
    result.ranked.push_back(std::move(m));
  }
  const size_t n_tables = r.ReadLength(1);
  for (size_t i = 0; i < n_tables && r.status().ok(); ++i) {
    const uint32_t table = r.ReadU32();
    const size_t n_aligns = r.ReadLength(sizeof(uint32_t) * 2);
    std::vector<std::pair<uint32_t, uint32_t>> aligns;
    aligns.reserve(n_aligns);
    for (size_t a = 0; a < n_aligns && r.status().ok(); ++a) {
      const uint32_t col = r.ReadU32();
      const uint32_t attr = r.ReadU32();
      aligns.emplace_back(col, attr);
    }
    result.candidate_alignments.emplace(table, std::move(aligns));
  }
  const size_t n_profiles = r.ReadLength(1);
  result.target_profiles.reserve(n_profiles);
  for (size_t i = 0; i < n_profiles && r.status().ok(); ++i) {
    result.target_profiles.push_back(AttributeProfile::Load(r));
  }
  const size_t n_sigs = r.ReadLength(1);
  result.target_sigs.reserve(n_sigs);
  for (size_t i = 0; i < n_sigs && r.status().ok(); ++i) {
    result.target_sigs.push_back(AttributeSignatures::Load(r));
  }
  return result;
}

uint64_t OptionsFingerprint(const D3LOptions& options, uint64_t seed) {
  D3LOptions canonical = options;
  canonical.num_threads = 0;  // build parallelism never changes results
  std::string bytes;
  io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(kSectionOptions);
  SaveOptions(w, canonical);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return HashBytes(bytes.data(), bytes.size(), seed);
}

std::string CanonicalTargetBytes(const QueryTarget& target) {
  // Same invariant SearchTarget/ShardedEngine::Search reject with a Status;
  // a serializer returning bytes fails loudly instead (all build types —
  // a malformed target must never produce a plausible cache key).
  if (target.sigs.size() != target.profiles.size()) {
    std::fprintf(stderr,
                 "CanonicalTargetBytes: target has %zu profiles but %zu "
                 "signature sets\n",
                 target.profiles.size(), target.sigs.size());
    std::abort();
  }
  std::string bytes;
  io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(io::SectionId("QTGT"));
  SaveQueryTarget(w, target);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return bytes;
}

D3LEngine::D3LEngine(D3LOptions options)
    : options_([&options] {
        options.wem.dim = options.index.embedding_dim;
        return options;
      }()),
      wem_(SharedSubwordModel(options_.wem)),
      indexes_(options_.index) {}

Status D3LEngine::IndexLake(const DataLake& lake) {
  if (lake_ != nullptr) return Status::InvalidArgument("IndexLake already called");
  lake_ = &lake;

  const size_t n_tables = lake.size();
  attr_ids_.resize(n_tables);
  subject_cols_.assign(n_tables, -1);

  // Phase 1: profile every attribute (data pre-processing; the dominant
  // indexing cost per Experiment 4). Parallel across tables — profiles are
  // pure functions of the table contents, so the result is deterministic.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<AttributeProfile>> profiles(n_tables);
  size_t n_threads = options_.num_threads > 0
                         ? options_.num_threads
                         : std::max<size_t>(1, std::thread::hardware_concurrency());
  n_threads = std::min(n_threads, std::max<size_t>(1, n_tables));
  {
    std::vector<std::thread> workers;
    std::atomic<size_t> next{0};
    for (size_t w = 0; w < n_threads; ++w) {
      workers.emplace_back([&] {
        CachingEmbedder cache(wem_.get());
        for (;;) {
          size_t ti = next.fetch_add(1);
          if (ti >= n_tables) break;
          const Table& t = lake.table(ti);
          profiles[ti].reserve(t.num_columns());
          for (size_t c = 0; c < t.num_columns(); ++c) {
            AttributeProfile p = BuildProfile(t, c, *wem_, &cache, options_.profile);
            p.ref = AttributeRef{static_cast<uint32_t>(ti), static_cast<uint32_t>(c)};
            profiles[ti].push_back(std::move(p));
          }
          subject_cols_[ti] = detector_.Detect(t);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  build_stats_.profile_seconds = SecondsSince(t0);

  // Phase 2: signature computation + LSH insertion (Algorithm 1).
  t0 = std::chrono::steady_clock::now();
  for (size_t ti = 0; ti < n_tables; ++ti) {
    attr_ids_[ti].reserve(profiles[ti].size());
    for (AttributeProfile& p : profiles[ti]) {
      attr_ids_[ti].push_back(indexes_.Insert(std::move(p)));
    }
  }
  indexes_.Finalize();
  build_stats_.insert_seconds = SecondsSince(t0);
  build_stats_.num_attributes = indexes_.num_attributes();
  build_stats_.index_bytes = indexes_.MemoryUsage();
  return Status::OK();
}

Status D3LEngine::SaveSnapshot(const std::string& path) const {
  if (lake_ == nullptr) {
    return Status::InvalidArgument("SaveSnapshot requires a built engine (call IndexLake)");
  }
  io::Writer w;
  D3L_RETURN_NOT_OK(w.Open(path, kSnapshotMagic, kSnapshotVersion));

  w.BeginSection(kSectionOptions);
  SaveOptions(w, options_);
  D3L_RETURN_NOT_OK(w.EndSection());

  w.BeginSection(kSectionLake);
  lake_->SaveMetadata(w);
  D3L_RETURN_NOT_OK(w.EndSection());

  w.BeginSection(kSectionIndexes);
  indexes_.Save(w);
  D3L_RETURN_NOT_OK(w.EndSection());

  w.BeginSection(kSectionEngine);
  w.WriteU64(attr_ids_.size());
  for (const std::vector<uint32_t>& ids : attr_ids_) {
    w.WriteU64(ids.size());
    for (uint32_t id : ids) w.WriteU32(id);
  }
  w.WriteU64(subject_cols_.size());
  for (int col : subject_cols_) w.WriteI32(col);
  w.WriteDouble(build_stats_.profile_seconds);
  w.WriteDouble(build_stats_.insert_seconds);
  w.WriteU64(build_stats_.num_attributes);
  w.WriteU64(build_stats_.index_bytes);
  D3L_RETURN_NOT_OK(w.EndSection());

  return w.Finish();
}

Result<std::unique_ptr<D3LEngine>> D3LEngine::LoadSnapshot(const std::string& path,
                                                           DataLake* lake_metadata,
                                                           SnapshotLoadMode mode) {
  if (lake_metadata == nullptr || lake_metadata->size() != 0) {
    return Status::InvalidArgument("LoadSnapshot requires an empty destination lake");
  }
  const auto t_open = std::chrono::steady_clock::now();
  io::Reader r;
  uint32_t version = 0;
  D3L_RETURN_NOT_OK(r.Open(path, kSnapshotMagic, kSnapshotMinReadVersion,
                           kSnapshotVersion, &version,
                           mode == SnapshotLoadMode::kMapped ? io::ReadMode::kMapped
                                                             : io::ReadMode::kBuffered));
  // v1 predates the flat forest arrays; its forests always deserialize via
  // the per-entry copy path, mapped or not.
  const ForestWireFormat forest_format =
      version >= 2 ? ForestWireFormat::kFlat : ForestWireFormat::kPerEntry;

  D3L_RETURN_NOT_OK(r.OpenSection(kSectionOptions));
  D3LOptions options = LoadOptions(r);
  D3L_RETURN_NOT_OK(r.status());
  D3L_RETURN_NOT_OK(r.EndSection());
  // The engine constructor materializes wem.num_buckets * wem.dim bucket
  // vectors; bound them before allocating (checksummed files cannot trip
  // this, but it guards format drift between Save and Load).
  if (options.wem.dim == 0 || options.wem.dim > (1u << 16) ||
      options.wem.num_buckets == 0 || options.wem.num_buckets > (1u << 24)) {
    return Status::IOError("corrupt file: implausible embedding-model options");
  }

  auto engine = std::unique_ptr<D3LEngine>(new D3LEngine(options));

  D3L_RETURN_NOT_OK(r.OpenSection(kSectionLake));
  D3L_RETURN_NOT_OK(lake_metadata->LoadMetadata(r));
  D3L_RETURN_NOT_OK(r.EndSection());

  D3L_RETURN_NOT_OK(r.OpenSection(kSectionIndexes));
  const auto t_index = std::chrono::steady_clock::now();
  D3L_ASSIGN_OR_RETURN(engine->indexes_, D3LIndexes::Load(r, forest_format));
  engine->load_stats_.index_parse_seconds = SecondsSince(t_index);
  engine->load_stats_.forest_parse_seconds =
      engine->indexes_.forest_parse_seconds();
  D3L_RETURN_NOT_OK(r.EndSection());
  // The index options live both in OPTS (engine construction) and inside
  // INDX (self-contained D3LIndexes::Save). If the copies disagree, the
  // engine would sign query attributes with parameters the loaded index
  // was not built with — refuse rather than serve silently wrong results.
  {
    const IndexOptions& a = options.index;
    const IndexOptions& b = engine->indexes_.options();
    if (a.minhash_size != b.minhash_size || a.lsh_threshold != b.lsh_threshold ||
        a.join_threshold != b.join_threshold || a.rp_bits != b.rp_bits ||
        a.embedding_dim != b.embedding_dim ||
        a.forest.num_trees != b.forest.num_trees ||
        a.forest.hashes_per_tree != b.forest.hashes_per_tree || a.seed != b.seed) {
      return Status::IOError(
          "corrupt file: engine and index sections disagree on index options");
    }
  }

  D3L_RETURN_NOT_OK(r.OpenSection(kSectionEngine));
  size_t n_tables = r.ReadLength(sizeof(uint64_t));
  engine->attr_ids_.resize(n_tables);
  for (size_t ti = 0; ti < n_tables && r.status().ok(); ++ti) {
    size_t n_cols = r.ReadLength(sizeof(uint32_t));
    engine->attr_ids_[ti].reserve(n_cols);
    for (size_t c = 0; c < n_cols; ++c) engine->attr_ids_[ti].push_back(r.ReadU32());
  }
  size_t n_subjects = r.ReadLength(sizeof(int32_t));
  engine->subject_cols_.reserve(n_subjects);
  for (size_t ti = 0; ti < n_subjects && r.status().ok(); ++ti) {
    engine->subject_cols_.push_back(r.ReadI32());
  }
  engine->build_stats_.profile_seconds = r.ReadDouble();
  engine->build_stats_.insert_seconds = r.ReadDouble();
  engine->build_stats_.num_attributes = r.ReadU64();
  engine->build_stats_.index_bytes = r.ReadU64();
  D3L_RETURN_NOT_OK(r.status());
  D3L_RETURN_NOT_OK(r.EndSection());

  // Cross-section consistency: mappings must agree with the lake metadata
  // and the attribute registry.
  if (n_tables != lake_metadata->size() || n_subjects != n_tables) {
    return Status::IOError("corrupt file: table mappings disagree with lake metadata");
  }
  size_t total_attrs = 0;
  for (size_t ti = 0; ti < n_tables; ++ti) {
    total_attrs += engine->attr_ids_[ti].size();
    if (engine->attr_ids_[ti].size() != lake_metadata->table(ti).num_columns()) {
      return Status::IOError("corrupt file: attribute mappings disagree with schemas");
    }
    const int subject = engine->subject_cols_[ti];
    if (subject >= 0 &&
        static_cast<size_t>(subject) >= lake_metadata->table(ti).num_columns()) {
      return Status::IOError("corrupt file: subject column out of range");
    }
    for (uint32_t id : engine->attr_ids_[ti]) {
      if (id >= engine->indexes_.num_attributes()) {
        return Status::IOError("corrupt file: attribute id out of range");
      }
    }
  }
  if (total_attrs != engine->indexes_.num_attributes()) {
    return Status::IOError("corrupt file: attribute count disagrees with registry");
  }

  engine->lake_ = lake_metadata;
  engine->load_stats_.format_version = version;
  // "Mapped" means zero-copy actually happened: a v1 file may well be
  // mmap-backed inside the Reader, but its per-entry layout still decodes
  // into owned arrays, so it does not count.
  engine->load_stats_.mapped =
      r.mapped() && forest_format == ForestWireFormat::kFlat;
  engine->load_stats_.pad_bytes = r.pad_bytes();
  engine->load_stats_.open_seconds = SecondsSince(t_open);
  return engine;
}

int D3LEngine::subject_column(uint32_t table_index) const {
  return subject_cols_[table_index];
}

uint32_t D3LEngine::attribute_id(uint32_t table_index, uint32_t column) const {
  return attr_ids_[table_index][column];
}

uint32_t D3LEngine::subject_attribute_id(uint32_t table_index) const {
  int col = subject_cols_[table_index];
  if (col < 0) return UINT32_MAX;
  return attr_ids_[table_index][static_cast<size_t>(col)];
}

namespace {
// Which evidence indexes candidate retrieval consults for one target
// column: the enabled forests, plus the Algorithm-2 numeric fallback — the
// distribution evidence has no index of its own (Section III-C), so a
// numeric column draws candidates through the guard indexes (IN, IF).
std::array<bool, kNumEvidence> ConsultedIndexes(
    const std::array<bool, kNumEvidence>& enabled_mask, bool column_is_numeric) {
  std::array<bool, kNumEvidence> consulted = enabled_mask;
  consulted[static_cast<size_t>(Evidence::kDistribution)] = false;
  if (enabled_mask[static_cast<size_t>(Evidence::kDistribution)] && column_is_numeric) {
    consulted[static_cast<size_t>(Evidence::kName)] = true;
    consulted[static_cast<size_t>(Evidence::kFormat)] = true;
  }
  return consulted;
}
}  // namespace

Status CandidateDepthCounts::Add(const CandidateDepthCounts& other) {
  if (counts.size() != other.counts.size()) {
    return Status::InvalidArgument("depth counts for " +
                                   std::to_string(other.counts.size()) +
                                   " columns do not add to counts for " +
                                   std::to_string(counts.size()));
  }
  for (size_t c = 0; c < counts.size(); ++c) {
    for (size_t e = 0; e < kNumEvidence; ++e) {
      if (counts[c][e].size() != other.counts[c][e].size()) {
        return Status::InvalidArgument("depth counts of column " + std::to_string(c) +
                                       ", evidence " + std::to_string(e) +
                                       " differ in length");
      }
      for (size_t d = 0; d < counts[c][e].size(); ++d) {
        counts[c][e][d] += other.counts[c][e][d];
      }
    }
  }
  return Status::OK();
}

QueryTarget D3LEngine::ProfileTarget(const Table& target) const {
  QueryTarget qt;
  const size_t n_cols = target.num_columns();
  CachingEmbedder cache(wem_.get());
  qt.profiles.reserve(n_cols);
  qt.sigs.reserve(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    AttributeProfile p = BuildProfile(target, c, *wem_, &cache, options_.profile);
    qt.sigs.push_back(indexes_.Sign(p));
    qt.profiles.push_back(std::move(p));
  }
  qt.subject_col = detector_.Detect(target);
  return qt;
}

CandidateDepthCounts D3LEngine::CollectDepthCounts(
    const QueryTarget& target, const std::array<bool, kNumEvidence>& enabled_mask,
    size_t budget) const {
  CandidateDepthCounts out;
  out.counts.resize(target.sigs.size());
  for (size_t c = 0; c < target.sigs.size(); ++c) {
    const std::array<bool, kNumEvidence> consulted =
        ConsultedIndexes(enabled_mask, target.profiles[c].is_numeric);
    for (size_t e = 0; e < kNumEvidence; ++e) {
      if (!consulted[e]) continue;
      out.counts[c][e] =
          indexes_.LookupDepthCounts(static_cast<Evidence>(e), target.sigs[c], budget);
    }
  }
  return out;
}

CandidateStopDepths D3LEngine::ResolveStopDepths(const CandidateDepthCounts& counts,
                                                 size_t m) {
  CandidateStopDepths stops;
  stops.depths.resize(counts.counts.size());
  for (size_t c = 0; c < counts.counts.size(); ++c) {
    for (size_t e = 0; e < kNumEvidence; ++e) {
      const std::vector<size_t>& v = counts.counts[c][e];
      stops.depths[c][e] = v.empty() ? 0 : LshForest::StopDepth(v, m);
    }
  }
  return stops;
}

CandidateLists D3LEngine::CollectCandidates(const QueryTarget& target,
                                            const CandidateStopDepths& stops,
                                            size_t m) const {
  CandidateLists lists;
  lists.ids.resize(target.sigs.size());
  for (size_t c = 0; c < target.sigs.size(); ++c) {
    for (size_t e = 0; e < kNumEvidence; ++e) {
      std::vector<uint32_t> ids = indexes_.LookupAtDepth(
          static_cast<Evidence>(e), target.sigs[c], stops.depths[c][e]);
      // Canonical per-index truncation: the m smallest ids (the lookup is
      // ascending). Keeps the work per index bounded by m even when one
      // prefix bucket is enormous.
      if (ids.size() > m) ids.resize(m);
      lists.ids[c][e] = std::move(ids);
    }
  }
  return lists;
}

std::vector<std::vector<uint32_t>> D3LEngine::UnionCandidates(
    const CandidateLists& lists) {
  std::vector<std::vector<uint32_t>> per_column(lists.ids.size());
  for (size_t c = 0; c < lists.ids.size(); ++c) {
    std::vector<uint32_t>& candidates = per_column[c];
    for (size_t e = 0; e < kNumEvidence; ++e) {
      candidates.insert(candidates.end(), lists.ids[c][e].begin(),
                        lists.ids[c][e].end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  return per_column;
}

CandidateLists D3LEngine::MergeCandidateLists(const std::vector<CandidateLists>& parts,
                                              size_t m) {
  CandidateLists merged;
  merged.ids.resize(parts.empty() ? 0 : parts.front().ids.size());
  for (size_t c = 0; c < merged.ids.size(); ++c) {
    for (size_t e = 0; e < kNumEvidence; ++e) {
      std::vector<uint32_t>& ids = merged.ids[c][e];
      for (const CandidateLists& part : parts) {
        ids.insert(ids.end(), part.ids[c][e].begin(), part.ids[c][e].end());
      }
      std::sort(ids.begin(), ids.end());
      if (ids.size() > m) ids.resize(m);
    }
  }
  return merged;
}

std::vector<PairDistances> D3LEngine::ScoreCandidates(
    const QueryTarget& target,
    const std::vector<std::vector<uint32_t>>& per_column_candidates,
    const std::array<bool, kNumEvidence>& enabled_mask) const {
  const auto enabled = [&](Evidence e) {
    return enabled_mask[static_cast<size_t>(e)];
  };
  const AttributeSignatures* target_subject_sigs =
      target.subject_col >= 0 ? &target.sigs[static_cast<size_t>(target.subject_col)]
                              : nullptr;

  size_t total = 0;
  for (const std::vector<uint32_t>& candidates : per_column_candidates) {
    total += candidates.size();
  }
  std::vector<PairDistances> rows;
  rows.reserve(total);
  // Algorithm 2 can fire only for a numeric target column with a sample,
  // and only with D enabled; every other row keeps D at 1. The guard sets
  // are built for those columns alone, and the subject's I* set once.
  PrecomputedGuards guards;
  bool have_istar = false;
  for (size_t c = 0; c < target.sigs.size(); ++c) {
    const AttributeSignatures& qsigs = target.sigs[c];
    const AttributeProfile& qprof = target.profiles[c];
    const std::vector<uint32_t>& candidates = per_column_candidates[c];
    if (candidates.empty()) continue;

    const bool guarded = enabled(Evidence::kDistribution) && qprof.is_numeric &&
                         !qprof.numeric_sample.empty();
    if (guarded) {
      if (!have_istar) {
        guards.target_subject_istar = SubjectIStar(indexes_, target_subject_sigs);
        have_istar = true;
      }
      guards.name_hits = indexes_.LookupThreshold(Evidence::kName, qsigs);
      guards.format_hits = indexes_.LookupThreshold(Evidence::kFormat, qsigs);
    }

    for (uint32_t id : candidates) {
      PairDistances row;
      row.target_column = static_cast<uint32_t>(c);
      row.attribute_id = id;
      for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                         Evidence::kEmbedding}) {
        size_t t = static_cast<size_t>(e);
        row.d[t] = enabled(e) ? indexes_.EstimateDistance(e, qsigs, id) : 1.0;
      }
      if (guarded) {
        uint32_t src_subject = subject_attribute_id(indexes_.profile(id).ref.table);
        row.d[static_cast<size_t>(Evidence::kDistribution)] =
            ComputeDistributionDistanceFast(indexes_, qprof, id, guards, src_subject);
      }
      rows.push_back(row);
    }
  }
  return rows;
}

SearchResult D3LEngine::RankRows(std::vector<PairDistances> rows,
                                 size_t num_target_columns, size_t num_tables,
                                 const std::function<uint32_t(uint32_t)>& table_of,
                                 const EvidenceWeights& weights, size_t k) {
  // Canonical row order: (target column, attribute id). Rows gathered from
  // shards arrive interleaved; re-sorting makes the distribution samples,
  // the per-table aggregation sums and the final ranking independent of
  // which engine produced which row.
  std::sort(rows.begin(), rows.end(),
            [](const PairDistances& a, const PairDistances& b) {
              if (a.target_column != b.target_column) {
                return a.target_column < b.target_column;
              }
              return a.attribute_id < b.attribute_id;
            });

  SearchResult result;
  // Rebuild the per-attribute R_t distributions (Eq. 2) from every
  // observed distance, then bucket the rows per candidate dataset.
  DistanceDistributions dists(num_target_columns);
  std::vector<std::vector<PairDistances>> per_table_rows(num_tables);
  for (const PairDistances& row : rows) {
    for (size_t t = 0; t < kNumEvidence; ++t) {
      dists.Observe(row.target_column, static_cast<Evidence>(t), row.d[t]);
    }
    per_table_rows[table_of(row.attribute_id)].push_back(row);
  }
  dists.Finalize();

  // Aggregate per candidate dataset (Eq. 1) and combine (Eq. 3).
  std::vector<TableMatch> matches;
  for (size_t ti = 0; ti < per_table_rows.size(); ++ti) {
    auto& table_rows = per_table_rows[ti];
    if (table_rows.empty()) continue;
    TableMatch m;
    m.table_index = static_cast<uint32_t>(ti);
    m.evidence_distances = AggregateDataset(table_rows, dists);
    m.distance = CombineDistances(m.evidence_distances, weights);
    // Record alignments for coverage/attribute-precision evaluation and for
    // Algorithm 3's "related to the target" condition.
    auto& aligns = result.candidate_alignments[m.table_index];
    for (const PairDistances& row : table_rows) {
      aligns.emplace_back(row.target_column, row.attribute_id);
    }
    m.pairs = std::move(table_rows);
    matches.push_back(std::move(m));
  }

  std::sort(matches.begin(), matches.end(), [](const TableMatch& a, const TableMatch& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.table_index < b.table_index;
  });
  if (matches.size() > k) matches.resize(k);
  result.ranked = std::move(matches);
  return result;
}

Result<SearchResult> D3LEngine::Search(const Table& target, size_t k) const {
  return Search(target, k, options_.enabled);
}

Result<SearchResult> D3LEngine::Search(
    const Table& target, size_t k,
    const std::array<bool, kNumEvidence>& enabled_mask) const {
  if (lake_ == nullptr) return Status::InvalidArgument("IndexLake not called");
  if (target.num_columns() == 0) {
    return Status::InvalidArgument("target has no columns");
  }
  return SearchTarget(ProfileTarget(target), k, enabled_mask);
}

Status D3LEngine::ValidateTarget(const QueryTarget& target,
                                 const CandidateStopDepths* stops) const {
  const size_t n_cols = target.sigs.size();
  if (n_cols == 0 || n_cols != target.profiles.size()) {
    return Status::InvalidArgument("target is not a profiled table");
  }
  if (target.subject_col < -1 || target.subject_col >= static_cast<int>(n_cols)) {
    return Status::InvalidArgument("target subject column out of range");
  }
  const IndexOptions& o = indexes_.options();
  for (size_t c = 0; c < n_cols; ++c) {
    const auto invalid = [c](const std::string& what) {
      return Status::InvalidArgument("target column " + std::to_string(c) + ": " + what);
    };
    const AttributeSignatures& s = target.sigs[c];
    if (s.name_sig.size() != o.minhash_size || s.format_sig.size() != o.minhash_size ||
        (s.has_value && s.value_sig.size() != o.minhash_size)) {
      return invalid("MinHash signature size is not " + std::to_string(o.minhash_size));
    }
    if (s.has_embedding &&
        (s.emb_sig.bits != o.rp_bits || s.emb_sig.words.size() != (o.rp_bits + 63) / 64)) {
      return invalid("embedding signature is not " + std::to_string(o.rp_bits) + " bits");
    }
    if (!IsKsSample(target.profiles[c].numeric_sample)) {
      return invalid("numeric sample is not ascending and NaN-free");
    }
  }
  if (stops == nullptr) return Status::OK();
  if (stops->depths.size() != n_cols) {
    return Status::InvalidArgument("stop depths do not match the target's columns");
  }
  for (const std::array<size_t, kNumEvidence>& depths : stops->depths) {
    for (size_t e = 0; e < kNumEvidence; ++e) {
      if (depths[e] > indexes_.max_depth(static_cast<Evidence>(e))) {
        return Status::InvalidArgument("stop depth " + std::to_string(depths[e]) +
                                       " exceeds the forest key width");
      }
    }
  }
  return Status::OK();
}

Result<SearchResult> D3LEngine::SearchTarget(
    QueryTarget target, size_t k,
    const std::array<bool, kNumEvidence>& enabled_mask) const {
  if (lake_ == nullptr) return Status::InvalidArgument("IndexLake not called");
  D3L_RETURN_NOT_OK(ValidateTarget(target));
  const size_t per_index_m = std::max(options_.candidates_per_attribute, k);

  CandidateDepthCounts counts = CollectDepthCounts(target, enabled_mask, per_index_m);
  CandidateStopDepths stops = ResolveStopDepths(counts, per_index_m);
  CandidateLists lists = CollectCandidates(target, stops, per_index_m);
  std::vector<PairDistances> rows =
      ScoreCandidates(target, UnionCandidates(lists), enabled_mask);

  SearchResult result = RankRows(
      std::move(rows), target.sigs.size(), lake_->size(),
      [this](uint32_t id) { return indexes_.profile(id).ref.table; },
      MaskedWeights(options_.weights, enabled_mask), k);
  result.target_profiles = std::move(target.profiles);
  result.target_sigs = std::move(target.sigs);
  return result;
}

Result<D3LEngine::SnapshotInfo> D3LEngine::ReadSnapshotInfo(const std::string& path) {
  io::Reader r;
  uint32_t version = 0;
  D3L_RETURN_NOT_OK(
      r.Open(path, kSnapshotMagic, kSnapshotMinReadVersion, kSnapshotVersion, &version));

  SnapshotInfo info;
  info.format_version = version;
  info.mappable = version >= 2;
  D3L_RETURN_NOT_OK(r.OpenSection(kSectionOptions));
  info.options = LoadOptions(r);
  D3L_RETURN_NOT_OK(r.status());
  D3L_RETURN_NOT_OK(r.EndSection());

  // Schema metadata only; the INDX/ENGN sections are never read, which is
  // the whole point of this entry (cheap inspection of large snapshots).
  DataLake lake_metadata;
  D3L_RETURN_NOT_OK(r.OpenSection(kSectionLake));
  D3L_RETURN_NOT_OK(lake_metadata.LoadMetadata(r));
  D3L_RETURN_NOT_OK(r.EndSection());
  info.num_tables = lake_metadata.size();
  for (size_t t = 0; t < lake_metadata.size(); ++t) {
    info.num_attributes += lake_metadata.table(t).num_columns();
  }
  return info;
}

}  // namespace d3l::core
