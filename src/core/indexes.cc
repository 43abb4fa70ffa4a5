#include "core/indexes.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "stats/ks.h"

namespace d3l::core {

namespace {
BandedLshOptions BandedOptionsFrom(const IndexOptions& o) {
  BandedLshOptions b;
  b.threshold = o.lsh_threshold;
  b.signature_size = o.minhash_size;
  return b;
}

BandedLshOptions JoinBandedOptionsFrom(const IndexOptions& o) {
  BandedLshOptions b;
  b.threshold = o.join_threshold;
  b.signature_size = o.minhash_size;
  return b;
}

BandedLshOptions BandedOptionsForBits(const IndexOptions& o) {
  // The embedding banded index runs over the byte sequence of the bit
  // signature (rp_bits / 8 values).
  BandedLshOptions b;
  b.threshold = o.lsh_threshold;
  b.signature_size = o.rp_bits / 8;
  return b;
}

// The embedding forest also runs over the byte sequence, so its key shape
// is clamped to what rp_bits / 8 values can provide.
LshForestOptions EmbForestOptionsFrom(const IndexOptions& o) {
  return ClampForestToSignature(o.forest, o.rp_bits / 8);
}
}  // namespace

D3LIndexes::D3LIndexes(IndexOptions options)
    : options_(options),
      name_hasher_(options.minhash_size, options.seed ^ 0x4e),
      value_hasher_(options.minhash_size, options.seed ^ 0x56),
      format_hasher_(options.minhash_size, options.seed ^ 0x46),
      rp_hasher_(options.embedding_dim, options.rp_bits, options.seed ^ 0x45),
      name_forest_(options.forest),
      value_forest_(options.forest),
      format_forest_(options.forest),
      emb_forest_(EmbForestOptionsFrom(options)),
      name_banded_(BandedOptionsFrom(options)),
      value_banded_(BandedOptionsFrom(options)),
      format_banded_(BandedOptionsFrom(options)),
      emb_banded_(BandedOptionsForBits(options)),
      value_join_banded_(JoinBandedOptionsFrom(options)) {
  assert(options.forest.num_trees * options.forest.hashes_per_tree <=
         options.minhash_size);
}

AttributeSignatures D3LIndexes::Sign(const AttributeProfile& profile) const {
  AttributeSignatures s;
  s.name_sig = name_hasher_.Sign(profile.qset);
  s.format_sig = format_hasher_.Sign(profile.rset);
  if (!profile.tset.empty()) {
    s.value_sig = value_hasher_.Sign(profile.tset);
    s.has_value = true;
  }
  if (profile.has_embedding) {
    s.emb_sig = rp_hasher_.Sign(profile.embedding);
    s.has_embedding = true;
  }
  return s;
}

uint32_t D3LIndexes::Insert(AttributeProfile profile) {
  const uint32_t id = static_cast<uint32_t>(profiles_.size());
  AttributeSignatures s = Sign(profile);

  // Algorithm 1, lines 15-18: insert set representations into the indexes.
  name_forest_.Insert(id, s.name_sig);
  name_banded_.Insert(id, s.name_sig);
  format_forest_.Insert(id, s.format_sig);
  format_banded_.Insert(id, s.format_sig);
  if (s.has_value) {
    value_forest_.Insert(id, s.value_sig);
    value_banded_.Insert(id, s.value_sig);
    value_join_banded_.Insert(id, s.value_sig);
  }
  if (s.has_embedding) {
    Signature seq = rp_hasher_.SignatureAsHashSequence(s.emb_sig);
    emb_forest_.Insert(id, seq);
    emb_banded_.Insert(id, seq);
  }
  profiles_.push_back(std::move(profile));
  sigs_.push_back(std::move(s));
  return id;
}

void D3LIndexes::Finalize() {
  name_forest_.Index();
  value_forest_.Index();
  format_forest_.Index();
  emb_forest_.Index();
}

std::vector<uint32_t> D3LIndexes::Lookup(Evidence e, const AttributeSignatures& query,
                                         size_t m) const {
  switch (e) {
    case Evidence::kName:
      return name_forest_.Query(query.name_sig, m);
    case Evidence::kValue:
      if (!query.has_value) return {};
      return value_forest_.Query(query.value_sig, m);
    case Evidence::kFormat:
      return format_forest_.Query(query.format_sig, m);
    case Evidence::kEmbedding: {
      if (!query.has_embedding) return {};
      Signature seq = rp_hasher_.SignatureAsHashSequence(query.emb_sig);
      return emb_forest_.Query(seq, m);
    }
    case Evidence::kDistribution:
      return {};
  }
  return {};
}

std::vector<size_t> D3LIndexes::LookupDepthCounts(Evidence e,
                                                  const AttributeSignatures& query,
                                                  size_t budget) const {
  switch (e) {
    case Evidence::kName:
      return name_forest_.DepthCounts(query.name_sig, budget);
    case Evidence::kValue:
      if (!query.has_value) return {};
      return value_forest_.DepthCounts(query.value_sig, budget);
    case Evidence::kFormat:
      return format_forest_.DepthCounts(query.format_sig, budget);
    case Evidence::kEmbedding: {
      if (!query.has_embedding) return {};
      Signature seq = rp_hasher_.SignatureAsHashSequence(query.emb_sig);
      return emb_forest_.DepthCounts(seq, budget);
    }
    case Evidence::kDistribution:
      return {};
  }
  return {};
}

std::vector<uint32_t> D3LIndexes::LookupAtDepth(Evidence e,
                                                const AttributeSignatures& query,
                                                size_t min_depth) const {
  if (min_depth == 0) return {};
  switch (e) {
    case Evidence::kName:
      return name_forest_.QueryAtDepth(query.name_sig, min_depth);
    case Evidence::kValue:
      if (!query.has_value) return {};
      return value_forest_.QueryAtDepth(query.value_sig, min_depth);
    case Evidence::kFormat:
      return format_forest_.QueryAtDepth(query.format_sig, min_depth);
    case Evidence::kEmbedding: {
      if (!query.has_embedding) return {};
      Signature seq = rp_hasher_.SignatureAsHashSequence(query.emb_sig);
      return emb_forest_.QueryAtDepth(seq, min_depth);
    }
    case Evidence::kDistribution:
      return {};
  }
  return {};
}

std::vector<uint32_t> D3LIndexes::LookupThreshold(
    Evidence e, const AttributeSignatures& query) const {
  switch (e) {
    case Evidence::kName:
      return name_banded_.Query(query.name_sig);
    case Evidence::kValue:
      if (!query.has_value) return {};
      return value_banded_.Query(query.value_sig);
    case Evidence::kFormat:
      return format_banded_.Query(query.format_sig);
    case Evidence::kEmbedding: {
      if (!query.has_embedding) return {};
      Signature seq = rp_hasher_.SignatureAsHashSequence(query.emb_sig);
      return emb_banded_.Query(seq);
    }
    case Evidence::kDistribution:
      return {};
  }
  return {};
}

std::vector<uint32_t> D3LIndexes::LookupValueJoin(
    const AttributeSignatures& query) const {
  if (!query.has_value) return {};
  return value_join_banded_.Query(query.value_sig);
}

size_t D3LIndexes::max_depth(Evidence e) const {
  switch (e) {
    case Evidence::kName:
      return name_forest_.options().hashes_per_tree;
    case Evidence::kValue:
      return value_forest_.options().hashes_per_tree;
    case Evidence::kFormat:
      return format_forest_.options().hashes_per_tree;
    case Evidence::kEmbedding:
      return emb_forest_.options().hashes_per_tree;
    case Evidence::kDistribution:
      return 0;
  }
  return 0;
}

double D3LIndexes::EstimateDistance(Evidence e, const AttributeSignatures& query,
                                    uint32_t id) const {
  const AttributeSignatures& s = sigs_[id];
  switch (e) {
    case Evidence::kName:
      return EstimateJaccardDistance(query.name_sig, s.name_sig);
    case Evidence::kValue:
      if (!query.has_value || !s.has_value) return 1.0;
      return EstimateJaccardDistance(query.value_sig, s.value_sig);
    case Evidence::kFormat:
      return EstimateJaccardDistance(query.format_sig, s.format_sig);
    case Evidence::kEmbedding:
      if (!query.has_embedding || !s.has_embedding) return 1.0;
      return EstimateCosineDistance(query.emb_sig, s.emb_sig);
    case Evidence::kDistribution:
      return 1.0;  // computed by the guarded KS path, not from signatures
  }
  return 1.0;
}

void AttributeSignatures::Save(io::Writer& w) const {
  w.WriteU64Vector(name_sig);
  w.WriteU64Vector(value_sig);
  w.WriteU64Vector(format_sig);
  w.WriteU64Vector(emb_sig.words);
  w.WriteU64(emb_sig.bits);
  w.WriteBool(has_value);
  w.WriteBool(has_embedding);
}

AttributeSignatures AttributeSignatures::Load(io::Reader& r) {
  AttributeSignatures s;
  s.name_sig = r.ReadU64Vector();
  s.value_sig = r.ReadU64Vector();
  s.format_sig = r.ReadU64Vector();
  s.emb_sig.words = r.ReadU64Vector();
  s.emb_sig.bits = r.ReadU64();
  s.has_value = r.ReadBool();
  s.has_embedding = r.ReadBool();
  return s;
}

void D3LIndexes::Save(io::Writer& w) const {
  w.WriteU64(options_.minhash_size);
  w.WriteDouble(options_.lsh_threshold);
  w.WriteDouble(options_.join_threshold);
  w.WriteU64(options_.rp_bits);
  w.WriteU64(options_.embedding_dim);
  w.WriteU64(options_.forest.num_trees);
  w.WriteU64(options_.forest.hashes_per_tree);
  w.WriteU64(options_.seed);

  w.WriteU64(profiles_.size());
  for (size_t i = 0; i < profiles_.size(); ++i) {
    profiles_[i].Save(w);
    sigs_[i].Save(w);
  }

  name_forest_.Save(w);
  value_forest_.Save(w);
  format_forest_.Save(w);
  emb_forest_.Save(w);
}

Result<D3LIndexes> D3LIndexes::Load(io::Reader& r, ForestWireFormat forest_format) {
  IndexOptions o;
  o.minhash_size = r.ReadU64();
  o.lsh_threshold = r.ReadDouble();
  o.join_threshold = r.ReadDouble();
  o.rp_bits = r.ReadU64();
  o.embedding_dim = r.ReadU64();
  o.forest.num_trees = r.ReadU64();
  o.forest.hashes_per_tree = r.ReadU64();
  o.seed = r.ReadU64();
  D3L_RETURN_NOT_OK(r.status());
  // Constructing hashers from implausible options would allocate wildly;
  // reject before building anything (the checksum makes this unreachable
  // for corruption, but it also guards Save/Load format drift).
  constexpr size_t kMaxDim = size_t{1} << 20;
  if (o.minhash_size == 0 || o.minhash_size > kMaxDim || o.rp_bits < 8 ||
      o.rp_bits > kMaxDim || o.embedding_dim == 0 || o.embedding_dim > kMaxDim ||
      // Bound the factors before multiplying: a crafted pair like
      // 2^32 * 2^32 would wrap the u64 product to 0 and slip through.
      o.forest.num_trees > kMaxDim || o.forest.hashes_per_tree > kMaxDim ||
      o.forest.num_trees * o.forest.hashes_per_tree > o.minhash_size) {
    return Status::IOError("corrupt file: implausible index options");
  }

  D3LIndexes idx(o);
  size_t n = r.ReadLength(1);
  idx.profiles_.reserve(n);
  idx.sigs_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AttributeProfile profile = AttributeProfile::Load(r);
    AttributeSignatures s = AttributeSignatures::Load(r);
    D3L_RETURN_NOT_OK(r.status());
    // Scoring runs KS over the stored samples without re-sorting them.
    if (!IsKsSample(profile.numeric_sample)) {
      return Status::IOError("corrupt file: numeric sample is not ascending and NaN-free");
    }
    if (s.name_sig.size() != o.minhash_size || s.format_sig.size() != o.minhash_size ||
        (s.has_value && s.value_sig.size() != o.minhash_size) ||
        (s.has_embedding &&
         (s.emb_sig.bits != o.rp_bits ||
          s.emb_sig.words.size() != (s.emb_sig.bits + 63) / 64))) {
      return Status::IOError("corrupt file: signature sizes contradict index options");
    }
    // Replay the banded-index half of Insert() from the saved signatures
    // (ids were assigned densely in insertion order, so the rebuilt buckets
    // are identical to the originals).
    const auto id = static_cast<uint32_t>(i);
    idx.name_banded_.Insert(id, s.name_sig);
    idx.format_banded_.Insert(id, s.format_sig);
    if (s.has_value) {
      idx.value_banded_.Insert(id, s.value_sig);
      idx.value_join_banded_.Insert(id, s.value_sig);
    }
    if (s.has_embedding) {
      Signature seq = idx.rp_hasher_.SignatureAsHashSequence(s.emb_sig);
      idx.emb_banded_.Insert(id, seq);
    }
    idx.profiles_.push_back(std::move(profile));
    idx.sigs_.push_back(std::move(s));
  }

  const auto t_forests = std::chrono::steady_clock::now();
  idx.name_forest_ = LshForest::Load(r, forest_format);
  idx.value_forest_ = LshForest::Load(r, forest_format);
  idx.format_forest_ = LshForest::Load(r, forest_format);
  idx.emb_forest_ = LshForest::Load(r, forest_format);
  idx.forest_parse_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_forests)
          .count();
  D3L_RETURN_NOT_OK(r.status());
  if (idx.name_forest_.size() != n || idx.format_forest_.size() != n) {
    return Status::IOError("corrupt file: forest sizes disagree with attribute count");
  }
  // Forest entries feed straight into profiles_[id] at query time, and
  // depth counts size a seen-bitmap from the registry size; reject ids
  // outside the registry now rather than crashing during a Search.
  for (LshForest* forest :
       {&idx.name_forest_, &idx.value_forest_, &idx.format_forest_, &idx.emb_forest_}) {
    if (!forest->CheckIdBound(n)) {
      return Status::IOError("corrupt file: forest entry id out of range");
    }
  }
  // Queries are signed and validated against the index options, so the
  // forests must key on exactly the shapes those options imply.
  if (idx.name_forest_.options() != o.forest || idx.value_forest_.options() != o.forest ||
      idx.format_forest_.options() != o.forest ||
      idx.emb_forest_.options() != EmbForestOptionsFrom(o)) {
    return Status::IOError("corrupt file: forest key shapes disagree with index options");
  }
  return idx;
}

size_t D3LIndexes::MemoryUsage() const {
  size_t bytes = sizeof(D3LIndexes);
  bytes += name_forest_.MemoryUsage() + value_forest_.MemoryUsage() +
           format_forest_.MemoryUsage() + emb_forest_.MemoryUsage();
  bytes += name_banded_.MemoryUsage() + value_banded_.MemoryUsage() +
           format_banded_.MemoryUsage() + emb_banded_.MemoryUsage() +
           value_join_banded_.MemoryUsage();
  for (const AttributeProfile& p : profiles_) bytes += p.MemoryUsage();
  for (const AttributeSignatures& s : sigs_) {
    bytes += (s.name_sig.capacity() + s.value_sig.capacity() + s.format_sig.capacity()) *
             sizeof(uint64_t);
    bytes += s.emb_sig.words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace d3l::core
