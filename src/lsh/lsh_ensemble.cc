#include "lsh/lsh_ensemble.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace d3l {

double ContainmentFromJaccard(double jaccard, size_t query_size, size_t set_size) {
  if (query_size == 0) return 0;
  double inter =
      jaccard / (1.0 + jaccard) * static_cast<double>(query_size + set_size);
  return std::clamp(inter / static_cast<double>(query_size), 0.0, 1.0);
}

LshEnsemble::LshEnsemble(LshEnsembleOptions options) : options_(options) {}

void LshEnsemble::Detach() {
  if (borrowed_sigs_ == nullptr) return;
  owned_sigs_.assign(borrowed_sigs_,
                     borrowed_sigs_ + ids_.size() * options_.signature_size);
  borrowed_sigs_ = nullptr;
  storage_.reset();
}

void LshEnsemble::Insert(ItemId id, const Signature& signature, size_t set_size) {
  assert(!indexed_);
  // The flat store has a fixed stride; a mis-sized signature would shift
  // every later item's values. Fail loudly in release builds too.
  if (signature.size() != options_.signature_size) {
    std::fprintf(stderr,
                 "LshEnsemble: signature has %zu values but options "
                 "signature_size = %zu\n",
                 signature.size(), options_.signature_size);
    std::abort();
  }
  Detach();
  ids_.push_back(id);
  set_sizes_.push_back(set_size);
  owned_sigs_.insert(owned_sigs_.end(), signature.begin(), signature.end());
}

void LshEnsemble::Index() {
  assert(!indexed_);
  indexed_ = true;
  if (ids_.empty()) return;

  // Order by cardinality; cut into near-equal partitions so each partition
  // has tight size bounds (the ensemble's skew fix).
  std::vector<size_t> order(ids_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (set_sizes_[a] != set_sizes_[b]) return set_sizes_[a] < set_sizes_[b];
    return ids_[a] < ids_[b];
  });

  size_t n_parts = std::max<size_t>(1, std::min(options_.num_partitions, ids_.size()));
  assert(!options_.threshold_ladder.empty());

  partitions_.clear();
  partitions_.reserve(n_parts);
  size_t per_part = (ids_.size() + n_parts - 1) / n_parts;
  for (size_t p = 0; p < n_parts; ++p) {
    size_t begin = p * per_part;
    if (begin >= ids_.size()) break;
    size_t end = std::min(ids_.size(), begin + per_part);
    Partition part;
    part.min_size = set_sizes_[order[begin]];
    part.max_size = set_sizes_[order[end - 1]];
    for (double rung_threshold : options_.threshold_ladder) {
      BandedLshOptions banded;
      banded.threshold = rung_threshold;
      banded.signature_size = options_.signature_size;
      part.rungs.emplace_back(banded);
    }
    for (size_t i = begin; i < end; ++i) {
      part.member_indexes.push_back(order[i]);
      for (BandedLsh& rung : part.rungs) {
        rung.Insert(static_cast<ItemId>(order[i]), SignatureOf(order[i]),
                    options_.signature_size);
      }
    }
    for (BandedLsh& rung : part.rungs) rung.Index();
    partitions_.push_back(std::move(part));
  }
}

std::vector<LshEnsemble::ItemId> LshEnsemble::QueryContainment(
    const Signature& query, size_t query_set_size, double threshold) const {
  assert(indexed_);
  std::vector<ItemId> out;
  if (query_set_size == 0) return out;
  assert(query.size() == options_.signature_size);

  for (const Partition& part : partitions_) {
    // Containment threshold t translates into the partition-specific
    // Jaccard lower bound using the *largest* member size (most permissive
    // within the partition): j >= t*|Q| / (|Q| + u - t*|Q|).
    double tq = threshold * static_cast<double>(query_set_size);
    double denom = static_cast<double>(query_set_size + part.max_size) - tq;
    double jaccard_bound = denom > 0 ? tq / denom : 1.0;

    // If even a maximal overlap in this partition cannot reach the
    // containment threshold, skip it entirely.
    double best_inter = static_cast<double>(std::min<size_t>(
        query_set_size, static_cast<size_t>(part.max_size)));
    if (best_inter / static_cast<double>(query_set_size) < threshold) continue;

    // Dynamic banding: probe the ladder rung tuned just below the bound.
    size_t rung_idx = 0;
    for (size_t r = 0; r < options_.threshold_ladder.size(); ++r) {
      if (options_.threshold_ladder[r] <= jaccard_bound) rung_idx = r;
    }

    for (ItemId idx : part.rungs[rung_idx].Query(query)) {
      double j = EstimateJaccard(query.data(), SignatureOf(idx),
                                 options_.signature_size);
      if (j + 1e-12 < jaccard_bound * 0.5) continue;  // clearly hopeless
      double c = ContainmentFromJaccard(j, query_set_size, set_sizes_[idx]);
      if (c >= threshold) out.push_back(ids_[idx]);
    }
  }
  return out;
}

double LshEnsemble::EstimateContainment(const Signature& query, size_t query_set_size,
                                        ItemId id) const {
  assert(query.size() == options_.signature_size);
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) {
      return ContainmentFromJaccard(
          EstimateJaccard(query.data(), SignatureOf(i), options_.signature_size),
          query_set_size, set_sizes_[i]);
    }
  }
  return 0;
}

void LshEnsemble::Save(io::Writer& w) const {
  w.WriteU64(options_.num_partitions);
  w.WriteU64(options_.signature_size);
  w.WriteDoubleVector(options_.threshold_ladder);
  w.WriteBool(indexed_);
  w.WriteU64(ids_.size());
  // Flat layout: the parallel arrays verbatim, the signature block 8-byte
  // aligned so a mapped reader serves it in place.
  w.WriteRawU32Array(ids_.data(), ids_.size());
  w.AlignTo(8);
  w.WriteRawU64Array(set_sizes_.data(), set_sizes_.size());
  w.WriteRawU64Array(ids_.empty() ? nullptr : SignatureOf(0),
                     ids_.size() * options_.signature_size);
}

LshEnsemble LshEnsemble::Load(io::Reader& r) {
  LshEnsembleOptions options;
  options.num_partitions = r.ReadU64();
  options.signature_size = r.ReadU64();
  options.threshold_ladder = r.ReadDoubleVector();
  // The bound keeps the per-item byte arithmetic below overflow-safe.
  if (r.status().ok() &&
      (options.threshold_ladder.empty() || options.num_partitions == 0 ||
       options.signature_size == 0 || options.signature_size > (1u << 20))) {
    r.MarkCorrupt("LshEnsemble options are degenerate");
    return LshEnsemble();
  }
  LshEnsemble ensemble(options);
  bool was_indexed = r.ReadBool();
  // Each item contributes an id (4), a set size (8) and a signature
  // (signature_size * 8) to the section, bounding the count.
  size_t n_items =
      r.ReadLength(sizeof(ItemId) + sizeof(uint64_t) +
                   options.signature_size * sizeof(uint64_t));
  if (!r.status().ok()) return LshEnsemble();
  {
    std::vector<uint32_t> owned_ids;
    const uint32_t* ids = r.ReadU32Span(n_items, &owned_ids);
    // Ids are always owned (they are mutated by nothing, but keeping one
    // borrow surface — the big signature block — keeps lifetime reasoning
    // simple and the savings negligible at 4 bytes per item).
    if (ids != nullptr) ensemble.ids_.assign(ids, ids + n_items);
  }
  r.AlignTo(8);
  {
    std::vector<uint64_t> owned_sizes;
    const uint64_t* sizes = r.ReadU64Span(n_items, &owned_sizes);
    if (sizes != nullptr) ensemble.set_sizes_.assign(sizes, sizes + n_items);
  }
  const uint64_t* sigs =
      r.ReadU64Span(n_items * options.signature_size, &ensemble.owned_sigs_);
  if (!r.status().ok()) return LshEnsemble();
  if (n_items > 0 && sigs != ensemble.owned_sigs_.data()) {
    ensemble.borrowed_sigs_ = sigs;
    ensemble.storage_ = r.mapping();
  }
  if (was_indexed) ensemble.Index();
  return ensemble;
}

size_t LshEnsemble::MemoryUsage() const {
  size_t bytes = sizeof(LshEnsemble);
  bytes += ids_.capacity() * sizeof(ItemId);
  bytes += set_sizes_.capacity() * sizeof(uint64_t);
  bytes += owned_sigs_.capacity() * sizeof(uint64_t);  // zero when borrowed
  for (const Partition& p : partitions_) {
    for (const BandedLsh& rung : p.rungs) bytes += rung.MemoryUsage();
    bytes += p.member_indexes.size() * sizeof(size_t);
  }
  return bytes;
}

}  // namespace d3l
