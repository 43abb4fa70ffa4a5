#include "lsh/lsh_banding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "lsh/seen_set.h"

namespace d3l {

std::pair<size_t, size_t> OptimalBandsRows(size_t signature_size, double threshold) {
  assert(signature_size > 0);
  // b*r need not cover the whole signature exactly; allowing b = floor(n/r)
  // makes the achievable threshold set much denser.
  size_t best_b = 1;
  size_t best_r = signature_size;
  double best_err = 1e9;
  for (size_t r = 1; r <= signature_size; ++r) {
    size_t b = signature_size / r;
    if (b == 0) break;
    double t = std::pow(1.0 / static_cast<double>(b), 1.0 / static_cast<double>(r));
    double err = std::fabs(t - threshold);
    if (err < best_err) {
      best_err = err;
      best_b = b;
      best_r = r;
    }
  }
  return {best_b, best_r};
}

double BandingCollisionProbability(double similarity, size_t bands, size_t rows) {
  double p_band = std::pow(similarity, static_cast<double>(rows));
  return 1.0 - std::pow(1.0 - p_band, static_cast<double>(bands));
}

BandedLsh::BandedLsh(BandedLshOptions options) : options_(options) {
  auto [b, r] = OptimalBandsRows(options_.signature_size, options_.threshold);
  bands_ = b;
  rows_ = r;
  buckets_.resize(bands_);
}

void BandedLsh::CheckSignatureSize(size_t n) const {
  // BandHash reads sig[bands * rows - 1]; a short signature (an ensemble
  // whose options disagree with its hasher) would read out of bounds. Fail
  // loudly in release builds too, like LshForest::CheckSignatureSize —
  // Insert/Query are per-item, so the check is cheap.
  const size_t need = bands_ * rows_;
  if (n < need) {
    std::fprintf(stderr,
                 "BandedLsh: signature has %zu values but bands * rows = %zu "
                 "(options signature_size %zu)\n",
                 n, need, options_.signature_size);
    std::abort();
  }
}

uint64_t BandedLsh::BandHash(size_t band, const uint64_t* sig) const {
  uint64_t h = Mix64(band + 0x51ed2701);
  for (size_t i = 0; i < rows_; ++i) {
    h = HashCombine(h, sig[band * rows_ + i]);
  }
  return h;
}

void BandedLsh::Insert(ItemId id, const Signature& signature) {
  Insert(id, signature.data(), signature.size());
}

void BandedLsh::Insert(ItemId id, const uint64_t* signature, size_t n) {
  CheckSignatureSize(n);
  for (size_t b = 0; b < bands_; ++b) {
    buckets_[b][BandHash(b, signature)].push_back(id);
  }
  ++num_items_;
  id_bound_ = std::max<size_t>(id_bound_, size_t{id} + 1);
}

std::vector<BandedLsh::ItemId> BandedLsh::Query(const Signature& signature) const {
  CheckSignatureSize(signature.size());
  // An item similar to the query collides in many bands; dedupe the visits
  // before sorting the (much smaller) set of distinct ids.
  SeenSet seen(id_bound_);
  std::vector<ItemId> out;
  for (size_t b = 0; b < bands_; ++b) {
    auto it = buckets_[b].find(BandHash(b, signature.data()));
    if (it == buckets_[b].end()) continue;
    for (ItemId id : it->second) {
      if (seen.Insert(id)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t BandedLsh::MemoryUsage() const {
  size_t bytes = sizeof(BandedLsh);
  for (const auto& band : buckets_) {
    bytes += band.size() * (sizeof(uint64_t) + 16);
    for (const auto& [h, ids] : band) {
      bytes += ids.size() * sizeof(ItemId);
    }
  }
  return bytes;
}

}  // namespace d3l
