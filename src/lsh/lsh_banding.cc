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

void BandedLsh::CheckIndexed(const char* what) const {
  // Pending inserts are not in the sorted arrays, so a lookup would miss
  // them silently; a missing Index() call is a programming error.
  if (!pending_ids_.empty()) {
    std::fprintf(stderr, "BandedLsh: %s with %zu inserts not yet Index()ed\n", what,
                 pending_ids_.size());
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
    pending_hashes_.push_back(BandHash(b, signature));
  }
  pending_ids_.push_back(id);
  id_bound_ = std::max<size_t>(id_bound_, size_t{id} + 1);
}

void BandedLsh::Index() {
  if (pending_ids_.empty()) return;
  const size_t n = num_items_ + pending_ids_.size();
  std::vector<uint64_t> sorted_hashes(bands_ * n);
  std::vector<ItemId> sorted_ids(bands_ * n);
  std::vector<std::pair<uint64_t, ItemId>> band(n);
  for (size_t b = 0; b < bands_; ++b) {
    for (size_t i = 0; i < num_items_; ++i) {
      band[i] = {hashes()[b * num_items_ + i], ids()[b * num_items_ + i]};
    }
    for (size_t i = 0; i < pending_ids_.size(); ++i) {
      band[num_items_ + i] = {pending_hashes_[i * bands_ + b], pending_ids_[i]};
    }
    std::sort(band.begin(), band.end());
    for (size_t i = 0; i < n; ++i) {
      sorted_hashes[b * n + i] = band[i].first;
      sorted_ids[b * n + i] = band[i].second;
    }
  }
  owned_hashes_ = std::move(sorted_hashes);
  owned_ids_ = std::move(sorted_ids);
  borrowed_hashes_ = nullptr;
  borrowed_ids_ = nullptr;
  storage_.reset();
  num_items_ = n;
  pending_hashes_ = std::vector<uint64_t>();  // release, not just clear
  pending_ids_ = std::vector<ItemId>();
}

std::vector<BandedLsh::ItemId> BandedLsh::Query(const Signature& signature) const {
  CheckSignatureSize(signature.size());
  CheckIndexed("Query");
  // An item similar to the query collides in many bands; dedupe the visits
  // before sorting the (much smaller) set of distinct ids.
  SeenSet seen(id_bound_);
  std::vector<ItemId> out;
  for (size_t b = 0; b < bands_; ++b) {
    const uint64_t h = BandHash(b, signature.data());
    const uint64_t* first = hashes() + b * num_items_;
    const uint64_t* last = first + num_items_;
    const ItemId* band_ids = ids() + b * num_items_;
    for (const uint64_t* it = std::lower_bound(first, last, h); it != last && *it == h;
         ++it) {
      const ItemId id = band_ids[it - first];
      if (seen.Insert(id)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t BandedLsh::MemoryUsage() const {
  return sizeof(BandedLsh) + owned_hashes_.capacity() * sizeof(uint64_t) +
         owned_ids_.capacity() * sizeof(ItemId) +
         pending_hashes_.capacity() * sizeof(uint64_t) +
         pending_ids_.capacity() * sizeof(ItemId);
}

void BandedLsh::Save(io::Writer& w) const {
  CheckIndexed("Save");
  w.WriteU64(bands_);
  w.WriteU64(rows_);
  w.WriteU64(num_items_);
  // The pad puts the hash array at an aligned file offset; the id array
  // follows 4-aligned because the hash array's byte length is a multiple
  // of 8. Both are then valid in-place spans under a mapped reader.
  w.AlignTo(8);
  w.WriteRawU64Array(hashes(), bands_ * num_items_);
  w.WriteRawU32Array(ids(), bands_ * num_items_);
}

BandedLsh BandedLsh::Load(io::Reader& r, BandedLshOptions options, size_t id_bound) {
  BandedLsh index(options);
  const uint64_t bands = r.ReadU64();
  const uint64_t rows = r.ReadU64();
  if (!r.status().ok()) return index;
  if (bands != index.bands_ || rows != index.rows_) {
    r.MarkCorrupt("banded index shape disagrees with its options");
    return index;
  }
  const size_t n = r.ReadLength(index.bands_ * (sizeof(uint64_t) + sizeof(ItemId)));
  r.AlignTo(8);
  const uint64_t* hashes = r.ReadU64Span(index.bands_ * n, &index.owned_hashes_);
  const ItemId* ids = r.ReadU32Span(index.bands_ * n, &index.owned_ids_);
  if (!r.status().ok()) return BandedLsh(options);
  for (size_t b = 0; b < index.bands_; ++b) {
    for (size_t i = b * n; i < (b + 1) * n; ++i) {
      if (ids[i] >= id_bound) {
        r.MarkCorrupt("banded index id out of range");
        return BandedLsh(options);
      }
      if (i > b * n && (hashes[i] < hashes[i - 1] ||
                        (hashes[i] == hashes[i - 1] && ids[i] < ids[i - 1]))) {
        r.MarkCorrupt("banded index band is not sorted");
        return BandedLsh(options);
      }
    }
  }
  index.num_items_ = n;
  index.id_bound_ = id_bound;
  // A span that did not land in the owned vector borrows the mapping. An
  // empty index under a mapped reader borrows its (empty) spans too, so a
  // lake without some evidence still reports a copy-free load.
  if (hashes != index.owned_hashes_.data()) index.borrowed_hashes_ = hashes;
  if (ids != index.owned_ids_.data()) index.borrowed_ids_ = ids;
  if (index.borrowed_hashes_ != nullptr || index.borrowed_ids_ != nullptr) {
    index.storage_ = r.mapping();
  }
  return index;
}

}  // namespace d3l
