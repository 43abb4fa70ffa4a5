#include "lsh/lsh_forest.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_set>

#include "lsh/seen_set.h"

namespace d3l {

namespace {

/// Three-way compare of one stored key's first `depth` values against the
/// query key. `entry` points at the key's first value in the flat array.
inline int ComparePrefix(const uint64_t* entry, const uint64_t* key, size_t depth) {
  for (size_t i = 0; i < depth; ++i) {
    if (entry[i] != key[i]) return entry[i] < key[i] ? -1 : 1;
  }
  return 0;
}

/// First entry index in [first, last) whose depth-prefix is >= the query's.
size_t PrefixLowerBound(const uint64_t* keys, size_t stride, size_t first, size_t last,
                        const uint64_t* key, size_t depth) {
  while (first < last) {
    const size_t mid = first + (last - first) / 2;
    if (ComparePrefix(keys + mid * stride, key, depth) < 0) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  return first;
}

/// First entry index in [first, last) whose depth-prefix is > the query's.
size_t PrefixUpperBound(const uint64_t* keys, size_t stride, size_t first, size_t last,
                        const uint64_t* key, size_t depth) {
  while (first < last) {
    const size_t mid = first + (last - first) / 2;
    if (ComparePrefix(keys + mid * stride, key, depth) <= 0) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  return first;
}

}  // namespace

LshForestOptions ClampForestToSignature(LshForestOptions f, size_t available_values) {
  assert(available_values >= 1);  // an empty signature fits no key shape
  if (f.num_trees > available_values) {
    f.num_trees = std::max<size_t>(1, available_values);
  }
  size_t per_tree = available_values / std::max<size_t>(1, f.num_trees);
  f.hashes_per_tree = std::max<size_t>(1, std::min(f.hashes_per_tree, per_tree));
  return f;
}

LshForest::LshForest(LshForestOptions options) : options_(options) {
  trees_.resize(options_.num_trees);
}

void LshForest::CheckSignatureSize(const Signature& sig) const {
  // A short signature would make TreeKey read out of bounds; fail loudly in
  // release builds too (Insert/Query are per-item, so the check is cheap).
  const size_t need = options_.num_trees * options_.hashes_per_tree;
  if (sig.size() < need) {
    std::fprintf(stderr,
                 "LshForest: signature has %zu values but num_trees * "
                 "hashes_per_tree = %zu\n",
                 sig.size(), need);
    std::abort();
  }
}

void LshForest::DetachTree(Tree& tree) {
  if (tree.borrowed_keys == nullptr && tree.borrowed_ids == nullptr) return;
  const size_t kpt = options_.hashes_per_tree;
  if (tree.borrowed_keys != nullptr) {
    tree.owned_keys.assign(tree.borrowed_keys, tree.borrowed_keys + tree.size * kpt);
    tree.borrowed_keys = nullptr;
  }
  if (tree.borrowed_ids != nullptr) {
    tree.owned_ids.assign(tree.borrowed_ids, tree.borrowed_ids + tree.size);
    tree.borrowed_ids = nullptr;
  }
}

void LshForest::Insert(ItemId id, const Signature& signature) {
  CheckSignatureSize(signature);
  const size_t kpt = options_.hashes_per_tree;
  for (size_t t = 0; t < trees_.size(); ++t) {
    Tree& tree = trees_[t];
    DetachTree(tree);
    for (size_t i = 0; i < kpt; ++i) {
      tree.owned_keys.push_back(signature[t * kpt + i]);
    }
    tree.owned_ids.push_back(id);
    ++tree.size;
    tree.sorted = false;
  }
  storage_.reset();  // every tree was detached; nothing borrows the mapping
  ++num_items_;
  if (id_bound_) id_bound_ = std::max<size_t>(*id_bound_, size_t{id} + 1);
}

void LshForest::Index() {
  const size_t kpt = options_.hashes_per_tree;
  for (Tree& tree : trees_) {
    if (tree.sorted) continue;
    // Sort via a permutation, then rebuild both arrays in one pass: the
    // keys are wide (kpt values), so moving 4-byte indices during the sort
    // beats swapping whole entries.
    const uint64_t* keys = tree.keys();
    const ItemId* ids = tree.ids();
    std::vector<uint32_t> perm(tree.size);
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      const int c = ComparePrefix(keys + a * kpt, keys + b * kpt, kpt);
      if (c != 0) return c < 0;
      return ids[a] < ids[b];
    });
    std::vector<uint64_t> sorted_keys(tree.size * kpt);
    std::vector<ItemId> sorted_ids(tree.size);
    for (size_t i = 0; i < tree.size; ++i) {
      std::copy_n(keys + perm[i] * kpt, kpt, sorted_keys.data() + i * kpt);
      sorted_ids[i] = ids[perm[i]];
    }
    tree.owned_keys = std::move(sorted_keys);
    tree.owned_ids = std::move(sorted_ids);
    tree.borrowed_keys = nullptr;
    tree.borrowed_ids = nullptr;
    tree.sorted = true;
  }
}

void LshForest::CollectAtDepth(const Tree& tree, const uint64_t* key, size_t depth,
                               std::vector<ItemId>* out) const {
  assert(tree.sorted);
  // Entries matching the first `depth` components form a contiguous sorted
  // range; locate it with prefix-comparing binary searches.
  const size_t kpt = options_.hashes_per_tree;
  const uint64_t* keys = tree.keys();
  const size_t lo = PrefixLowerBound(keys, kpt, 0, tree.size, key, depth);
  const size_t hi = PrefixUpperBound(keys, kpt, lo, tree.size, key, depth);
  const ItemId* ids = tree.ids();
  out->insert(out->end(), ids + lo, ids + hi);
}

std::vector<LshForest::ItemId> LshForest::Query(const Signature& signature,
                                                size_t m) const {
  std::unordered_set<ItemId> seen;
  std::vector<ItemId> result;
  if (m == 0) return result;
  CheckSignatureSize(signature);
  const size_t kpt = options_.hashes_per_tree;

  // Descend from the deepest prefix; stop as soon as enough distinct
  // candidates have been accumulated (LSH Forest's synchronous descent).
  std::vector<ItemId> level;
  for (size_t depth = kpt; depth >= 1; --depth) {
    level.clear();
    for (size_t t = 0; t < trees_.size(); ++t) {
      CollectAtDepth(trees_[t], signature.data() + t * kpt, depth, &level);
    }
    for (ItemId id : level) {
      if (seen.insert(id).second) result.push_back(id);
    }
    if (result.size() >= m) break;
  }
  if (result.size() > m) result.resize(m);
  return result;
}

std::vector<LshForest::ItemId> LshForest::QueryAtDepth(const Signature& signature,
                                                       size_t min_depth) const {
  assert(min_depth >= 1 && min_depth <= options_.hashes_per_tree);
  CheckSignatureSize(signature);
  const size_t kpt = options_.hashes_per_tree;
  std::vector<ItemId> result;
  for (size_t t = 0; t < trees_.size(); ++t) {
    CollectAtDepth(trees_[t], signature.data() + t * kpt, min_depth, &result);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<size_t> LshForest::DepthCounts(const Signature& signature,
                                           size_t budget) const {
  CheckSignatureSize(signature);
  if (!id_bound_) {
    std::fprintf(stderr, "LshForest: DepthCounts on a loaded forest whose ids were "
                         "never checked (call CheckIdBound)\n");
    std::abort();
  }
  const size_t kpt = options_.hashes_per_tree;

  // Descent over nested prefix ranges: per tree, the entries matching the
  // first d key values form a contiguous range that contains the
  // depth-(d+1) range, so expanding depth by depth visits each entry once —
  // at exactly its prefix depth in that tree — and never touches entries
  // shallower than where the cumulative distinct count saturates the
  // budget. Every tree expands to depth d before any tree reaches d-1, so
  // an item's first visit is at its deepest prefix over all trees: a
  // histogram of first visits is the exact per-depth histogram.
  struct TreeRange {
    const Tree* tree;
    const uint64_t* key;    ///< the tree's key within the query signature
    size_t lo = 0, hi = 0;  ///< current range (depth d+1 when expanding to d)
  };
  std::vector<TreeRange> ranges;
  ranges.reserve(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    assert(trees_[t].sorted);
    TreeRange r{&trees_[t], signature.data() + t * kpt, 0, 0};
    // Seed with the (possibly empty) deepest range's insertion point so the
    // first expansion below starts from a valid nested position.
    r.lo = r.hi = PrefixLowerBound(r.tree->keys(), kpt, 0, r.tree->size, r.key, kpt);
    ranges.push_back(r);
  }

  SeenSet seen(*id_bound_);
  std::vector<size_t> counts(kpt, 0);  // counts[d-1]: items first reached at d
  size_t distinct = 0;
  size_t stopped_above = 0;  // depths < this were never scanned (clamped)
  for (size_t d = kpt; d >= 1; --d) {
    size_t& first_visits = counts[d - 1];
    for (TreeRange& r : ranges) {
      const uint64_t* keys = r.tree->keys();
      const ItemId* ids = r.tree->ids();
      const size_t lo = PrefixLowerBound(keys, kpt, 0, r.lo, r.key, d);
      const size_t hi = PrefixUpperBound(keys, kpt, r.hi, r.tree->size, r.key, d);
      // Entries in [lo, r.lo) and [r.hi, hi) match d values but not d+1:
      // their lcp with the query is exactly d.
      for (size_t i = lo; i < r.lo; ++i) {
        if (seen.Insert(ids[i])) ++first_visits;
      }
      for (size_t i = r.hi; i < hi; ++i) {
        if (seen.Insert(ids[i])) ++first_visits;
      }
      r.lo = lo;
      r.hi = hi;
    }
    distinct += first_visits;
    if (budget != 0 && distinct >= budget) {
      stopped_above = d - 1;  // depths 1..d-1 not scanned
      break;
    }
  }

  // Suffix-sum the histogram: counts[d-1] becomes |{items: lcp >= d}|.
  for (size_t d = kpt - 1; d-- > 0;) counts[d] += counts[d + 1];
  // Clamp the unscanned shallow depths to the saturation count. True counts
  // there are >= this value, which is itself >= budget, so neither the
  // local stop rule nor a shard-summed one can be diverted by the clamp.
  for (size_t d = 0; d < stopped_above; ++d) counts[d] = counts[stopped_above];
  return counts;
}

size_t LshForest::StopDepth(const std::vector<size_t>& counts, size_t m) {
  for (size_t d = counts.size(); d >= 1; --d) {
    if (counts[d - 1] >= m) return d;
  }
  return 1;
}

void LshForest::Save(io::Writer& w) const {
  const size_t kpt = options_.hashes_per_tree;
  w.WriteU64(options_.num_trees);
  w.WriteU64(kpt);
  w.WriteU64(num_items_);
  w.WriteU64(trees_.size());
  for (const Tree& tree : trees_) {
    w.WriteBool(tree.sorted);
    w.WriteU64(tree.size);
    // Keys are fixed-width (hashes_per_tree values per entry) and ids
    // parallel, so no per-entry framing is needed; the 8-byte pad puts the
    // key array at an aligned file offset, making both arrays valid
    // in-place spans under a mapped reader (ids land 4-aligned because the
    // key array's byte length is a multiple of 8).
    w.AlignTo(8);
    w.WriteRawU64Array(tree.keys(), tree.size * kpt);
    w.WriteRawU32Array(tree.ids(), tree.size);
  }
}

LshForest LshForest::Load(io::Reader& r, ForestWireFormat format) {
  LshForestOptions options;
  options.num_trees = r.ReadU64();
  options.hashes_per_tree = r.ReadU64();
  // An absurd key shape (corruption that survived the checksum cannot
  // happen, but a format drift could) would overflow the per-entry reads;
  // bound it before allocating.
  if (r.status().ok() &&
      (options.num_trees == 0 || options.hashes_per_tree == 0 ||
       options.num_trees > 4096 || options.hashes_per_tree > 4096)) {
    r.MarkCorrupt("implausible LshForest key shape");
    return LshForest();
  }
  LshForest forest(options);
  forest.id_bound_.reset();
  forest.num_items_ = r.ReadU64();
  size_t n_trees = r.ReadLength(sizeof(uint64_t));
  if (!r.status().ok() || n_trees != options.num_trees) {
    r.MarkCorrupt("LshForest tree count disagrees with its options");
    return LshForest();
  }
  const size_t kpt = options.hashes_per_tree;
  const size_t entry_bytes = format == ForestWireFormat::kPerEntry
                                 ? (kpt + 1) * sizeof(uint64_t)
                                 : kpt * sizeof(uint64_t) + sizeof(ItemId);
  for (size_t t = 0; t < n_trees && r.status().ok(); ++t) {
    Tree& tree = forest.trees_[t];
    tree.sorted = r.ReadBool();
    size_t n_entries = r.ReadLength(entry_bytes);
    if (!r.status().ok()) break;
    if (format == ForestWireFormat::kPerEntry) {
      // Legacy layout: interleaved key values + u64 id per entry. Always
      // de-interleaved into owned flat arrays.
      tree.owned_keys.reserve(n_entries * kpt);
      tree.owned_ids.reserve(n_entries);
      for (size_t i = 0; i < n_entries && r.status().ok(); ++i) {
        for (size_t k = 0; k < kpt; ++k) tree.owned_keys.push_back(r.ReadU64());
        tree.owned_ids.push_back(static_cast<ItemId>(r.ReadU64()));
      }
      tree.size = tree.owned_ids.size();
    } else {
      r.AlignTo(8);
      const uint64_t* keys = r.ReadU64Span(n_entries * kpt, &tree.owned_keys);
      const uint32_t* ids = r.ReadU32Span(n_entries, &tree.owned_ids);
      if (!r.status().ok()) break;
      tree.size = n_entries;
      // A span that did not land in the owned vector borrows the mapping.
      if (n_entries > 0 && keys != tree.owned_keys.data()) tree.borrowed_keys = keys;
      if (n_entries > 0 && ids != tree.owned_ids.data()) tree.borrowed_ids = ids;
    }
  }
  if (r.status().ok() && r.mapped()) {
    for (const Tree& tree : forest.trees_) {
      if (tree.borrowed_keys != nullptr || tree.borrowed_ids != nullptr) {
        forest.storage_ = r.mapping();
        break;
      }
    }
  }
  return forest;
}

bool LshForest::CheckIdBound(size_t id_bound) {
  for (const Tree& tree : trees_) {
    const ItemId* ids = tree.ids();
    for (size_t i = 0; i < tree.size; ++i) {
      if (ids[i] >= id_bound) return false;
    }
  }
  id_bound_ = id_bound;
  return true;
}

size_t LshForest::MemoryUsage() const {
  // Exact: flat arrays have no per-entry allocation, so the footprint is
  // the owned capacities plus the tree table. Borrowed arrays live in the
  // snapshot mapping and cost no heap.
  size_t bytes = sizeof(LshForest);
  bytes += trees_.capacity() * sizeof(Tree);
  for (const Tree& tree : trees_) {
    bytes += tree.owned_keys.capacity() * sizeof(uint64_t);
    bytes += tree.owned_ids.capacity() * sizeof(ItemId);
  }
  return bytes;
}

}  // namespace d3l
