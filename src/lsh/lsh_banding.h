// Classic banded LSH for threshold queries.
//
// A signature of n values is split into b bands of r rows; two items
// collide if any band matches exactly. The collision probability for
// Jaccard similarity s is 1 - (1 - s^r)^b, an S-curve whose inflection
// approximates (1/b)^(1/r). Given a target threshold tau (the paper uses
// 0.7), OptimalBandCount picks the b (and r = n/b) whose curve threshold is
// closest to tau. Used for the SA-join graph's tset-overlap evidence
// (Section IV), where threshold semantics — not top-k — are needed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "io/binary_io.h"
#include "lsh/minhash.h"

namespace d3l {

struct BandedLshOptions {
  double threshold = 0.7;  ///< target Jaccard similarity threshold tau
  size_t signature_size = 256;
};

/// \brief Chooses (bands, rows) for a signature size and threshold.
///
/// Scans divisors b of n and returns the b minimizing
/// |(1/b)^(1/(n/b)) - threshold|.
std::pair<size_t, size_t> OptimalBandsRows(size_t signature_size, double threshold);

/// \brief Expected collision probability 1 - (1 - s^r)^b.
double BandingCollisionProbability(double similarity, size_t bands, size_t rows);

/// \brief Threshold-style LSH index over MinHash signatures.
///
/// Each band is a pair of parallel arrays, band hashes and item ids, sorted
/// by (hash, id). Insert appends; Index() sorts and must run before Query,
/// which binary-searches each band's hash and walks the matching run. Save()
/// writes the sorted arrays 8-byte aligned, so a mapped Load borrows them in
/// place (like LshForest) and a loaded index is built and queried through
/// the same representation as one built in process.
class BandedLsh {
 public:
  using ItemId = uint32_t;

  explicit BandedLsh(BandedLshOptions options = {});

  size_t bands() const { return bands_; }
  size_t rows() const { return rows_; }

  /// Registers an item; call Index() before querying. Inserting into an
  /// index that borrows a mapping copies its arrays at the next Index().
  void Insert(ItemId id, const Signature& signature);

  /// Span form for flat signature stores: `signature` points at `n` values.
  void Insert(ItemId id, const uint64_t* signature, size_t n);

  /// Sorts every band by (hash, id). Insert/Index may be alternated.
  void Index();

  /// Items sharing at least one band with the query (candidates whose
  /// Jaccard similarity is likely >= threshold), ascending and distinct.
  /// Aborts (in all build types) on an index with un-Index()ed inserts.
  std::vector<ItemId> Query(const Signature& signature) const;

  size_t size() const { return num_items_ + pending_ids_.size(); }

  /// True when the band arrays are borrowed from a snapshot mapping.
  bool borrows_mapping() const { return storage_ != nullptr; }

  /// Heap footprint in bytes; arrays borrowed from a mapping count zero.
  size_t MemoryUsage() const;

  /// Serializes the band shape and the sorted arrays (8-byte aligned) into
  /// the writer's current section. Aborts on an un-Index()ed index.
  void Save(io::Writer& w) const;

  /// Deserializes an index written by Save() for the given options. The
  /// band shape must match the options, every band must be sorted and every
  /// id must be below `id_bound` (the size of the registry the ids index;
  /// it also sizes Query's seen-set, so nothing read from the file does);
  /// otherwise the reader's status() is latched corrupt and the returned
  /// index must be discarded. Under a mapped reader the arrays are
  /// borrowed from the mapping, which the index keeps alive.
  static BandedLsh Load(io::Reader& r, BandedLshOptions options, size_t id_bound);

 private:
  uint64_t BandHash(size_t band, const uint64_t* sig) const;
  // Aborts (in all build types) if the signature is too short for BandHash.
  void CheckSignatureSize(size_t n) const;
  // Aborts (in all build types) if inserts await Index(); `what` names the caller.
  void CheckIndexed(const char* what) const;

  const uint64_t* hashes() const {
    return borrowed_hashes_ != nullptr ? borrowed_hashes_ : owned_hashes_.data();
  }
  const ItemId* ids() const {
    return borrowed_ids_ != nullptr ? borrowed_ids_ : owned_ids_.data();
  }

  BandedLshOptions options_;
  size_t bands_;
  size_t rows_;
  // Band-major sorted arrays: band b holds entries [b * num_items_,
  // (b + 1) * num_items_), ordered by (hash, id).
  std::vector<uint64_t> owned_hashes_;
  std::vector<ItemId> owned_ids_;
  const uint64_t* borrowed_hashes_ = nullptr;  ///< into a mapping, or null
  const ItemId* borrowed_ids_ = nullptr;
  std::shared_ptr<io::MappedFile> storage_;  ///< keeps a borrowed mapping alive
  size_t num_items_ = 0;  ///< entries per band in the sorted arrays
  // Inserted since the last Index(): each item's bands_ band hashes, item-major.
  std::vector<uint64_t> pending_hashes_;
  std::vector<ItemId> pending_ids_;
  size_t id_bound_ = 0;  ///< every stored id is below it (sizes Query's seen-set)
};

}  // namespace d3l
