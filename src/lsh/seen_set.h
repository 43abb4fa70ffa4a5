// Per-lookup set of visited item ids for the LSH indexes: one bit per id
// below a bound the index has established for every id it holds (by
// tracking inserts, or by checking loaded ids against a caller's bound).
// Lookups visit the same id once per tree or band; the bitmap dedupes those
// visits without hashing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace d3l {

class SeenSet {
 public:
  /// Ids must be below `id_bound`.
  explicit SeenSet(size_t id_bound) : words_((id_bound + 63) / 64) {}

  /// True the first time `id` is inserted.
  bool Insert(uint32_t id) {
    uint64_t& word = words_[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace d3l
