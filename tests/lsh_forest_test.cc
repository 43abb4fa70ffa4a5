#include "lsh/lsh_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "io/binary_io.h"
#include "lsh/minhash.h"

namespace d3l {
namespace {

std::set<std::string> SetWithSharedPrefix(int shared, int total, int salt) {
  std::set<std::string> s;
  for (int i = 0; i < shared; ++i) s.insert("common_" + std::to_string(i));
  for (int i = shared; i < total; ++i) {
    s.insert("own_" + std::to_string(salt) + "_" + std::to_string(i));
  }
  return s;
}

class LshForestTest : public ::testing::Test {
 protected:
  LshForestTest() : hasher_(256, 7) {}
  MinHasher hasher_;
};

TEST(ClampForestToSignatureTest, FitsKeyShapeToShortSignatures) {
  LshForestOptions o;  // default 8 trees * 8 hashes = 64 values
  // Plenty of values: untouched.
  auto f = ClampForestToSignature(o, 256);
  EXPECT_EQ(f.num_trees, 8u);
  EXPECT_EQ(f.hashes_per_tree, 8u);
  // 32 values (rp_bits=256 byte sequence): per-tree keys shrink to 4.
  f = ClampForestToSignature(o, 32);
  EXPECT_EQ(f.num_trees, 8u);
  EXPECT_EQ(f.hashes_per_tree, 4u);
  // Fewer values than trees: tree count shrinks too (rp_bits=32 -> 4 values).
  f = ClampForestToSignature(o, 4);
  EXPECT_EQ(f.num_trees, 4u);
  EXPECT_EQ(f.hashes_per_tree, 1u);
  EXPECT_LE(f.num_trees * f.hashes_per_tree, 4u);
}

TEST(ClampForestToSignatureTest, ClampedForestAcceptsTheShortSignature) {
  LshForest forest(ClampForestToSignature(LshForestOptions{}, 4));
  forest.Insert(0, Signature{1, 2, 3, 4});  // would abort unclamped
  forest.Index();
  EXPECT_EQ(forest.Query(Signature{1, 2, 3, 4}, 1), std::vector<uint32_t>{0});
}

TEST_F(LshForestTest, FindsExactDuplicate) {
  LshForest forest;
  auto q = hasher_.Sign(SetWithSharedPrefix(50, 50, 0));
  forest.Insert(0, q);
  for (uint32_t i = 1; i < 50; ++i) {
    forest.Insert(i, hasher_.Sign(SetWithSharedPrefix(0, 40, i)));
  }
  forest.Index();
  auto hits = forest.Query(q, 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], 0u);
}

TEST_F(LshForestTest, NearNeighbourRecall) {
  // 10 planted near-duplicates of the query among 300 unrelated items; the
  // forest must retrieve most planted items in a top-20 query.
  LshForest forest;
  auto query_set = SetWithSharedPrefix(60, 60, 1000);
  for (uint32_t i = 0; i < 10; ++i) {
    // ~85% overlapping with the query set.
    auto s = SetWithSharedPrefix(55, 60, 2000 + i);
    forest.Insert(i, hasher_.Sign(s));
  }
  for (uint32_t i = 10; i < 310; ++i) {
    forest.Insert(i, hasher_.Sign(SetWithSharedPrefix(5, 50, 3000 + i)));
  }
  forest.Index();
  auto hits = forest.Query(hasher_.Sign(query_set), 20);
  size_t planted = 0;
  for (uint32_t id : hits) {
    if (id < 10) ++planted;
  }
  EXPECT_GE(planted, 7u);
}

TEST_F(LshForestTest, QueryRespectsM) {
  LshForest forest;
  auto s = SetWithSharedPrefix(30, 30, 0);
  auto sig = hasher_.Sign(s);
  for (uint32_t i = 0; i < 40; ++i) forest.Insert(i, sig);
  forest.Index();
  EXPECT_LE(forest.Query(sig, 10).size(), 10u);
  EXPECT_TRUE(forest.Query(sig, 0).empty());
}

TEST_F(LshForestTest, NoCandidatesForUnrelatedQuery) {
  LshForest forest;
  for (uint32_t i = 0; i < 50; ++i) {
    forest.Insert(i, hasher_.Sign(SetWithSharedPrefix(0, 30, i)));
  }
  forest.Index();
  auto hits = forest.Query(hasher_.Sign(SetWithSharedPrefix(0, 30, 9999)), 10);
  // Descending to depth 1 may return a few accidental collisions, but the
  // unrelated query must not flood.
  EXPECT_LE(hits.size(), 10u);
}

TEST_F(LshForestTest, QueryAtDepthIsSelective) {
  LshForest forest;
  auto near = SetWithSharedPrefix(58, 60, 1);   // near-duplicate
  auto far = SetWithSharedPrefix(10, 60, 2);    // weak overlap
  auto query = SetWithSharedPrefix(60, 60, 3);
  forest.Insert(0, hasher_.Sign(near));
  forest.Insert(1, hasher_.Sign(far));
  forest.Index();
  auto deep_hits = forest.QueryAtDepth(hasher_.Sign(query), 4);
  // The weak-overlap item should not match 4 consecutive minima in a tree.
  EXPECT_EQ(std::count(deep_hits.begin(), deep_hits.end(), 1u), 0);
}

TEST_F(LshForestTest, InsertAfterIndexReindexes) {
  LshForest forest;
  auto sig = hasher_.Sign(SetWithSharedPrefix(20, 20, 0));
  forest.Insert(0, sig);
  forest.Index();
  forest.Insert(1, sig);
  forest.Index();
  auto hits = forest.Query(sig, 10);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(LshForestTest, SizeAndMemory) {
  LshForest forest;
  EXPECT_EQ(forest.size(), 0u);
  forest.Insert(0, hasher_.Sign(SetWithSharedPrefix(10, 10, 0)));
  EXPECT_EQ(forest.size(), 1u);
  EXPECT_GT(forest.MemoryUsage(), 0u);
}

TEST_F(LshForestTest, TreeArraysExposeStoredKeys) {
  // The serialization accessors: every inserted signature contributes
  // hashes_per_tree key values (the tree's slice of the signature) plus one
  // id per tree, laid out as parallel flat arrays.
  LshForest forest;  // default 8 trees * 8 hashes
  auto sig_a = hasher_.Sign(SetWithSharedPrefix(20, 20, 0));
  auto sig_b = hasher_.Sign(SetWithSharedPrefix(0, 25, 1));
  forest.Insert(7, sig_a);
  forest.Insert(9, sig_b);

  ASSERT_EQ(forest.num_trees(), forest.options().num_trees);
  const size_t kpt = forest.options().hashes_per_tree;
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    ASSERT_EQ(forest.tree_size(t), 2u);
    const uint64_t* keys = forest.tree_keys(t);
    const LshForest::ItemId* ids = forest.tree_ids(t);
    // Pre-Index(), entries appear in insertion order.
    EXPECT_EQ(ids[0], 7u);
    EXPECT_EQ(ids[1], 9u);
    for (size_t i = 0; i < kpt; ++i) {
      EXPECT_EQ(keys[0 * kpt + i], sig_a.at(t * kpt + i));
      EXPECT_EQ(keys[1 * kpt + i], sig_b.at(t * kpt + i));
    }
  }

  // After Index() the entries are key-sorted but the same multiset.
  forest.Index();
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    ASSERT_EQ(forest.tree_size(t), 2u);
    const uint64_t* keys = forest.tree_keys(t);
    const LshForest::ItemId* ids = forest.tree_ids(t);
    std::vector<std::vector<uint64_t>> sorted_keys;
    std::vector<LshForest::ItemId> seen_ids;
    for (size_t e = 0; e < forest.tree_size(t); ++e) {
      sorted_keys.emplace_back(keys + e * kpt, keys + (e + 1) * kpt);
      seen_ids.push_back(ids[e]);
    }
    EXPECT_TRUE(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
    std::sort(seen_ids.begin(), seen_ids.end());
    EXPECT_EQ(seen_ids, (std::vector<LshForest::ItemId>{7u, 9u}));
  }
}

TEST_F(LshForestTest, MemoryUsageIsExact) {
  // MemoryUsage is documented exact, byte for byte: an empty same-shape
  // forest is the fixed baseline, and each loaded entry adds exactly its
  // flat-array footprint (hashes_per_tree u64 keys + one u32 id per tree)
  // when the arrays are owned — and nothing when they are borrowed from a
  // snapshot mapping.
  LshForestOptions options;
  options.num_trees = 4;
  options.hashes_per_tree = 6;
  MinHasher hasher(64, 3);
  LshForest forest(options);
  const uint32_t n = 25;
  for (uint32_t i = 0; i < n; ++i) {
    forest.Insert(i, hasher.Sign(SetWithSharedPrefix(5, 30, static_cast<int>(i))));
  }
  forest.Index();

  const std::string path = ::testing::TempDir() + "/forest_mem.bin";
  io::Writer w;
  ASSERT_TRUE(w.Open(path, "LSHFRST\n", 1).ok());
  w.BeginSection(0x54534554u);
  forest.Save(w);
  ASSERT_TRUE(w.Finish().ok());

  const size_t base = LshForest(options).MemoryUsage();
  const size_t per_entry_bytes =
      options.num_trees *
      (options.hashes_per_tree * sizeof(uint64_t) + sizeof(LshForest::ItemId));

  {  // Buffered load: owns every array, sized exactly to the entry count.
    io::Reader r;
    ASSERT_TRUE(r.Open(path, "LSHFRST\n", 1, 1, nullptr, io::ReadMode::kBuffered).ok());
    ASSERT_TRUE(r.OpenSection(0x54534554u).ok());
    LshForest loaded = LshForest::Load(r);
    ASSERT_TRUE(r.status().ok());
    EXPECT_FALSE(loaded.borrows_mapping());
    EXPECT_EQ(loaded.MemoryUsage(), base + n * per_entry_bytes);
  }
  {  // Mapped load: arrays borrowed from the mapping, zero heap beyond base.
    io::Reader r;
    ASSERT_TRUE(r.Open(path, "LSHFRST\n", 1, 1, nullptr, io::ReadMode::kMapped).ok());
    ASSERT_TRUE(r.OpenSection(0x54534554u).ok());
    LshForest loaded = LshForest::Load(r);
    ASSERT_TRUE(r.status().ok());
    if (loaded.borrows_mapping()) {
      EXPECT_EQ(loaded.MemoryUsage(), base);
    }
    // Either way the loaded forest answers queries identically.
    for (uint32_t i = 0; i < n; i += 7) {
      Signature q = hasher.Sign(SetWithSharedPrefix(5, 30, static_cast<int>(i)));
      EXPECT_EQ(loaded.Query(q, 10), forest.Query(q, 10));
    }
  }
}

// Property: recall grows with the similarity of the planted neighbour.
class ForestRecallTest : public ::testing::TestWithParam<int> {};

TEST_P(ForestRecallTest, HigherOverlapFoundMoreReliably) {
  int shared = GetParam();  // out of 60
  MinHasher hasher(256, 13);
  int found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    LshForest forest;
    auto query = SetWithSharedPrefix(60, 60, 5000 + trial);
    // Planted: `shared` elements common with query.
    std::set<std::string> planted;
    int i = 0;
    for (const auto& e : query) {
      if (i++ >= shared) break;
      planted.insert(e);
    }
    for (int j = 0; j < 60 - shared; ++j) {
      planted.insert("p_" + std::to_string(trial) + "_" + std::to_string(j));
    }
    forest.Insert(0, hasher.Sign(planted));
    for (uint32_t u = 1; u < 100; ++u) {
      forest.Insert(u, hasher.Sign(SetWithSharedPrefix(0, 50, 7000 + 100 * trial + u)));
    }
    forest.Index();
    auto hits = forest.Query(hasher.Sign(query), 10);
    if (std::find(hits.begin(), hits.end(), 0u) != hits.end()) ++found;
  }
  if (shared >= 54) {
    EXPECT_GE(found, 17) << "shared=" << shared;  // j ~ 0.8+
  } else if (shared >= 42) {
    EXPECT_GE(found, 10) << "shared=" << shared;  // j ~ 0.5+
  }
  // Low-similarity plants carry no guarantee; nothing asserted.
}

INSTANTIATE_TEST_SUITE_P(OverlapLevels, ForestRecallTest,
                         ::testing::Values(42, 48, 54, 60));

TEST(ForestDepthCountsTest, CountsMatchQueryAtDepthAndDecomposeAcrossForests) {
  MinHasher hasher(64, 13);
  LshForestOptions options;
  options.num_trees = 4;
  options.hashes_per_tree = 6;
  LshForest whole(options);
  LshForest left(options);
  LshForest right(options);
  for (uint32_t i = 0; i < 60; ++i) {
    Signature sig = hasher.Sign(SetWithSharedPrefix(static_cast<int>(i % 40), 50,
                                                    static_cast<int>(i / 7)));
    whole.Insert(i, sig);
    (i % 2 == 0 ? left : right).Insert(i, sig);
  }
  whole.Index();
  left.Index();
  right.Index();

  Signature query = hasher.Sign(SetWithSharedPrefix(35, 50, 2));
  std::vector<size_t> counts = whole.DepthCounts(query);
  ASSERT_EQ(counts.size(), options.hashes_per_tree);
  for (size_t d = 1; d <= counts.size(); ++d) {
    // counts[d-1] is exactly the distinct-match count QueryAtDepth sees.
    EXPECT_EQ(counts[d - 1], whole.QueryAtDepth(query, d).size()) << "d=" << d;
    if (d > 1) {
      EXPECT_LE(counts[d - 1], counts[d - 2]);  // monotone
    }
  }

  // Disjoint forests: counts add element-wise into the union's counts —
  // the property sharded serving relies on.
  std::vector<size_t> lc = left.DepthCounts(query);
  std::vector<size_t> rc = right.DepthCounts(query);
  for (size_t d = 0; d < counts.size(); ++d) {
    EXPECT_EQ(lc[d] + rc[d], counts[d]) << "d=" << d;
  }

  // StopDepth reproduces Query's descent rule: everything Query(m) returns
  // matches at >= StopDepth.
  for (size_t m : {size_t{1}, size_t{5}, size_t{20}, size_t{1000}}) {
    size_t stop = LshForest::StopDepth(counts, m);
    ASSERT_GE(stop, 1u);
    std::vector<LshForest::ItemId> at_stop = whole.QueryAtDepth(query, stop);
    std::vector<LshForest::ItemId> queried = whole.Query(query, m);
    std::set<LshForest::ItemId> at_stop_set(at_stop.begin(), at_stop.end());
    for (LshForest::ItemId id : queried) {
      EXPECT_TRUE(at_stop_set.count(id)) << "m=" << m << " id=" << id;
    }
    if (stop > 1) {
      EXPECT_GE(at_stop.size(), m);
    }
  }
}

TEST(ForestDepthCountsTest, BudgetedScanMatchesFullScan) {
  MinHasher hasher(64, 13);
  LshForestOptions options;
  options.num_trees = 4;
  options.hashes_per_tree = 6;
  LshForest forest(options);
  for (uint32_t i = 0; i < 80; ++i) {
    forest.Insert(i, hasher.Sign(SetWithSharedPrefix(static_cast<int>(i % 40), 50,
                                                     static_cast<int>(i / 5))));
  }
  forest.Index();

  for (int q = 0; q < 6; ++q) {
    Signature query = hasher.Sign(SetWithSharedPrefix(30 + q, 50, q));
    const std::vector<size_t> full = forest.DepthCounts(query);

    // A budget the forest never reaches leaves nothing to cut off: the
    // early-terminated scan must return identical counts at every depth.
    EXPECT_EQ(forest.DepthCounts(query, forest.size() + 1), full) << "q=" << q;

    // Saturating budgets: counts stay exact at the stop depth and deeper,
    // clamped entries stay >= the budget, and — the property retrieval
    // rides on — the resolved stop depth is identical to the full scan's.
    for (size_t m : {size_t{1}, size_t{2}, size_t{5}, size_t{16}, size_t{64}}) {
      const std::vector<size_t> budgeted = forest.DepthCounts(query, m);
      ASSERT_EQ(budgeted.size(), full.size()) << "q=" << q << " m=" << m;
      const size_t stop = LshForest::StopDepth(full, m);
      EXPECT_EQ(LshForest::StopDepth(budgeted, m), stop) << "q=" << q << " m=" << m;
      for (size_t d = stop; d <= full.size(); ++d) {
        EXPECT_EQ(budgeted[d - 1], full[d - 1]) << "q=" << q << " m=" << m << " d=" << d;
      }
      for (size_t d = 1; d < stop; ++d) {
        EXPECT_LE(budgeted[d - 1], full[d - 1]) << "clamped entries underestimate";
        if (full[stop - 1] >= m) {
          EXPECT_GE(budgeted[d - 1], m) << "clamp may never dip below the budget";
        }
      }
    }
  }
}

/// A forest over a sparse subset of ids, like the value forest (only
/// attributes with a tset), plus the signatures it holds by id.
struct SparseForest {
  LshForestOptions options;
  LshForest forest;
  std::vector<std::pair<uint32_t, Signature>> items;
};

SparseForest MakeSparseForest() {
  MinHasher hasher(64, 29);
  SparseForest f;
  f.options.num_trees = 4;
  f.options.hashes_per_tree = 6;
  f.forest = LshForest(f.options);
  for (uint32_t i = 0; i < 90; ++i) {
    const uint32_t id = 5 + i * 7 + (i % 3);  // gaps of 6-9 ids
    Signature sig = hasher.Sign(
        SetWithSharedPrefix(static_cast<int>(i % 45), 50, static_cast<int>(i / 4)));
    f.forest.Insert(id, sig);
    f.items.emplace_back(id, std::move(sig));
  }
  f.forest.Index();
  return f;
}

/// Brute-force reference: each item's deepest prefix match with the query
/// over all trees, computed straight from the signatures.
std::vector<size_t> ReferenceDeepest(const SparseForest& f, const Signature& query) {
  const size_t kpt = f.options.hashes_per_tree;
  std::vector<size_t> deepest;
  for (const auto& [id, sig] : f.items) {
    size_t best = 0;
    for (size_t t = 0; t < f.options.num_trees; ++t) {
      size_t lcp = 0;
      while (lcp < kpt && sig[t * kpt + lcp] == query[t * kpt + lcp]) ++lcp;
      best = std::max(best, lcp);
    }
    deepest.push_back(best);
  }
  return deepest;
}

TEST(ForestDepthCountsTest, SparseIdsMatchBruteForceBudgetedOrNot) {
  const SparseForest f = MakeSparseForest();
  MinHasher hasher(64, 29);
  size_t deep_matches = 0;  // keeps the case from passing on empty counts
  for (int q = 0; q < 8; ++q) {
    const Signature query = hasher.Sign(SetWithSharedPrefix(25 + 2 * q, 50, q));
    const std::vector<size_t> deepest = ReferenceDeepest(f, query);
    std::vector<size_t> expected(f.options.hashes_per_tree, 0);
    for (size_t best : deepest) {
      for (size_t d = 1; d <= best; ++d) ++expected[d - 1];
    }
    deep_matches += expected[2];

    const std::vector<size_t> full = f.forest.DepthCounts(query);
    EXPECT_EQ(full, expected) << "q=" << q;
    EXPECT_EQ(f.forest.DepthCounts(query, f.forest.size() + 1), full) << "q=" << q;
    for (size_t m : {size_t{1}, size_t{3}, size_t{10}, size_t{40}}) {
      const std::vector<size_t> budgeted = f.forest.DepthCounts(query, m);
      const size_t stop = LshForest::StopDepth(full, m);
      EXPECT_EQ(LshForest::StopDepth(budgeted, m), stop) << "q=" << q << " m=" << m;
      for (size_t d = stop; d <= full.size(); ++d) {
        EXPECT_EQ(budgeted[d - 1], full[d - 1]) << "q=" << q << " m=" << m << " d=" << d;
      }
    }
  }
  EXPECT_GT(deep_matches, 0u);
}

TEST(ForestQueryAtDepthTest, ReturnsAscendingDistinctIdsOfEveryMatch) {
  const SparseForest f = MakeSparseForest();
  MinHasher hasher(64, 29);
  for (int q = 0; q < 8; ++q) {
    const Signature query = hasher.Sign(SetWithSharedPrefix(25 + 2 * q, 50, q));
    const std::vector<size_t> deepest = ReferenceDeepest(f, query);
    for (size_t d = 1; d <= f.options.hashes_per_tree; ++d) {
      std::vector<LshForest::ItemId> expected;
      for (size_t i = 0; i < f.items.size(); ++i) {
        if (deepest[i] >= d) expected.push_back(f.items[i].first);
      }
      std::sort(expected.begin(), expected.end());
      // Ascending and distinct, even though an item matches in several
      // trees and the trees are gathered one after another.
      EXPECT_EQ(f.forest.QueryAtDepth(query, d), expected) << "q=" << q << " d=" << d;
    }
  }
}

TEST(ForestLoadTest, DepthCountsNeedIdsCheckedAgainstACallerBound) {
  const SparseForest f = MakeSparseForest();
  const uint32_t max_id = f.items.back().first;
  const std::string path = ::testing::TempDir() + "/forest_sparse.bin";
  io::Writer w;
  ASSERT_TRUE(w.Open(path, "LSHFRST\n", 1).ok());
  w.BeginSection(0x54534554u);
  f.forest.Save(w);
  ASSERT_TRUE(w.Finish().ok());

  io::Reader r;
  ASSERT_TRUE(r.Open(path, "LSHFRST\n", 1).ok());
  ASSERT_TRUE(r.OpenSection(0x54534554u).ok());
  LshForest loaded = LshForest::Load(r);
  ASSERT_TRUE(r.status().ok());
  MinHasher hasher(64, 29);
  const Signature query = hasher.Sign(SetWithSharedPrefix(31, 50, 3));
  // The seen-bitmap is sized from a checked bound, never from file ids.
  EXPECT_DEATH((void)loaded.DepthCounts(query), "never checked");
  EXPECT_FALSE(loaded.CheckIdBound(max_id));
  EXPECT_DEATH((void)loaded.DepthCounts(query), "never checked");
  ASSERT_TRUE(loaded.CheckIdBound(max_id + 1));
  EXPECT_EQ(loaded.DepthCounts(query), f.forest.DepthCounts(query));
  EXPECT_EQ(loaded.DepthCounts(query, 10), f.forest.DepthCounts(query, 10));
}

}  // namespace
}  // namespace d3l
