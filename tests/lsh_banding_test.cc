#include "lsh/lsh_banding.h"

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>
#include <string>
#include <vector>

#include "io/binary_io.h"
#include "lsh/minhash.h"

namespace d3l {
namespace {

std::set<std::string> OverlappingSet(int shared, int total, int salt) {
  std::set<std::string> s;
  for (int i = 0; i < shared; ++i) s.insert("shared_" + std::to_string(i));
  for (int i = shared; i < total; ++i) {
    s.insert("salt" + std::to_string(salt) + "_" + std::to_string(i));
  }
  return s;
}

TEST(BandingMathTest, OptimalBandsRowsApproximateThreshold) {
  for (double tau : {0.4, 0.5, 0.7, 0.9}) {
    auto [b, r] = OptimalBandsRows(256, tau);
    EXPECT_LE(b * r, 256u);
    EXPECT_GE(b, 1u);
    double achieved = std::pow(1.0 / static_cast<double>(b),
                               1.0 / static_cast<double>(r));
    EXPECT_NEAR(achieved, tau, 0.08) << "tau=" << tau;
  }
}

TEST(BandingMathTest, CollisionProbabilityIsSCurve) {
  auto [b, r] = OptimalBandsRows(256, 0.7);
  double below = BandingCollisionProbability(0.4, b, r);
  double at = BandingCollisionProbability(0.7, b, r);
  double above = BandingCollisionProbability(0.9, b, r);
  EXPECT_LT(below, 0.25);
  EXPECT_GT(at, 0.3);
  EXPECT_GT(above, 0.95);
  EXPECT_LT(below, at);
  EXPECT_LT(at, above);
}

class BandedLshTest : public ::testing::Test {
 protected:
  BandedLshTest() : hasher_(256, 3) {}
  MinHasher hasher_;
};

TEST_F(BandedLshTest, HighSimilarityCollides) {
  BandedLsh index;
  auto query = OverlappingSet(60, 60, 0);
  auto near = OverlappingSet(57, 60, 1);  // jaccard ~ 0.9
  index.Insert(0, hasher_.Sign(near));
  index.Index();
  auto hits = index.Query(hasher_.Sign(query));
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0u), 1);
}

TEST_F(BandedLshTest, LowSimilarityRarelyCollides) {
  BandedLsh index;
  // jaccard ~ 10/(110) ~ 0.09 — far below tau=0.7.
  for (uint32_t i = 0; i < 50; ++i) {
    index.Insert(i, hasher_.Sign(OverlappingSet(10, 60, 100 + i)));
  }
  index.Index();
  auto hits = index.Query(hasher_.Sign(OverlappingSet(60, 60, 0)));
  EXPECT_LE(hits.size(), 3u);
}

TEST_F(BandedLshTest, QueryDeduplicates) {
  BandedLsh index;
  auto sig = hasher_.Sign(OverlappingSet(40, 40, 0));
  index.Insert(7, sig);
  index.Index();
  auto hits = index.Query(sig);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 7u), 1);
}

TEST_F(BandedLshTest, SizeAndMemory) {
  BandedLsh index;
  EXPECT_EQ(index.size(), 0u);
  index.Insert(0, hasher_.Sign(OverlappingSet(20, 20, 0)));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_GT(index.MemoryUsage(), 0u);
}

// Property sweep: empirical collision rates bracket the threshold S-curve.
class BandedThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(BandedThresholdTest, CollisionRateTracksSimilarity) {
  int shared = GetParam();
  MinHasher hasher(256, 19);
  int collided = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    BandedLsh index;
    auto a = OverlappingSet(60, 60, 100 * t);
    std::set<std::string> b;
    int i = 0;
    for (const auto& e : a) {
      if (i++ >= shared) break;
      b.insert(e);
    }
    for (int j = 0; j < 60 - shared; ++j) {
      b.insert("b_" + std::to_string(t) + "_" + std::to_string(j));
    }
    index.Insert(0, hasher.Sign(b));
    index.Index();
    auto hits = index.Query(hasher.Sign(a));
    if (!hits.empty()) ++collided;
  }
  double rate = static_cast<double>(collided) / trials;
  double jaccard = static_cast<double>(shared) / (120.0 - shared);
  if (jaccard >= 0.85) {
    EXPECT_GE(rate, 0.85) << "shared=" << shared;
  } else if (jaccard <= 0.3) {
    EXPECT_LE(rate, 0.35) << "shared=" << shared;
  }
}

INSTANTIATE_TEST_SUITE_P(SharedLevels, BandedThresholdTest,
                         ::testing::Values(25, 40, 56, 60));

TEST(BandedLshDeathTest, ShortSignatureAbortsLoudly) {
  // An ensemble whose options disagree with its hasher must die with a
  // diagnostic instead of reading past the signature (mirrors
  // LshForest::CheckSignatureSize; previously only a debug assert).
  BandedLshOptions options;
  options.signature_size = 64;
  BandedLsh index(options);
  MinHasher hasher(64, 11);
  Signature good = hasher.Sign(OverlappingSet(30, 60, 0));
  index.Insert(0, good);
  index.Index();

  MinHasher short_hasher(16, 11);
  Signature short_sig = short_hasher.Sign(OverlappingSet(30, 60, 1));
  EXPECT_DEATH(index.Insert(1, short_sig), "BandedLsh: signature has");
  EXPECT_DEATH((void)index.Query(short_sig), "BandedLsh: signature has");
}

TEST(BandedLshDeathTest, QueryBeforeIndexAbortsLoudly) {
  // Un-indexed inserts are not in the sorted bands, so a lookup would miss
  // them silently; it must die with a diagnostic instead.
  MinHasher hasher(256, 3);
  BandedLsh index;
  const Signature sig = hasher.Sign(OverlappingSet(30, 60, 0));
  index.Insert(0, sig);
  EXPECT_DEATH((void)index.Query(sig), "not yet Index\\(\\)ed");
  index.Index();
  index.Insert(1, sig);  // alternating Insert/Index re-opens the index
  EXPECT_DEATH((void)index.Query(sig), "not yet Index\\(\\)ed");
}

TEST_F(BandedLshTest, InsertAfterIndexMatchesOneBatch) {
  BandedLsh batch;
  BandedLsh staged;
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < 40; ++i) {
    sigs.push_back(hasher_.Sign(OverlappingSet(20 + i % 7, 40, static_cast<int>(i % 5))));
    batch.Insert(i, sigs.back());
    staged.Insert(i, sigs.back());
    if (i == 17) staged.Index();
  }
  batch.Index();
  staged.Index();
  EXPECT_EQ(staged.size(), batch.size());
  for (const Signature& q : sigs) EXPECT_EQ(staged.Query(q), batch.Query(q));
}

TEST_F(BandedLshTest, SaveLoadRoundTripBorrowsWhenMappedAndOwnsWhenCopied) {
  // The empty index stands for a lake whose attributes all lack some
  // evidence (all-numeric columns have no value or embedding signature): a
  // mapped load of it copies nothing either, so it counts as borrowed.
  for (const uint32_t n : {60u, 0u}) {
    SCOPED_TRACE(n);
    BandedLsh index;
    std::vector<Signature> sigs;
    for (uint32_t i = 0; i < n; ++i) {
      sigs.push_back(hasher_.Sign(OverlappingSet(25 + i % 11, 40, static_cast<int>(i % 6))));
      index.Insert(i, sigs.back());
    }
    index.Index();
    sigs.push_back(hasher_.Sign(OverlappingSet(30, 60, 99)));  // a probe never inserted

    const std::string path = ::testing::TempDir() + "/banded_round_trip.bin";
    io::Writer w;
    ASSERT_TRUE(w.Open(path, "LSHBAND\n", 1).ok());
    w.BeginSection(io::SectionId("BAND"));
    w.WriteU8(7);  // misalign the header so Save must pad the arrays
    index.Save(w);
    ASSERT_TRUE(w.Finish().ok());

    const auto load = [&](io::ReadMode mode) {
      io::Reader r;
      EXPECT_TRUE(r.Open(path, "LSHBAND\n", 1, 1, nullptr, mode).ok());
      EXPECT_TRUE(r.OpenSection(io::SectionId("BAND")).ok());
      EXPECT_EQ(r.ReadU8(), 7u);
      BandedLsh loaded = BandedLsh::Load(r, BandedLshOptions{}, n);
      EXPECT_TRUE(r.status().ok()) << r.status().ToString();
      EXPECT_TRUE(r.EndSection().ok());
      return loaded;
    };
    const BandedLsh mapped = load(io::ReadMode::kMapped);
    const BandedLsh copied = load(io::ReadMode::kBuffered);
    EXPECT_TRUE(mapped.borrows_mapping());
    EXPECT_FALSE(copied.borrows_mapping());
    EXPECT_EQ(mapped.MemoryUsage(), sizeof(BandedLsh));
    EXPECT_EQ(copied.size(), index.size());
    EXPECT_EQ(mapped.size(), index.size());
    for (const Signature& q : sigs) {
      EXPECT_EQ(mapped.Query(q), index.Query(q));
      EXPECT_EQ(copied.Query(q), index.Query(q));
    }
  }
}

}  // namespace
}  // namespace d3l
