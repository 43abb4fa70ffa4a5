#include "core/indexes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "io/binary_io.h"
#include "tests/test_util.h"

namespace d3l::core {
namespace {

class IndexesTest : public ::testing::Test {
 protected:
  IndexesTest() : indexes_(IndexOptions{}), cache_(&wem_) {}

  uint32_t InsertColumn(const Table& t, size_t col, uint32_t table_id) {
    AttributeProfile p = BuildProfile(t, col, wem_, &cache_);
    p.ref = AttributeRef{table_id, static_cast<uint32_t>(col)};
    return indexes_.Insert(std::move(p));
  }

  void InsertTable(const Table& t, uint32_t table_id) {
    for (size_t c = 0; c < t.num_columns(); ++c) InsertColumn(t, c, table_id);
  }

  AttributeSignatures SignColumn(const Table& t, size_t col) {
    return indexes_.Sign(BuildProfile(t, col, wem_, &cache_));
  }

  SubwordHashModel wem_;
  D3LIndexes indexes_;
  CachingEmbedder cache_;
};

TEST_F(IndexesTest, InsertAssignsSequentialIds) {
  Table s1 = testutil::FigureS1();
  EXPECT_EQ(InsertColumn(s1, 0, 0), 0u);
  EXPECT_EQ(InsertColumn(s1, 1, 0), 1u);
  EXPECT_EQ(indexes_.num_attributes(), 2u);
  EXPECT_EQ(indexes_.profile(1).column_name, "Address");
}

TEST_F(IndexesTest, NumericAttributesSkipValueAndEmbeddingIndexes) {
  Table s1 = testutil::FigureS1();
  uint32_t id = InsertColumn(s1, 4, 0);  // Patients
  const AttributeSignatures& s = indexes_.signatures(id);
  EXPECT_FALSE(s.has_value);
  EXPECT_FALSE(s.has_embedding);
  EXPECT_FALSE(s.name_sig.empty());
  EXPECT_FALSE(s.format_sig.empty());
}

TEST_F(IndexesTest, LookupFindsIdenticalAttribute) {
  Table s1 = testutil::FigureS1();
  Table s2 = testutil::FigureS2();
  InsertTable(s1, 0);
  InsertTable(s2, 1);
  indexes_.Finalize();

  // The target's "Postcode" should retrieve both postcode columns by name.
  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 3);
  auto hits = indexes_.Lookup(Evidence::kName, q, 10);
  bool found_s1_pc = false;
  bool found_s2_pc = false;
  for (uint32_t id : hits) {
    const auto& p = indexes_.profile(id);
    if (p.column_name == "Postcode" && p.ref.table == 0) found_s1_pc = true;
    if (p.column_name == "Postcode" && p.ref.table == 1) found_s2_pc = true;
  }
  EXPECT_TRUE(found_s1_pc);
  EXPECT_TRUE(found_s2_pc);
}

TEST_F(IndexesTest, ValueLookupFindsSharedExtents) {
  Table s2 = testutil::FigureS2();
  InsertTable(s2, 0);
  indexes_.Finalize();
  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 0);  // Practice names overlap
  auto hits = indexes_.Lookup(Evidence::kValue, q, 10);
  bool found_practice = false;
  for (uint32_t id : hits) {
    if (indexes_.profile(id).column_name == "Practice") found_practice = true;
  }
  EXPECT_TRUE(found_practice);
}

TEST_F(IndexesTest, DistanceEstimatesOrderRelatedness) {
  Table s1 = testutil::FigureS1();
  Table s2 = testutil::FigureS2();
  InsertTable(s1, 0);   // ids 0..4
  InsertTable(s2, 1);   // ids 5..8
  indexes_.Finalize();

  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 2);  // City

  // Find ids of S2.City (7) and S2.Payment (8) via profiles.
  uint32_t city_id = UINT32_MAX;
  uint32_t payment_id = UINT32_MAX;
  for (uint32_t i = 0; i < indexes_.num_attributes(); ++i) {
    if (indexes_.profile(i).column_name == "City" && indexes_.profile(i).ref.table == 1) {
      city_id = i;
    }
    if (indexes_.profile(i).column_name == "Payment") payment_id = i;
  }
  ASSERT_NE(city_id, UINT32_MAX);
  ASSERT_NE(payment_id, UINT32_MAX);

  double d_city = indexes_.EstimateDistance(Evidence::kValue, q, city_id);
  double d_payment = indexes_.EstimateDistance(Evidence::kValue, q, payment_id);
  EXPECT_LT(d_city, 0.7);           // shared city values
  EXPECT_DOUBLE_EQ(d_payment, 1.0);  // numeric: no V evidence
  EXPECT_LT(indexes_.EstimateDistance(Evidence::kName, q, city_id), 0.05);
}

TEST_F(IndexesTest, ThresholdLookupIsSelective) {
  Table s1 = testutil::FigureS1();
  Table filler = testutil::FillerColors(1);
  InsertTable(s1, 0);
  InsertTable(filler, 1);
  indexes_.Finalize();

  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 3);  // Postcode
  auto hits = indexes_.LookupThreshold(Evidence::kName, q);
  for (uint32_t id : hits) {
    // No filler column should name-collide with "Postcode" at tau=0.7.
    EXPECT_EQ(indexes_.profile(id).ref.table, 0u);
  }
}

TEST_F(IndexesTest, DistributionDistanceNotServedFromIndexes) {
  Table s1 = testutil::FigureS1();
  uint32_t id = InsertColumn(s1, 4, 0);
  indexes_.Finalize();
  AttributeSignatures q = SignColumn(testutil::FigureTarget(), 0);
  EXPECT_DOUBLE_EQ(indexes_.EstimateDistance(Evidence::kDistribution, q, id), 1.0);
  EXPECT_TRUE(indexes_.Lookup(Evidence::kDistribution, q, 10).empty());
}

TEST_F(IndexesTest, LoadRejectsNumericSamplesKsCannotMerge) {
  // Scoring merges stored samples without re-sorting them, so a snapshot
  // whose sample is unsorted or holds a NaN is corrupt.
  const Table s1 = testutil::FigureS1();
  const std::vector<std::vector<double>> samples = {
      {1, 2, 2, 3}, {3, 1, 2}, {1, std::nan(""), 2}};
  for (const std::vector<double>& sample : samples) {
    D3LIndexes built{IndexOptions{}};
    AttributeProfile p = BuildProfile(s1, 4, wem_, &cache_);  // Patients
    p.numeric_sample = sample;
    built.Insert(std::move(p));
    built.Finalize();

    std::string bytes;
    io::Writer w;
    w.OpenBuffer(&bytes);
    w.BeginSection(io::SectionId("INDX"));
    built.Save(w);
    ASSERT_TRUE(w.EndSection().ok());
    io::Reader r;
    ASSERT_TRUE(r.OpenBuffer(std::move(bytes)).ok());
    ASSERT_TRUE(r.OpenSection(io::SectionId("INDX")).ok());
    auto loaded = D3LIndexes::Load(r);
    if (&sample == &samples.front()) {
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    } else {
      ASSERT_FALSE(loaded.ok());
      EXPECT_NE(loaded.status().ToString().find("numeric sample"), std::string::npos)
          << loaded.status().ToString();
    }
  }
}

TEST_F(IndexesTest, MemoryUsageGrowsWithInsertions) {
  size_t before = indexes_.MemoryUsage();
  InsertTable(testutil::FigureS1(), 0);
  EXPECT_GT(indexes_.MemoryUsage(), before);
}

}  // namespace
}  // namespace d3l::core
