#include "core/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tests/test_util.h"

namespace d3l::core {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = testutil::FigureLake(6);
    engine_ = std::make_unique<D3LEngine>();
    ASSERT_TRUE(engine_->IndexLake(lake_).ok());
  }
  DataLake lake_;
  std::unique_ptr<D3LEngine> engine_;
};

TEST_F(QueryTest, SearchBeforeIndexFails) {
  D3LEngine fresh;
  EXPECT_FALSE(fresh.Search(testutil::FigureTarget(), 3).ok());
}

TEST_F(QueryTest, DoubleIndexFails) {
  EXPECT_TRUE(engine_->IndexLake(lake_).IsInvalidArgument());
}

TEST_F(QueryTest, EmptyTargetFails) {
  Table empty("empty");
  EXPECT_FALSE(engine_->Search(empty, 3).ok());
}

TEST_F(QueryTest, RelatedSourcesRankAboveFillers) {
  auto res = engine_->Search(testutil::FigureTarget(), 3);
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->ranked.size(), 3u);
  // The three GP tables (all related to the target by value/name overlap)
  // must occupy the top ranks, ahead of every color filler.
  const std::set<std::string> gp = {"s1_gp_practices", "s2_gp_funding",
                                    "s3_local_gps"};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(gp.count(lake_.table(res->ranked[i].table_index).name()))
        << "rank " << i << " is " << lake_.table(res->ranked[i].table_index).name();
  }
  // Distances ascend.
  for (size_t i = 1; i < res->ranked.size(); ++i) {
    EXPECT_LE(res->ranked[i - 1].distance, res->ranked[i].distance);
  }
}

TEST_F(QueryTest, DistancesWithinUnitRange) {
  auto res = engine_->Search(testutil::FigureTarget(), 10);
  ASSERT_TRUE(res.ok());
  for (const TableMatch& m : res->ranked) {
    EXPECT_GE(m.distance, 0.0);
    EXPECT_LE(m.distance, 1.0);
    for (double d : m.evidence_distances) {
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

TEST_F(QueryTest, KTruncatesResults) {
  auto res1 = engine_->Search(testutil::FigureTarget(), 1);
  ASSERT_TRUE(res1.ok());
  EXPECT_EQ(res1->ranked.size(), 1u);
  auto res_all = engine_->Search(testutil::FigureTarget(), 100);
  ASSERT_TRUE(res_all.ok());
  EXPECT_GE(res_all->ranked.size(), 2u);
}

TEST_F(QueryTest, AlignmentsRecordTargetColumns) {
  auto res = engine_->Search(testutil::FigureTarget(), 3);
  ASSERT_TRUE(res.ok());
  const TableMatch& top = res->ranked[0];
  ASSERT_FALSE(top.pairs.empty());
  for (const PairDistances& p : top.pairs) {
    EXPECT_LT(p.target_column, testutil::FigureTarget().num_columns());
    EXPECT_LT(p.attribute_id, engine_->indexes().num_attributes());
  }
  // candidate_alignments covers at least the ranked tables.
  EXPECT_TRUE(res->candidate_alignments.count(top.table_index));
}

TEST_F(QueryTest, SingleEvidenceAblationStillRanksRelatedFirst) {
  D3LOptions opts;
  opts.enabled = {false, true, false, false, false};  // V only
  D3LEngine v_engine(opts);
  ASSERT_TRUE(v_engine.IndexLake(lake_).ok());
  auto res = v_engine.Search(testutil::FigureTarget(), 2);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->ranked.empty());
  std::string top = lake_.table(res->ranked[0].table_index).name();
  EXPECT_TRUE(top == "s1_gp_practices" || top == "s2_gp_funding" ||
              top == "s3_local_gps")
      << top;
}

TEST_F(QueryTest, NameOnlyAblationUsesNames) {
  D3LOptions opts;
  opts.enabled = {true, false, false, false, false};  // N only
  D3LEngine n_engine(opts);
  ASSERT_TRUE(n_engine.IndexLake(lake_).ok());
  // S2 shares "Practice", "City" and "Postcode" with the target verbatim.
  auto res = n_engine.Search(testutil::FigureTarget(), 1);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->ranked.empty());
  EXPECT_EQ(lake_.table(res->ranked[0].table_index).name(), "s2_gp_funding");
}

TEST_F(QueryTest, BuildStatsPopulated) {
  const IndexBuildStats& s = engine_->build_stats();
  EXPECT_EQ(s.num_attributes, engine_->indexes().num_attributes());
  EXPECT_GT(s.index_bytes, 0u);
  EXPECT_GE(s.profile_seconds, 0.0);
}

TEST_F(QueryTest, SubjectColumnsDetectedForAllTables) {
  for (uint32_t t = 0; t < lake_.size(); ++t) {
    EXPECT_GE(engine_->subject_column(t), 0) << lake_.table(t).name();
    EXPECT_NE(engine_->subject_attribute_id(t), UINT32_MAX);
  }
}

TEST_F(QueryTest, SearchIsDeterministic) {
  auto a = engine_->Search(testutil::FigureTarget(), 5);
  auto b = engine_->Search(testutil::FigureTarget(), 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(a->ranked[i].table_index, b->ranked[i].table_index);
    EXPECT_DOUBLE_EQ(a->ranked[i].distance, b->ranked[i].distance);
  }
}

TEST_F(QueryTest, SingleThreadedIndexMatchesParallel) {
  D3LOptions opts;
  opts.num_threads = 1;
  D3LEngine serial(opts);
  ASSERT_TRUE(serial.IndexLake(lake_).ok());
  auto a = serial.Search(testutil::FigureTarget(), 5);
  auto b = engine_->Search(testutil::FigureTarget(), 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(a->ranked[i].table_index, b->ranked[i].table_index);
    EXPECT_DOUBLE_EQ(a->ranked[i].distance, b->ranked[i].distance);
  }
}

TEST_F(QueryTest, NanCellsInTargetAreNullsAndSearchReturns) {
  // std::from_chars reads "-nan" and "-NaN". A NaN in the numeric sample
  // would stall the KS merge against S1's Patients, so these cells must be
  // nulls.
  const Table target = testutil::MakeTable(
      "target_patients", {"Practice Name", "Patients"},
      {{"Blackfriars", "3572"},
       {"Bolton Medical", "-nan"},
       {"Radclife Care", "2210"},
       {"Mirabel Surgery", "-NaN"}});
  auto res = engine_->Search(target, 3);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->target_profiles.size(), 2u);
  EXPECT_TRUE(res->target_profiles[1].is_numeric);
  EXPECT_EQ(res->target_profiles[1].numeric_sample, (std::vector<double>{2210, 3572}));
  // The Patients column did reach KS: some pair has a distribution
  // distance below the no-evidence 1.
  bool ks_ran = false;
  for (const TableMatch& m : res->ranked) {
    for (const PairDistances& p : m.pairs) {
      ks_ran |= p.target_column == 1 &&
                p.d[static_cast<size_t>(Evidence::kDistribution)] < 1.0;
    }
  }
  EXPECT_TRUE(ks_ran);
}

/// One malformed variant of a profiled target per field ValidateTarget
/// checks; each must be refused with InvalidArgument before any lookup.
TEST_F(QueryTest, MalformedTargetsAreInvalidArgument) {
  const QueryTarget good = engine_->ProfileTarget(testutil::FigureTarget());
  ASSERT_TRUE(engine_->ValidateTarget(good).ok());
  size_t embedded_col = SIZE_MAX;
  for (size_t c = 0; c < good.sigs.size(); ++c) {
    if (good.sigs[c].has_embedding) embedded_col = c;
  }
  ASSERT_NE(embedded_col, SIZE_MAX);

  std::vector<std::pair<std::string, std::function<void(QueryTarget&)>>> cases = {
      {"short name signature", [](QueryTarget& t) { t.sigs[0].name_sig.resize(10); }},
      {"long name signature", [](QueryTarget& t) { t.sigs[0].name_sig.resize(300, 7); }},
      {"short format signature", [](QueryTarget& t) { t.sigs[1].format_sig.pop_back(); }},
      {"embedding bits past its words",
       [&](QueryTarget& t) { t.sigs[embedded_col].emb_sig.bits = 4096; }},
      {"embedding words short",
       [&](QueryTarget& t) { t.sigs[embedded_col].emb_sig.words.pop_back(); }},
      // Every column's sample is checked, whatever its type.
      {"unsorted sample", [](QueryTarget& t) { t.profiles[0].numeric_sample = {3, 1, 2}; }},
      {"NaN sample",
       [](QueryTarget& t) { t.profiles[0].numeric_sample = {1, std::nan(""), 2}; }},
      {"subject column out of range", [](QueryTarget& t) { t.subject_col = 99; }},
      {"missing signatures", [](QueryTarget& t) { t.sigs.pop_back(); }},
  };
  for (auto& [name, mutate] : cases) {
    QueryTarget bad = good;
    mutate(bad);
    auto res = engine_->SearchTarget(std::move(bad), 3, engine_->options().enabled);
    ASSERT_FALSE(res.ok()) << name;
    EXPECT_TRUE(res.status().IsInvalidArgument()) << name << ": " << res.status().ToString();
  }

  // Stop depths: one per (column, evidence), within each forest's key.
  CandidateStopDepths stops;
  stops.depths.resize(good.sigs.size());
  EXPECT_TRUE(engine_->ValidateTarget(good, &stops).ok());
  stops.depths[0][static_cast<size_t>(Evidence::kName)] =
      engine_->indexes().max_depth(Evidence::kName);
  EXPECT_TRUE(engine_->ValidateTarget(good, &stops).ok());
  stops.depths[0][static_cast<size_t>(Evidence::kName)] += 1;
  EXPECT_TRUE(engine_->ValidateTarget(good, &stops).IsInvalidArgument());
  stops.depths[0][static_cast<size_t>(Evidence::kName)] = 0;
  stops.depths[0][static_cast<size_t>(Evidence::kDistribution)] = 1;  // no forest
  EXPECT_TRUE(engine_->ValidateTarget(good, &stops).IsInvalidArgument());
  stops.depths.pop_back();
  EXPECT_TRUE(engine_->ValidateTarget(good, &stops).IsInvalidArgument());

  // The well-formed target still searches.
  EXPECT_TRUE(engine_->SearchTarget(good, 3, engine_->options().enabled).ok());
}

}  // namespace
}  // namespace d3l::core
