// The sharded serving subsystem: thread pool, shard planning, manifest
// round trips and damage handling, and — the core property — exact
// scatter-gather: a ShardedEngine over N shards returns rankings
// byte-identical to a single unsharded engine over the same lake,
// including distance ties, for N in {1, 2, 3, 7} on randomized lakes. The
// coordinator is also run over two subset engines without RPC, and must
// fail cleanly on every kind of malformed endpoint reply.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benchdata/synthetic_gen.h"
#include "core/query.h"
#include "eval/experiment.h"
#include "io/binary_io.h"
#include "serving/coordinator.h"
#include "serving/manifest.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "serving/thread_pool.h"
#include "table/lake.h"
#include "tests/test_util.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("d3l_serving_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Base(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

// A lake with guaranteed exact distance ties: byte-identical tables under
// different names land in different shards, so only a deterministic
// tie-break (global table id) keeps the sharded ranking byte-identical.
DataLake MakeTieLake() {
  DataLake lake;
  lake.AddTable(testutil::FigureS1()).CheckOK();
  lake.AddTable(testutil::FigureS2()).CheckOK();
  lake.AddTable(testutil::FigureS3()).CheckOK();
  for (int salt = 0; salt < 2; ++salt) {
    lake.AddTable(testutil::FillerColors(salt)).CheckOK();
    lake.AddTable(testutil::FillerInventory(salt)).CheckOK();
    lake.AddTable(testutil::FillerWeather(salt)).CheckOK();
  }
  Table dup1 = testutil::FigureS2();
  dup1.set_name("zz_dup_a");
  lake.AddTable(std::move(dup1)).CheckOK();
  Table dup2 = testutil::FigureS2();
  dup2.set_name("zz_dup_b");
  lake.AddTable(std::move(dup2)).CheckOK();
  return lake;
}

DataLake MakeSyntheticLake(uint64_t seed) {
  benchdata::SyntheticOptions opts;
  opts.num_base_tables = 5;
  opts.derived_per_base = 3;
  opts.base_rows_min = 40;
  opts.base_rows_max = 80;
  opts.seed = seed;
  auto gen = benchdata::GenerateSynthetic(opts);
  gen.status().CheckOK();
  return std::move(gen->lake);
}

void ExpectIdenticalResults(const core::SearchResult& expected,
                            const core::SearchResult& actual,
                            const std::string& context) {
  ASSERT_EQ(actual.ranked.size(), expected.ranked.size()) << context;
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    const core::TableMatch& e = expected.ranked[i];
    const core::TableMatch& a = actual.ranked[i];
    EXPECT_EQ(a.table_index, e.table_index) << context << " rank " << i;
    // Bitwise equality, not approximate: the scatter-gather pipeline must
    // reproduce the single engine's floating-point work exactly.
    EXPECT_EQ(a.distance, e.distance) << context << " rank " << i;
    EXPECT_EQ(a.evidence_distances, e.evidence_distances) << context << " rank " << i;
    ASSERT_EQ(a.pairs.size(), e.pairs.size()) << context << " rank " << i;
    for (size_t p = 0; p < e.pairs.size(); ++p) {
      EXPECT_EQ(a.pairs[p].target_column, e.pairs[p].target_column);
      EXPECT_EQ(a.pairs[p].attribute_id, e.pairs[p].attribute_id);
      EXPECT_EQ(a.pairs[p].d, e.pairs[p].d);
    }
  }
  // Candidate alignments (Algorithm 3's input) must agree as maps.
  ASSERT_EQ(actual.candidate_alignments.size(), expected.candidate_alignments.size())
      << context;
  for (const auto& [table, aligns] : expected.candidate_alignments) {
    auto it = actual.candidate_alignments.find(table);
    ASSERT_NE(it, actual.candidate_alignments.end()) << context;
    EXPECT_EQ(it->second, aligns) << context << " table " << table;
  }
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
    serving::ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, BackToBackBatchesAndEmptyBatch) {
  serving::ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "empty batch must not run"; });
  std::atomic<size_t> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(10, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200u);
}

// -------------------------------------------------------------- planning

TEST(PlanShardsTest, RoundRobinAssignsByIndex) {
  DataLake lake = testutil::FigureLake(4);
  serving::ShardingOptions options;
  options.num_shards = 3;
  options.balance = serving::ShardingOptions::Balance::kRoundRobin;
  auto plan = serving::PlanShards(lake, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 3u);
  for (size_t s = 0; s < plan->size(); ++s) {
    for (uint32_t g : (*plan)[s]) EXPECT_EQ(g % 3, s);
  }
}

TEST(PlanShardsTest, SizeBalancedCoversAllTablesOnce) {
  DataLake lake = MakeTieLake();
  serving::ShardingOptions options;
  options.num_shards = 4;
  auto plan = serving::PlanShards(lake, options);
  ASSERT_TRUE(plan.ok());
  std::set<uint32_t> seen;
  for (const auto& shard : *plan) {
    EXPECT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (uint32_t g : shard) EXPECT_TRUE(seen.insert(g).second);
  }
  EXPECT_EQ(seen.size(), lake.size());
}

TEST(PlanShardsTest, RejectsDegenerateShardCounts) {
  DataLake lake = testutil::FigureLake(0);
  serving::ShardingOptions options;
  options.num_shards = 0;
  EXPECT_TRUE(serving::PlanShards(lake, options).status().IsInvalidArgument());
  options.num_shards = lake.size() + 1;
  EXPECT_TRUE(serving::PlanShards(lake, options).status().IsInvalidArgument());
}

// ------------------------------------------------------------ exact merge

class ShardedParityTest : public ServingTest {
 protected:
  // Builds shards of `lake`, opens a ShardedEngine and asserts byte-equal
  // rankings against `unsharded` for every target.
  void CheckParity(const DataLake& lake, const core::D3LEngine& unsharded,
                   const std::vector<Table>& targets, size_t num_shards,
                   serving::ShardingOptions::Balance balance, size_t k) {
    serving::ShardingOptions options;
    options.num_shards = num_shards;
    options.balance = balance;
    const std::string base = Base("n" + std::to_string(num_shards));
    auto report = serving::BuildShards(lake, options, base);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    serving::ShardedEngineOptions open_options;
    open_options.num_threads = 3;
    auto sharded = serving::ShardedEngine::Open(report->manifest_path, open_options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ((*sharded)->num_shards(), num_shards);
    EXPECT_EQ((*sharded)->num_tables(), lake.size());

    for (const Table& target : targets) {
      auto expected = unsharded.Search(target, k);
      auto actual = (*sharded)->Search(target, k);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectIdenticalResults(*expected, *actual,
                             "shards=" + std::to_string(num_shards) +
                                 " target=" + target.name());
    }
  }
};

TEST_F(ShardedParityTest, TieLakeMatchesUnshardedAtEveryShardCount) {
  DataLake lake = MakeTieLake();
  core::D3LEngine unsharded;
  ASSERT_TRUE(unsharded.IndexLake(lake).ok());

  std::vector<Table> targets = {testutil::FigureTarget(), lake.table(1),
                                lake.table(4)};
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    CheckParity(lake, unsharded, targets, n,
                serving::ShardingOptions::Balance::kSizeBalanced, 10);
  }
  // Round-robin spreads the duplicate tables differently; parity must hold
  // regardless of the partitioning policy.
  CheckParity(lake, unsharded, targets, 3,
              serving::ShardingOptions::Balance::kRoundRobin, 10);
}

TEST_F(ShardedParityTest, RandomizedLakesMatchUnsharded) {
  for (uint64_t seed : {uint64_t{7}, uint64_t{1234}}) {
    DataLake lake = MakeSyntheticLake(seed);
    core::D3LEngine unsharded;
    ASSERT_TRUE(unsharded.IndexLake(lake).ok());

    std::vector<Table> targets;
    for (uint32_t t : eval::SampleTargets(lake, 4, seed + 1)) {
      targets.push_back(lake.table(t));
    }
    for (size_t n : {size_t{2}, size_t{3}, size_t{7}}) {
      CheckParity(lake, unsharded, targets, n,
                  serving::ShardingOptions::Balance::kSizeBalanced, 15);
    }
  }
}

TEST_F(ShardedParityTest, DuplicateTablesTieBreakDeterministically) {
  DataLake lake = MakeTieLake();
  core::D3LEngine unsharded;
  ASSERT_TRUE(unsharded.IndexLake(lake).ok());
  // S2 and its two byte-identical copies must produce exact distance ties.
  auto res = unsharded.Search(testutil::FigureTarget(), lake.size());
  ASSERT_TRUE(res.ok());
  int s2_family = 0;
  double s2_distance = -1;
  for (const core::TableMatch& m : res->ranked) {
    const std::string& name = lake.table(m.table_index).name();
    if (name == "s2_gp_funding" || name == "zz_dup_a" || name == "zz_dup_b") {
      ++s2_family;
      if (s2_distance < 0) {
        s2_distance = m.distance;
      } else {
        EXPECT_EQ(m.distance, s2_distance) << name;
      }
    }
  }
  EXPECT_EQ(s2_family, 3);
}

TEST_F(ShardedParityTest, BatchedExecutionMatchesSequentialSearches) {
  DataLake lake = MakeSyntheticLake(99);
  serving::ShardingOptions options;
  options.num_shards = 3;
  auto report = serving::BuildShards(lake, options, Base("batch"));
  ASSERT_TRUE(report.ok());
  serving::ShardedEngineOptions open_options;
  open_options.num_threads = 4;
  auto sharded = serving::ShardedEngine::Open(report->manifest_path, open_options);
  ASSERT_TRUE(sharded.ok());

  std::vector<Table> targets;
  for (uint32_t t : eval::SampleTargets(lake, 5, 3)) targets.push_back(lake.table(t));
  Table empty("empty");

  serving::QueryBatch batch;
  for (const Table& t : targets) batch.targets.push_back(&t);
  batch.targets.push_back(&targets[0]);  // duplicate pointer: profiled once
  batch.targets.push_back(&empty);       // bad target fails only its own slot
  batch.k = 8;
  auto results = (*sharded)->Execute(batch);
  ASSERT_EQ(results.size(), targets.size() + 2);
  for (size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    auto single = (*sharded)->Search(targets[i], batch.k);
    ASSERT_TRUE(single.ok());
    ExpectIdenticalResults(*single, *results[i], "batch slot " + std::to_string(i));
  }
  ASSERT_TRUE(results[targets.size()].ok());
  ExpectIdenticalResults(*results[0], *results[targets.size()], "duplicate slot");
  EXPECT_TRUE(results.back().status().IsInvalidArgument());
}

// ------------------------------------------------------------ coordinator

/// Wraps a real endpoint and lets a test corrupt its replies.
class CorruptingEndpoint : public serving::ShardEndpoint {
 public:
  using CountsFn = std::function<Result<core::CandidateDepthCounts>(
      core::CandidateDepthCounts)>;
  using ScoreFn = std::function<Result<serving::ShardScore>(serving::ShardScore)>;

  CorruptingEndpoint(const serving::ShardEndpoint* inner, CountsFn counts, ScoreFn score)
      : inner_(inner), counts_(std::move(counts)), score_(std::move(score)) {}

  std::string endpoint_name() const override {
    return "corrupted " + inner_->endpoint_name();
  }
  Result<core::CandidateDepthCounts> CollectDepthCounts(
      const core::QueryTarget& target,
      const std::array<bool, core::kNumEvidence>& enabled_mask,
      size_t m) const override {
    D3L_ASSIGN_OR_RETURN(core::CandidateDepthCounts counts,
                         inner_->CollectDepthCounts(target, enabled_mask, m));
    return counts_ ? counts_(std::move(counts)) : counts;
  }
  Result<serving::ShardScore> ScoreAtStops(
      const core::QueryTarget& target, const core::CandidateStopDepths& stops,
      size_t m,
      const std::array<bool, core::kNumEvidence>& enabled_mask) const override {
    D3L_ASSIGN_OR_RETURN(serving::ShardScore score,
                         inner_->ScoreAtStops(target, stops, m, enabled_mask));
    return score_ ? score_(std::move(score)) : score;
  }

 private:
  const serving::ShardEndpoint* inner_;
  CountsFn counts_;
  ScoreFn score_;
};

// Coordinate over two in-process subset engines, shards {0} and {1, 2} of a
// 3-shard deployment: the multi-endpoint merge and row filter without RPC.
class CoordinatorTest : public ServingTest {
 protected:
  void Deploy(const DataLake& lake, const std::string& name) {
    num_tables_ = lake.size();
    attr_table_.clear();
    for (size_t t = 0; t < lake.size(); ++t) {
      attr_table_.insert(attr_table_.end(), lake.table(t).num_columns(),
                         static_cast<uint32_t>(t));
    }
    serving::ShardingOptions sharding;
    sharding.num_shards = 3;
    auto report = serving::BuildShards(lake, sharding, Base(name));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    subsets_.clear();
    for (const std::vector<size_t>& shards : {std::vector<size_t>{0}, {1, 2}}) {
      serving::ShardedEngineOptions open_options;
      open_options.num_threads = 2;
      open_options.serve_shards = shards;
      auto engine = serving::ShardedEngine::Open(report->manifest_path, open_options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      subsets_.push_back(std::move(*engine));
    }
  }

  Result<core::SearchResult> Run(const std::vector<const serving::ShardEndpoint*>& endpoints,
                                 const Table& target, size_t k) {
    const core::D3LOptions& options = subsets_[0]->options();
    D3L_ASSIGN_OR_RETURN(core::QueryTarget qt, subsets_[0]->Profile(target));
    return serving::Coordinate(endpoints, &pool_, std::move(qt), k, options.enabled,
                               options, attr_table_, num_tables_);
  }

  serving::ThreadPool pool_{2};
  std::vector<std::unique_ptr<serving::ShardedEngine>> subsets_;
  std::vector<uint32_t> attr_table_;
  size_t num_tables_ = 0;
};

TEST_F(CoordinatorTest, TwoSubsetEndpointsMatchTheSingleEngineByteForByte) {
  const DataLake tie_lake = MakeTieLake();
  const DataLake random_lake = MakeSyntheticLake(4242);
  std::vector<Table> random_targets;
  for (uint32_t t : eval::SampleTargets(random_lake, 4, 5)) {
    random_targets.push_back(random_lake.table(t));
  }
  const std::vector<std::pair<const DataLake*, std::vector<Table>>> cases = {
      {&tie_lake, {testutil::FigureTarget(), tie_lake.table(1), tie_lake.table(4)}},
      {&random_lake, random_targets}};
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [lake, targets] = cases[i];
    core::D3LEngine single;
    ASSERT_TRUE(single.IndexLake(*lake).ok());
    Deploy(*lake, "parity" + std::to_string(i));
    for (size_t k : {size_t{10}, size_t{100}}) {
      for (const Table& target : targets) {
        const std::string context =
            "lake " + std::to_string(i) + " k=" + std::to_string(k) + " " + target.name();
        auto expected = single.Search(target, k);
        auto actual = Run({subsets_[0].get(), subsets_[1].get()}, target, k);
        ASSERT_TRUE(expected.ok());
        ASSERT_TRUE(actual.ok()) << context << ": " << actual.status().ToString();
        ExpectIdenticalResults(*expected, *actual, context);
        EXPECT_EQ(testutil::SearchResultBytes(*actual),
                  testutil::SearchResultBytes(*expected))
            << context;
      }
    }
  }
}

TEST_F(CoordinatorTest, MalformedRepliesFailCleanlyAndNameTheEndpoint) {
  const DataLake lake = MakeTieLake();
  Deploy(lake, "malformed");
  const Table target = testutil::FigureTarget();
  using Counts = core::CandidateDepthCounts;
  using Score = serving::ShardScore;
  constexpr uint32_t kFarAttribute = 50000000;
  const auto first_consulted = [](Counts& counts) -> std::vector<size_t>& {
    for (auto& per_evidence : counts.counts) {
      for (std::vector<size_t>& depths : per_evidence) {
        if (!depths.empty()) return depths;
      }
    }
    ADD_FAILURE() << "no index consulted";
    return counts.counts[0][0];
  };
  struct Case {
    std::string name;
    CorruptingEndpoint::CountsFn counts;
    CorruptingEndpoint::ScoreFn score;
    std::string expect;  ///< substring of the error message
  };
  const std::vector<Case> cases = {
      {"depth counts one column short",
       [](Counts c) -> Result<Counts> {
         c.counts.pop_back();
         return c;
       },
       nullptr, "columns"},
      {"depth counts one depth longer",
       [&](Counts c) -> Result<Counts> {
         first_consulted(c).push_back(1);
         return c;
       },
       nullptr, "differ in length"},
      {"candidate lists one column short", nullptr,
       [](Score s) -> Result<Score> {
         s.lists.ids.pop_back();
         return s;
       },
       "columns"},
      {"list and rows name attribute 50,000,000", nullptr,
       [&](Score s) -> Result<Score> {
         s.lists.ids[0][0].push_back(kFarAttribute);
         core::PairDistances row;
         row.attribute_id = kFarAttribute;
         s.rows.push_back(row);
         return s;
       },
       "out of range"},
      {"row for an out-of-range column", nullptr,
       [](Score s) -> Result<Score> {
         core::PairDistances row;
         row.target_column = 99;
         s.rows.push_back(row);
         return s;
       },
       "out of range"},
      {"a selected candidate's row is missing", nullptr,
       [](Score s) -> Result<Score> {
         s.rows.pop_back();
         return s;
       },
       "no row"},
      {"a selected candidate's row is duplicated", nullptr,
       [](Score s) -> Result<Score> {
         s.rows.push_back(s.rows.front());
         return s;
       },
       "second row"},
  };

  // Uncorrupted, the wrapper answers exactly.
  {
    const CorruptingEndpoint clean(subsets_[1].get(), nullptr, nullptr);
    auto expected = Run({subsets_[0].get(), subsets_[1].get()}, target, 10);
    auto actual = Run({subsets_[0].get(), &clean}, target, 10);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(testutil::SearchResultBytes(*actual), testutil::SearchResultBytes(*expected));
  }
  for (const Case& c : cases) {
    const CorruptingEndpoint bad(subsets_[1].get(), c.counts, c.score);
    auto result = Run({subsets_[0].get(), &bad}, target, 10);
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_TRUE(result.status().IsIOError()) << c.name << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find("corrupted shards 1,2"), std::string::npos)
        << c.name << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find(c.expect), std::string::npos)
        << c.name << ": " << result.status().ToString();
  }

  // An endpoint's own error passes through unchanged, in either phase.
  const CorruptingEndpoint down_at_counts(
      subsets_[1].get(),
      [](Counts) -> Result<Counts> { return Status::Unavailable("server gone"); }, nullptr);
  const CorruptingEndpoint down_at_score(
      subsets_[1].get(), nullptr,
      [](Score) -> Result<Score> { return Status::Unavailable("server gone"); });
  for (const serving::ShardEndpoint* down : {&down_at_counts, &down_at_score}) {
    auto result = Run({subsets_[0].get(), down}, target, 10);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
    EXPECT_EQ(result.status().message(), "server gone");
  }
}

// -------------------------------------------------------- manifest damage

class ShardDamageTest : public ServingTest {
 protected:
  std::string BuildSet(size_t num_shards = 3) {
    lake_ = MakeTieLake();
    serving::ShardingOptions options;
    options.num_shards = num_shards;
    auto report = serving::BuildShards(lake_, options, Base("victim"));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    report_ = *report;
    return report_.manifest_path;
  }

  DataLake lake_;
  serving::ShardBuildReport report_;
};

TEST_F(ShardDamageTest, MissingShardFileFailsCleanly) {
  std::string manifest = BuildSet();
  fs::remove(report_.shard_paths[1]);
  auto opened = serving::ShardedEngine::Open(manifest);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound()) << opened.status().ToString();
}

TEST_F(ShardDamageTest, CorruptShardFileFailsChecksum) {
  std::string manifest = BuildSet();
  // Flip one byte in the middle of shard 2's snapshot.
  std::fstream f(report_.shard_paths[2],
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(size / 2);
  char c;
  f.seekg(size / 2);
  f.get(c);
  f.seekp(size / 2);
  f.put(static_cast<char>(c ^ 0x20));
  f.close();

  auto opened = serving::ShardedEngine::Open(manifest);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());
  EXPECT_NE(opened.status().message().find("checksum"), std::string::npos)
      << opened.status().ToString();

  // With verification off, the per-section CRCs of the snapshot reader
  // still catch the damage at load time.
  serving::ShardedEngineOptions no_verify;
  no_verify.verify_checksums = false;
  EXPECT_FALSE(serving::ShardedEngine::Open(manifest, no_verify).ok());
}

TEST_F(ShardDamageTest, CorruptManifestSectionLengthFailsCleanly) {
  std::string manifest = BuildSet();
  // Byte 23 is the top byte of the first section's payload length (after
  // the 12-byte header, a 4-byte id and 7 low length bytes): the buffered
  // reader must reject the length before allocating for it.
  std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  char c;
  f.seekg(23);
  f.get(c);
  f.seekp(23);
  f.put(static_cast<char>(c ^ 0x40));
  f.close();

  auto loaded = serving::ShardManifest::Load(manifest);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
  auto opened = serving::ShardedEngine::Open(manifest);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();
}

TEST_F(ShardDamageTest, ShardCountMismatchFailsValidation) {
  std::string manifest_path = BuildSet();
  auto manifest = serving::ShardManifest::Load(manifest_path);
  ASSERT_TRUE(manifest.ok());
  // Drop a shard: its tables are no longer covered.
  serving::ShardManifest truncated = *manifest;
  truncated.shards.pop_back();
  EXPECT_TRUE(truncated.Validate().IsInvalidArgument());
  EXPECT_TRUE(truncated.Save(Base("truncated.manifest")).IsInvalidArgument());

  // Duplicate coverage is rejected too.
  serving::ShardManifest duplicated = *manifest;
  duplicated.shards[0].global_tables = duplicated.shards[1].global_tables;
  duplicated.shards[0].num_tables = duplicated.shards[1].num_tables;
  EXPECT_TRUE(duplicated.Validate().IsInvalidArgument());
}

TEST_F(ShardDamageTest, ShardContentsMustMatchManifestCounts) {
  std::string manifest_path = BuildSet();
  auto manifest = serving::ShardManifest::Load(manifest_path);
  ASSERT_TRUE(manifest.ok());
  // Point shard 0's entry at shard 1's file (both valid snapshots, but the
  // table sets disagree with the manifest's global mapping). Size/CRC are
  // patched to shard 1's so only the content check can catch it.
  serving::ShardManifest swapped = *manifest;
  swapped.shards[0].file = swapped.shards[1].file;
  swapped.shards[0].file_bytes = swapped.shards[1].file_bytes;
  swapped.shards[0].file_crc32 = swapped.shards[1].file_crc32;
  const std::string path = Base("swapped.manifest");
  ASSERT_TRUE(swapped.Save(path).ok());
  auto opened = serving::ShardedEngine::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();
}

TEST_F(ShardDamageTest, SwappedSameShapedShardFilesAreRejected) {
  // Four byte-identical tables (distinct names) round-robined into two
  // shards of identical shape: swapping the shard files leaves every
  // count and even the file checksums consistent with the (also swapped)
  // entries, so only the schema fingerprint can detect the mix-up.
  DataLake lake;
  for (int i = 0; i < 4; ++i) {
    Table t = testutil::FigureS2();
    t.set_name("clone_" + std::to_string(i));
    lake.AddTable(std::move(t)).CheckOK();
  }
  serving::ShardingOptions options;
  options.num_shards = 2;
  options.balance = serving::ShardingOptions::Balance::kRoundRobin;
  auto report = serving::BuildShards(lake, options, Base("same_shape"));
  ASSERT_TRUE(report.ok());

  auto manifest = serving::ShardManifest::Load(report->manifest_path);
  ASSERT_TRUE(manifest.ok());
  serving::ShardManifest swapped = *manifest;
  std::swap(swapped.shards[0].file, swapped.shards[1].file);
  std::swap(swapped.shards[0].file_bytes, swapped.shards[1].file_bytes);
  std::swap(swapped.shards[0].file_crc32, swapped.shards[1].file_crc32);
  const std::string path = Base("same_shape_swapped.manifest");
  ASSERT_TRUE(swapped.Save(path).ok());

  auto opened = serving::ShardedEngine::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("does not contain the tables"),
            std::string::npos)
      << opened.status().ToString();
}

TEST_F(ShardDamageTest, ForeignFileIsNotAManifest) {
  std::string snapshot = Base("plain.d3l");
  core::D3LEngine engine;
  DataLake lake = testutil::FigureLake(2);
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  ASSERT_TRUE(engine.SaveSnapshot(snapshot).ok());
  auto opened = serving::ShardedEngine::Open(snapshot);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
}

// ----------------------------------------------------------- inspection

TEST_F(ServingTest, InspectFileListsSectionsAndDetectsDamage) {
  DataLake lake = testutil::FigureLake(2);
  core::D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  const std::string path = Base("inspect.d3l");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  auto info = io::InspectFile(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->magic, std::string(core::D3LEngine::kSnapshotMagic, 8));
  EXPECT_EQ(info->version, core::D3LEngine::kSnapshotVersion);
  ASSERT_EQ(info->sections.size(), 4u);
  EXPECT_EQ(io::SectionName(info->sections[0].id), "OPTS");
  EXPECT_EQ(io::SectionName(info->sections[2].id), "INDX");
  for (const io::SectionInfo& s : info->sections) EXPECT_TRUE(s.crc_ok);
  EXPECT_EQ(info->file_bytes, fs::file_size(path));

  // Snapshot metadata without loading indexes.
  auto snap = core::D3LEngine::ReadSnapshotInfo(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_tables, lake.size());
  EXPECT_EQ(snap->num_attributes, engine.indexes().num_attributes());

  // A bit flip inside a payload flips exactly that section's crc_ok.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);  // inside the OPTS payload
  f.put('\x7f');
  f.close();
  auto damaged = io::InspectFile(path);
  ASSERT_TRUE(damaged.ok());
  EXPECT_FALSE(damaged->sections[0].crc_ok);
  EXPECT_TRUE(damaged->sections[2].crc_ok);
}

}  // namespace
}  // namespace d3l
