// Pins the engine's rankings to fixed bytes.
//
// The exactness suites (serving, remote, reload, snapshot) compare two
// query paths of the same build, so a change to the shared hot path — the
// KS kernel, the Algorithm-2 guards, the forest lookups — that shifts a
// distance or a tie order moves both sides alike and passes them. This
// suite hashes the SaveSearchResult bytes of fixed seeded queries on a small
// generated lake and compares the hash with a recorded constant. A change
// that is meant to alter rankings must re-record the constants and say why.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchdata/realish_gen.h"
#include "common/hash.h"
#include "core/query.h"
#include "io/binary_io.h"

namespace d3l::core {
namespace {

constexpr size_t kLakeTables = 200;
constexpr uint64_t kLakeSeed = 20200420;

/// Hash of the SaveSearchResult bytes of one result.
uint64_t ResultHash(const SearchResult& result) {
  std::string bytes;
  io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(io::SectionId("SRES"));
  SaveSearchResult(w, result);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return HashBytes(bytes.data(), bytes.size());
}

/// The paper's query shape: a table's schema plus `rows` exemplar tuples,
/// spread evenly over the table.
Table ExemplarTarget(const Table& table, size_t rows) {
  std::vector<size_t> picks;
  const size_t n = table.num_rows();
  const size_t take = std::min(rows, n);
  for (size_t i = 0; i < take; ++i) picks.push_back(i * n / take);
  return table.SelectRows(picks, table.name());
}

class RankingPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto generated =
        benchdata::GenerateRealish(benchdata::LargerRealOptions(kLakeTables, kLakeSeed));
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    lake_ = std::make_unique<DataLake>(std::move(generated->lake));
    D3LOptions options;
    options.num_threads = 2;
    engine_ = std::make_unique<D3LEngine>(options);
    ASSERT_TRUE(engine_->IndexLake(*lake_).ok());
  }

  static void TearDownTestSuite() {
    engine_.reset();
    lake_.reset();
  }

  /// Folds the result hashes of `targets` searched at k into one value,
  /// printing each query's hash so a mismatch names the first query that
  /// drifted.
  static uint64_t HashQueries(const std::vector<Table>& targets, size_t k) {
    uint64_t folded = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      auto result = engine_->Search(targets[i], k);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      const uint64_t h = ResultHash(*result);
      std::printf("query %zu (%s, k=%zu): %016llx\n", i, targets[i].name().c_str(), k,
                  static_cast<unsigned long long>(h));
      folded = HashCombine(folded, h);
    }
    return folded;
  }

  static std::unique_ptr<DataLake> lake_;
  static std::unique_ptr<D3LEngine> engine_;
};

std::unique_ptr<DataLake> RankingPinTest::lake_;
std::unique_ptr<D3LEngine> RankingPinTest::engine_;

TEST_F(RankingPinTest, LakeShapeIsPinned) {
  // The constants below are only meaningful over the same lake.
  EXPECT_EQ(lake_->size(), 223u);
  EXPECT_EQ(engine_->indexes().num_attributes(), 1065u);
}

TEST_F(RankingPinTest, ExemplarTargetsAtK100) {
  std::vector<Table> targets;
  for (size_t t = 0; t < lake_->size(); t += 4) {
    targets.push_back(ExemplarTarget(lake_->table(t), 5));
  }
  EXPECT_EQ(HashQueries(targets, 100), 0x10b8f7a356ba71ddull);
}

TEST_F(RankingPinTest, WholeTablesAtK10) {
  std::vector<Table> targets;
  for (size_t t = 1; t < lake_->size(); t += 8) targets.push_back(lake_->table(t));
  EXPECT_EQ(HashQueries(targets, 10), 0x96b0fabe2cb6a21dull);
}

}  // namespace
}  // namespace d3l::core
