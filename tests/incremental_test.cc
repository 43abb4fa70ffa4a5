// Incremental shard re-profiling (serving::UpdateShards): diffs against
// the v2 manifest's recorded source identities must rebuild exactly the
// affected shards, and — the core property — the updated deployment's
// Search results must be byte-identical to a from-scratch BuildShards over
// the new lake at the same placement, after adds, removes, edits and
// no-ops. Also covers v1 manifest compatibility, manifest path-traversal
// rejection, staleness checking and the crash-safety of the write paths.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/query.h"
#include "io/binary_io.h"
#include "serving/discovery_service.h"
#include "serving/manifest.h"
#include "serving/search_backend.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "table/csv.h"
#include "table/lake.h"
#include "tests/test_util.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

void ExpectIdenticalResults(const core::SearchResult& expected,
                            const core::SearchResult& actual,
                            const std::string& context) {
  ASSERT_EQ(actual.ranked.size(), expected.ranked.size()) << context;
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    const core::TableMatch& e = expected.ranked[i];
    const core::TableMatch& a = actual.ranked[i];
    EXPECT_EQ(a.table_index, e.table_index) << context << " rank " << i;
    // Bitwise equality: a reused shard must reproduce the fresh build's
    // floating-point work exactly.
    EXPECT_EQ(a.distance, e.distance) << context << " rank " << i;
    EXPECT_EQ(a.evidence_distances, e.evidence_distances) << context << " rank " << i;
    ASSERT_EQ(a.pairs.size(), e.pairs.size()) << context << " rank " << i;
    for (size_t p = 0; p < e.pairs.size(); ++p) {
      EXPECT_EQ(a.pairs[p].target_column, e.pairs[p].target_column) << context;
      EXPECT_EQ(a.pairs[p].attribute_id, e.pairs[p].attribute_id) << context;
      EXPECT_EQ(a.pairs[p].d, e.pairs[p].d) << context;
    }
  }
  ASSERT_EQ(actual.candidate_alignments.size(), expected.candidate_alignments.size())
      << context;
  for (const auto& [table, aligns] : expected.candidate_alignments) {
    auto it = actual.candidate_alignments.find(table);
    ASSERT_NE(it, actual.candidate_alignments.end()) << context;
    EXPECT_EQ(it->second, aligns) << context;
  }
}

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent runs (e.g. a default and a sanitizer tree
    // testing side by side) out of each other's directories.
    dir_ = fs::temp_directory_path() /
           ("d3l_incremental_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    csv_dir_ = dir_ / "lake";
    fs::create_directories(csv_dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Base(const std::string& name) const { return (dir_ / name).string(); }

  /// Populates the CSV directory with the Figure-1 tables plus fillers —
  /// enough distinct tables for 3 shards with room to add/remove.
  void WriteLakeCsvs() {
    WriteCsv(testutil::FigureS1());
    WriteCsv(testutil::FigureS2());
    WriteCsv(testutil::FigureS3());
    for (int salt = 0; salt < 2; ++salt) {
      WriteCsv(testutil::FillerColors(salt));
      WriteCsv(testutil::FillerInventory(salt));
      WriteCsv(testutil::FillerWeather(salt));
    }
  }

  void WriteCsv(const Table& t) {
    WriteCsvFile(t, (csv_dir_ / (t.name() + ".csv")).string()).CheckOK();
  }

  DataLake LoadLake() const {
    DataLake lake;
    lake.LoadDirectory(csv_dir_.string()).CheckOK();
    return lake;
  }

  /// The property the tentpole promises: after UpdateShards, opening the
  /// updated deployment and a from-scratch BuildShards at the SAME
  /// placement yields byte-identical rankings for every lake table used as
  /// a target.
  void ExpectEquivalentToFreshBuild(const DataLake& lake,
                                    const serving::ShardingOptions& options,
                                    const std::string& updated_base,
                                    const serving::ShardPlan& plan,
                                    const std::string& context) {
    auto fresh =
        serving::BuildShards(lake, options, Base("fresh_" + context), &plan);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    auto updated_open =
        serving::ShardedEngine::Open(serving::ManifestPath(updated_base));
    ASSERT_TRUE(updated_open.ok()) << updated_open.status().ToString();
    auto fresh_open = serving::ShardedEngine::Open(fresh->manifest_path);
    ASSERT_TRUE(fresh_open.ok()) << fresh_open.status().ToString();

    for (size_t t = 0; t < lake.size(); ++t) {
      auto expected = (*fresh_open)->Search(lake.table(t), 5);
      auto actual = (*updated_open)->Search(lake.table(t), 5);
      ASSERT_TRUE(expected.ok() && actual.ok()) << context;
      ExpectIdenticalResults(*expected, *actual,
                             context + " target " + lake.table(t).name());
    }
  }

  fs::path dir_;
  fs::path csv_dir_;
};

TEST_F(IncrementalTest, NoOpUpdateReusesEveryShardAndKeepsFingerprint) {
  WriteLakeCsvs();
  DataLake lake = LoadLake();
  serving::ShardingOptions options;
  options.num_shards = 3;
  ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  auto before = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(before.ok());
  const uint64_t fp_before = (*before)->Info().index_fingerprint;

  DataLake reloaded = LoadLake();
  auto report = serving::UpdateShards(reloaded, options, Base("dep"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->rebuilt_shards.empty());
  EXPECT_EQ(report->shards_reused, 3u);
  EXPECT_TRUE(report->added.empty());
  EXPECT_TRUE(report->removed.empty());
  EXPECT_TRUE(report->changed.empty());

  // Nothing changed, so the rewritten manifest digests identically: cached
  // results stay valid across a no-op update.
  auto after = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->Info().index_fingerprint, fp_before);
  ExpectEquivalentToFreshBuild(reloaded, options, Base("dep"), report->plan, "noop");
}

TEST_F(IncrementalTest, EditOneTableRebuildsOnlyItsShardAndFlipsFingerprint) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 3;
  {
    DataLake lake = LoadLake();
    ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  }
  auto before = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(before.ok());
  const uint64_t fp_before = (*before)->Info().index_fingerprint;

  // Edit one CSV in place: append a row to S2.
  Table s2 = testutil::FigureS2();
  ASSERT_TRUE(s2.AddRow({"Zed Practice", "Zedville", "ZZ1 1ZZ", "123"}).ok());
  WriteCsv(s2);

  DataLake lake = LoadLake();
  auto report = serving::UpdateShards(lake, options, Base("dep"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->rebuilt_shards.size(), 1u);
  EXPECT_EQ(report->shards_reused, 2u);
  EXPECT_EQ(report->changed, std::vector<std::string>{"s2_gp_funding.csv"});
  EXPECT_TRUE(report->added.empty());
  EXPECT_TRUE(report->removed.empty());
  // The rebuilt shard is the one whose plan contains the edited table.
  const int edited = lake.TableIndex(s2.name());
  ASSERT_GE(edited, 0);
  const auto& rebuilt_tables = report->plan[report->rebuilt_shards[0]];
  EXPECT_TRUE(std::find(rebuilt_tables.begin(), rebuilt_tables.end(),
                        static_cast<uint32_t>(edited)) != rebuilt_tables.end());

  auto after = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE((*after)->Info().index_fingerprint, fp_before);
  ExpectEquivalentToFreshBuild(lake, options, Base("dep"), report->plan, "edit");
}

TEST_F(IncrementalTest, AddAndRemoveTablesRebuildOnlyAffectedShards) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 3;
  options.balance = serving::ShardingOptions::Balance::kRoundRobin;
  {
    DataLake lake = LoadLake();
    ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  }

  // Add a brand-new table and remove an existing one in the same update.
  WriteCsv(testutil::FillerColors(7));
  fs::remove(csv_dir_ / "filler_weather_1.csv");

  // The update is called with DEFAULT options (size-balanced): the
  // deployment's recorded round-robin policy must win, not the caller's.
  DataLake lake = LoadLake();
  auto report = serving::UpdateShards(lake, serving::ShardingOptions{}, Base("dep"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto manifest = serving::ShardManifest::Load(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->balance, "round-robin");
  EXPECT_EQ(report->added, std::vector<std::string>{"filler_colors_7.csv"});
  EXPECT_EQ(report->removed, std::vector<std::string>{"filler_weather_1.csv"});
  EXPECT_TRUE(report->changed.empty());
  // At most two shards can be affected (the gainer and the loser; possibly
  // the same one), and at least one must have been reused.
  EXPECT_LE(report->rebuilt_shards.size(), 2u);
  EXPECT_GE(report->shards_reused, 1u);
  EXPECT_EQ(report->rebuilt_shards.size() + report->shards_reused, 3u);

  ExpectEquivalentToFreshBuild(lake, options, Base("dep"), report->plan, "addrm");
}

TEST_F(IncrementalTest, InMemoryEditOfLoadedTableDiffsAsChanged) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 3;
  {
    DataLake lake = LoadLake();
    ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  }

  // Mutate a CSV-loaded table in memory (no file touched): AddRow clears
  // the load-time source identity, so the diff must see the divergence
  // as a content change — never reuse the stale shard.
  DataLake lake = LoadLake();
  const int edited = lake.TableIndex("s3_local_gps");
  ASSERT_GE(edited, 0);
  ASSERT_TRUE(lake.table(edited).AddRow({"In-Memory GP", "Nowhere", "00:00-00:00"}).ok());

  auto report = serving::UpdateShards(lake, options, Base("dep"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->changed, std::vector<std::string>{"s3_local_gps.csv"});
  ASSERT_EQ(report->rebuilt_shards.size(), 1u);
  EXPECT_EQ(report->shards_reused, 2u);
  ExpectEquivalentToFreshBuild(lake, options, Base("dep"), report->plan, "inmem");
}

TEST_F(IncrementalTest, UpdatedDeploymentInvalidatesResultCacheKeys) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 2;
  {
    DataLake lake = LoadLake();
    ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  }
  auto before = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(before.ok());

  Table s3 = testutil::FigureS3();
  ASSERT_TRUE(s3.AddRow({"UCL Extra", "London", "10:00-12:00"}).ok());
  WriteCsv(s3);
  DataLake lake = LoadLake();
  ASSERT_TRUE(serving::UpdateShards(lake, options, Base("dep")).ok());
  auto after = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(after.ok());

  // Identical query, identical options — but the index fingerprint folded
  // into every cache key changed with the rebuilt shard, so entries cached
  // against the old deployment can never serve the new one.
  serving::DiscoveryServiceOptions service_options;
  service_options.inline_execution = true;
  serving::DiscoveryService service_before(before->get(), service_options);
  serving::DiscoveryService service_after(after->get(), service_options);
  const Table target = testutil::FigureS1();
  const auto mask = (*before)->options().enabled;
  serving::CacheKey key_before = service_before.KeyFor(target, 5, mask);
  serving::CacheKey key_after = service_after.KeyFor(target, 5, mask);
  EXPECT_FALSE(key_before == key_after);
}

TEST_F(IncrementalTest, V1ManifestLoadsAndServesButRefusesUpdate) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 2;
  DataLake lake = LoadLake();
  ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  auto loaded = serving::ShardManifest::Load(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->version, serving::ShardManifest::kVersion);
  EXPECT_TRUE(loaded->has_source_identity());

  // Rewrite the manifest in the v1 layout (no source identities) — the
  // bytes a pre-incremental builder would have produced.
  const std::string v1_path = serving::ManifestPath(Base("dep"));
  {
    io::Writer w;
    ASSERT_TRUE(w.Open(v1_path, serving::ShardManifest::kMagic, 1).ok());
    w.BeginSection(io::SectionId("MANF"));
    w.WriteU64(loaded->total_tables);
    w.WriteU64(loaded->total_attributes);
    w.WriteString(loaded->balance);
    w.WriteU64(loaded->shards.size());
    for (const serving::ShardManifestEntry& e : loaded->shards) {
      w.WriteString(e.file);
      w.WriteU64(e.file_bytes);
      w.WriteU32(e.file_crc32);
      w.WriteU32(e.schema_crc32);
      w.WriteU64(e.num_tables);
      w.WriteU64(e.num_attributes);
      w.WriteU64(e.global_tables.size());
      for (uint32_t g : e.global_tables) w.WriteU32(g);
    }
    ASSERT_TRUE(w.Finish().ok());
  }

  // v1 still loads and serves (read-only compatibility)...
  auto v1 = serving::ShardManifest::Load(v1_path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->version, 1u);
  EXPECT_FALSE(v1->has_source_identity());
  auto opened = serving::ShardedEngine::Open(v1_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->Search(lake.table(0), 3).ok());

  // ...but cannot be updated incrementally: no recorded sources to diff.
  auto update = serving::UpdateShards(lake, options, Base("dep"));
  ASSERT_FALSE(update.ok());
  EXPECT_TRUE(update.status().IsInvalidArgument());

  // Staleness checks need sources too.
  EXPECT_FALSE(serving::CheckFreshness(*v1, csv_dir_.string()).ok());
}

TEST_F(IncrementalTest, ValidateRejectsEscapingShardFilenames) {
  WriteLakeCsvs();
  DataLake lake = LoadLake();
  serving::ShardingOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  auto manifest = serving::ShardManifest::Load(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(manifest.ok());

  for (const std::string& evil :
       {std::string("/abs/path/shard0.d3l"), std::string("../escape.d3l"),
        std::string("sub/../../escape.d3l")}) {
    serving::ShardManifest tampered = *manifest;
    tampered.shards[0].file = evil;
    Status validated = tampered.Validate();
    EXPECT_FALSE(validated.ok()) << evil;
    EXPECT_TRUE(validated.IsInvalidArgument()) << evil;
    // A hand-edited manifest on disk is rejected at Load (Validate runs
    // before any path is resolved), so Open never touches the target.
    const std::string tampered_path = Base("tampered.manifest");
    // Bypass Save's own validation by writing the tampered bytes directly.
    io::Writer w;
    ASSERT_TRUE(w.Open(tampered_path, serving::ShardManifest::kMagic,
                       serving::ShardManifest::kVersion)
                    .ok());
    w.BeginSection(io::SectionId("MANF"));
    w.WriteU64(tampered.total_tables);
    w.WriteU64(tampered.total_attributes);
    w.WriteString(tampered.balance);
    w.WriteU64(tampered.shards.size());
    for (const serving::ShardManifestEntry& e : tampered.shards) {
      w.WriteString(e.file);
      w.WriteU64(e.file_bytes);
      w.WriteU32(e.file_crc32);
      w.WriteU32(e.schema_crc32);
      w.WriteU64(e.num_tables);
      w.WriteU64(e.num_attributes);
      w.WriteU64(e.global_tables.size());
      for (uint32_t g : e.global_tables) w.WriteU32(g);
      w.WriteU64(e.sources.size());
      for (const TableSource& src : e.sources) {
        w.WriteString(src.file);
        w.WriteU64(src.bytes);
        w.WriteU32(src.crc32);
      }
    }
    ASSERT_TRUE(w.Finish().ok());
    EXPECT_FALSE(serving::ShardManifest::Load(tampered_path).ok()) << evil;
    EXPECT_FALSE(serving::ShardedEngine::Open(tampered_path).ok()) << evil;
  }

  // Source filenames are held to the same rule: CheckFreshness resolves
  // them against a caller-supplied directory.
  serving::ShardManifest bad_source = *manifest;
  bad_source.shards[0].sources[0].file = "../../etc/passwd";
  Status bad = bad_source.Validate();
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsInvalidArgument());

  // Plain relative subdirectories remain legal.
  serving::ShardManifest nested = *manifest;
  nested.shards[0].file = "sub/dir/shard0.d3l";
  EXPECT_TRUE(nested.Validate().ok());
}

TEST_F(IncrementalTest, UpdateRefusesOptionsDriftAndEmptyShards) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 2;
  DataLake lake = LoadLake();
  ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());

  // Different engine options would make reused and rebuilt shards rank
  // differently — refused while any shard would be reused.
  serving::ShardingOptions drifted = options;
  drifted.engine.candidates_per_attribute += 16;
  auto drift = serving::UpdateShards(lake, drifted, Base("dep"));
  ASSERT_FALSE(drift.ok());
  EXPECT_TRUE(drift.status().IsInvalidArgument());

  // A two-table lake across two shards: removing one empties its shard.
  fs::path tiny_dir = dir_ / "tiny";
  fs::create_directories(tiny_dir);
  WriteCsvFile(testutil::FigureS1(), (tiny_dir / "a.csv").string()).CheckOK();
  WriteCsvFile(testutil::FigureS2(), (tiny_dir / "b.csv").string()).CheckOK();
  DataLake tiny;
  tiny.LoadDirectory(tiny_dir.string()).CheckOK();
  ASSERT_TRUE(serving::BuildShards(tiny, options, Base("tiny")).ok());
  fs::remove(tiny_dir / "b.csv");
  DataLake shrunk;
  shrunk.LoadDirectory(tiny_dir.string()).CheckOK();
  auto emptied = serving::UpdateShards(shrunk, options, Base("tiny"));
  ASSERT_FALSE(emptied.ok());
  EXPECT_TRUE(emptied.status().IsInvalidArgument());
}

TEST_F(IncrementalTest, FailedMidUpdateLeavesOldDeploymentServeable) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 3;
  {
    DataLake lake = LoadLake();
    ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  }
  auto before = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(before.ok());
  const uint64_t fp_before = (*before)->Info().index_fingerprint;
  const Table target = testutil::FigureTarget();
  auto expected = (*before)->Search(target, 5);
  ASSERT_TRUE(expected.ok());

  // Dirty one shard, then sabotage every staged write path: a non-empty
  // directory squatting on StagedShardPath makes the atomic temp->staged
  // rename fail, so the rebuild aborts before anything is committed.
  Table s2 = testutil::FigureS2();
  ASSERT_TRUE(s2.AddRow({"Doomed Practice", "Nowhere", "XX1 1XX", "1"}).ok());
  WriteCsv(s2);
  for (size_t s = 0; s < 3; ++s) {
    const fs::path block = serving::StagedShardPath(Base("dep"), s);
    fs::create_directories(block / "occupied");
  }

  DataLake lake = LoadLake();
  auto update = serving::UpdateShards(lake, options, Base("dep"));
  ASSERT_FALSE(update.ok());

  // The old manifest still loads with its fingerprint intact, and the old
  // deployment opens and answers byte-identically to before the attempt.
  auto manifest = serving::ShardManifest::Load(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  auto after = serving::ShardedEngine::Open(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->Info().index_fingerprint, fp_before);
  auto served = (*after)->Search(target, 5);
  ASSERT_TRUE(served.ok());
  ExpectIdenticalResults(*expected, *served, "after failed update");

  // Unblock the staged paths: the rerun succeeds and converges on the
  // equivalence guarantee.
  for (size_t s = 0; s < 3; ++s) {
    fs::remove_all(serving::StagedShardPath(Base("dep"), s));
  }
  auto retry = serving::UpdateShards(lake, options, Base("dep"));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ExpectEquivalentToFreshBuild(lake, options, Base("dep"), retry->plan, "retry");
}

TEST_F(IncrementalTest, CheckFreshnessClassifiesUnreadableSources) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 3;
  DataLake lake = LoadLake();
  ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  auto manifest = serving::ShardManifest::Load(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(manifest.ok());

  // Replace a recorded source with a same-named directory: the path
  // exists but its checksums cannot be verified — that is "unreadable",
  // not "missing" (deleted) and never silently "fresh".
  fs::remove(csv_dir_ / "filler_colors_0.csv");
  fs::create_directories(csv_dir_ / "filler_colors_0.csv");

  auto view = serving::CheckFreshness(*manifest, csv_dir_.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  size_t unreadable = 0, missing = 0, changed = 0, stale_shards = 0;
  for (const serving::ShardFreshness& f : view->shards) {
    unreadable += f.unreadable;
    missing += f.missing;
    changed += f.changed;
    if (!f.fresh()) ++stale_shards;
  }
  EXPECT_EQ(unreadable, 1u);
  EXPECT_EQ(missing, 0u);
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(stale_shards, 1u);
  // The squatting directory is not a regular .csv file, so it must not
  // surface as a new lake member either.
  EXPECT_TRUE(view->new_files.empty());
}

TEST_F(IncrementalTest, CheckFreshnessReportsPerShardStaleness) {
  WriteLakeCsvs();
  serving::ShardingOptions options;
  options.num_shards = 3;
  DataLake lake = LoadLake();
  ASSERT_TRUE(serving::BuildShards(lake, options, Base("dep")).ok());
  auto manifest = serving::ShardManifest::Load(serving::ManifestPath(Base("dep")));
  ASSERT_TRUE(manifest.ok());

  // Untouched directory: everything fresh, nothing new.
  auto fresh = serving::CheckFreshness(*manifest, csv_dir_.string());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(fresh->shards.size(), 3u);
  for (const serving::ShardFreshness& f : fresh->shards) {
    EXPECT_TRUE(f.fresh());
    EXPECT_GT(f.tables, 0u);
  }
  EXPECT_TRUE(fresh->new_files.empty());

  // Edit one file, delete another, add a third.
  Table s1 = testutil::FigureS1();
  ASSERT_TRUE(s1.AddRow({"New Surgery", "1 New St", "Leeds", "LS1 1AA", "500"}).ok());
  WriteCsv(s1);
  fs::remove(csv_dir_ / "filler_colors_0.csv");
  WriteCsv(testutil::FillerInventory(9));

  auto stale = serving::CheckFreshness(*manifest, csv_dir_.string());
  ASSERT_TRUE(stale.ok());
  size_t changed = 0, missing = 0;
  for (const serving::ShardFreshness& f : stale->shards) {
    changed += f.changed;
    missing += f.missing;
  }
  EXPECT_EQ(changed, 1u);
  EXPECT_EQ(missing, 1u);
  EXPECT_EQ(stale->new_files, std::vector<std::string>{"filler_inventory_9.csv"});
}

}  // namespace
}  // namespace d3l
