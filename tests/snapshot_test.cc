// Snapshot persistence: binary Writer/Reader primitives, layer-by-layer
// Save/Load round trips, full-engine snapshot parity (a loaded engine must
// return byte-identical rankings), and clean Status failures on truncated,
// corrupt and version-mismatched files.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/join_graph.h"
#include "core/query.h"
#include "io/binary_io.h"
#include "lsh/lsh_ensemble.h"
#include "lsh/lsh_forest.h"
#include "table/lake.h"
#include "tests/test_util.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

constexpr char kTestMagic[9] = "D3LTEST\n";
constexpr uint32_t kId = io::SectionId("BODY");

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("d3l_snapshot_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

DataLake MakeFigureLake() {
  DataLake lake;
  lake.AddTable(testutil::FigureS1()).CheckOK();
  lake.AddTable(testutil::FigureS2()).CheckOK();
  lake.AddTable(testutil::FigureS3()).CheckOK();
  for (int salt = 0; salt < 3; ++salt) {
    lake.AddTable(testutil::FillerColors(salt)).CheckOK();
    lake.AddTable(testutil::FillerInventory(salt)).CheckOK();
  }
  return lake;
}

// ------------------------------------------------------------- primitives

// The bytewise CRC-32 loop that io::Crc32 replaced with slice-by-8, kept
// here as the reference the fast version must match.
uint32_t BytewiseCrc32(const void* data, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryShortLengthAndOffset) {
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);  // the standard check value
  const std::vector<unsigned char> bytes = RandomBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(io::Crc32(bytes.data() + offset, len),
                BytewiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnLargeBuffers) {
  for (size_t len : {size_t{1} << 20, (size_t{3} << 20) + 5}) {
    const std::vector<unsigned char> bytes = RandomBytes(len, len);
    EXPECT_EQ(io::Crc32(bytes.data(), len), BytewiseCrc32(bytes.data(), len)) << len;
  }
  std::ifstream in(std::string(D3L_TEST_DATA_DIR) + "/golden_v1.snap", std::ios::binary);
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(io::Crc32(golden.data(), golden.size()),
            BytewiseCrc32(golden.data(), golden.size()));
}

TEST(Crc32Test, AccumulatorOverRandomChunkSplitsMatchesOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(size_t{1} << 20, 3);
  const uint32_t want = BytewiseCrc32(bytes.data(), bytes.size());
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    io::Crc32Accumulator acc;
    size_t pos = 0;
    while (pos < bytes.size()) {
      // Mostly short chunks (odd tails, misaligned starts), some long ones.
      const size_t cap = rng() % 4 == 0 ? 100000 : 20;
      const size_t len = std::min<size_t>(rng() % (cap + 1), bytes.size() - pos);
      acc.Update(bytes.data() + pos, len);
      pos += len;
    }
    EXPECT_EQ(acc.Finish(), want) << "trial " << trial;
  }
}

TEST_F(SnapshotTest, WriterReaderPrimitivesRoundTrip) {
  const std::string path = Path("prims.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
  w.BeginSection(kId);
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-42);
  w.WriteBool(true);
  w.WriteDouble(-0.25);
  w.WriteString("hello, \0world");  // embedded NUL truncates the literal: fine
  w.WriteString("");
  w.WriteU64Vector({1, 2, 3});
  w.WriteDoubleVector({0.5, -1.5});
  w.WriteFloatVector({2.0f, -8.25f});
  ASSERT_TRUE(w.Finish().ok());

  io::Reader r;
  ASSERT_TRUE(r.Open(path, kTestMagic, 3).ok());
  ASSERT_TRUE(r.OpenSection(kId).ok());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI32(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), -0.25);
  EXPECT_EQ(r.ReadString(), "hello, ");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadU64Vector(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadDoubleVector(), (std::vector<double>{0.5, -1.5}));
  EXPECT_EQ(r.ReadFloatVector(), (std::vector<float>{2.0f, -8.25f}));
  EXPECT_TRUE(r.EndSection().ok());
  EXPECT_TRUE(r.status().ok());
}

TEST_F(SnapshotTest, ReaderRejectsWrongMagicAndVersion) {
  const std::string path = Path("magic.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
  w.BeginSection(kId);
  w.WriteU64(1);
  ASSERT_TRUE(w.Finish().ok());

  io::Reader wrong_version;
  Status s = wrong_version.Open(path, kTestMagic, 4);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("version"), std::string::npos);

  constexpr char kOtherMagic[9] = "NOTD3L!\n";
  io::Reader wrong_magic;
  EXPECT_TRUE(wrong_magic.Open(path, kOtherMagic, 3).IsInvalidArgument());

  io::Reader missing;
  EXPECT_TRUE(missing.Open(Path("nope.bin"), kTestMagic, 3).IsNotFound());
}

// --------------------------------------------------------- atomic writes

TEST_F(SnapshotTest, FinishPublishesAtomicallyAndLeavesNoTempFile) {
  const std::string path = Path("atomic.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
  // Until Finish, only the temp file exists: a crash here would leave the
  // target untouched.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".tmp"));
  w.BeginSection(kId);
  w.WriteU64(7);
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(SnapshotTest, AbandonedWriterLeavesPreviousFileIntact) {
  const std::string path = Path("durable.bin");
  {
    io::Writer w;
    ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
    w.BeginSection(kId);
    w.WriteU64(42);
    ASSERT_TRUE(w.Finish().ok());
  }
  {
    // A writer that dies mid-write (simulating a crash or error bail-out)
    // must neither clobber the published file nor leave its temp behind.
    io::Writer w;
    ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
    w.BeginSection(kId);
    w.WriteU64(999);
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  io::Reader r;
  ASSERT_TRUE(r.Open(path, kTestMagic, 3).ok());
  ASSERT_TRUE(r.OpenSection(kId).ok());
  EXPECT_EQ(r.ReadU64(), 42u);  // the old contents survived
}

TEST_F(SnapshotTest, ReaderAcceptsVersionRange) {
  const std::string path = Path("versioned.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
  w.BeginSection(kId);
  w.WriteU64(1);
  ASSERT_TRUE(w.Finish().ok());

  uint32_t found = 0;
  io::Reader in_range;
  ASSERT_TRUE(in_range.Open(path, kTestMagic, 2, 4, &found).ok());
  EXPECT_EQ(found, 3u);

  io::Reader below;
  Status s = below.Open(path, kTestMagic, 4, 6, &found);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("v4..v6"), std::string::npos);
}

TEST_F(SnapshotTest, ReaderDetectsOverreadAndBadLengths) {
  const std::string path = Path("short.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 3).ok());
  w.BeginSection(kId);
  w.WriteU32(7);
  // A length prefix claiming far more elements than the payload holds.
  w.WriteU64(uint64_t{1} << 60);
  ASSERT_TRUE(w.Finish().ok());

  io::Reader r;
  ASSERT_TRUE(r.Open(path, kTestMagic, 3).ok());
  ASSERT_TRUE(r.OpenSection(kId).ok());
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_TRUE(r.ReadU64Vector().empty());
  EXPECT_TRUE(r.status().IsOutOfRange());
  // The error latches: later reads keep failing, no crash.
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_FALSE(r.status().ok());

  io::Reader r2;
  ASSERT_TRUE(r2.Open(path, kTestMagic, 3).ok());
  ASSERT_TRUE(r2.OpenSection(kId).ok());
  (void)r2.ReadU32();
  EXPECT_FALSE(r2.EndSection().ok());  // unread bytes detected
}

// ----------------------------------------------------- layer round trips

TEST_F(SnapshotTest, LshForestRoundTripPreservesQueries) {
  MinHasher hasher(64, 99);
  LshForest forest;
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < 40; ++i) {
    std::set<std::string> s;
    for (int j = 0; j < 30; ++j) {
      s.insert("e" + std::to_string((i * 13 + j * 7) % 200));
    }
    sigs.push_back(hasher.Sign(s));
    forest.Insert(i, sigs.back());
  }
  forest.Index();

  const std::string path = Path("forest.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 1).ok());
  w.BeginSection(kId);
  forest.Save(w);
  ASSERT_TRUE(w.Finish().ok());

  io::Reader r;
  ASSERT_TRUE(r.Open(path, kTestMagic, 1).ok());
  ASSERT_TRUE(r.OpenSection(kId).ok());
  LshForest loaded = LshForest::Load(r);
  ASSERT_TRUE(r.status().ok());
  ASSERT_TRUE(r.EndSection().ok());

  EXPECT_EQ(loaded.size(), forest.size());
  EXPECT_EQ(loaded.num_trees(), forest.num_trees());
  for (const Signature& q : sigs) {
    EXPECT_EQ(loaded.Query(q, 10), forest.Query(q, 10));
    EXPECT_EQ(loaded.QueryAtDepth(q, 2), forest.QueryAtDepth(q, 2));
  }
}

TEST_F(SnapshotTest, LshEnsembleRoundTripPreservesContainmentQueries) {
  MinHasher hasher(128, 5);
  LshEnsembleOptions ensemble_options;
  ensemble_options.signature_size = 128;  // must match the hasher's k
  LshEnsemble ensemble(ensemble_options);
  std::vector<std::pair<Signature, size_t>> queries;
  for (uint32_t i = 0; i < 30; ++i) {
    std::set<std::string> s;
    size_t n = 10 + i * 7;  // skewed cardinalities
    for (size_t j = 0; j < n; ++j) s.insert("v" + std::to_string(j * (i % 5 + 1)));
    ensemble.Insert(i, hasher.Sign(s), s.size());
    if (i % 6 == 0) queries.emplace_back(hasher.Sign(s), s.size());
  }
  ensemble.Index();

  const std::string path = Path("ensemble.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 1).ok());
  w.BeginSection(kId);
  ensemble.Save(w);
  ASSERT_TRUE(w.Finish().ok());

  io::Reader r;
  ASSERT_TRUE(r.Open(path, kTestMagic, 1).ok());
  ASSERT_TRUE(r.OpenSection(kId).ok());
  LshEnsemble loaded = LshEnsemble::Load(r);
  ASSERT_TRUE(r.status().ok());
  ASSERT_TRUE(r.EndSection().ok());

  EXPECT_EQ(loaded.size(), ensemble.size());
  EXPECT_EQ(loaded.num_partitions(), ensemble.num_partitions());
  for (const auto& [sig, size] : queries) {
    EXPECT_EQ(loaded.QueryContainment(sig, size, 0.6),
              ensemble.QueryContainment(sig, size, 0.6));
  }
}

TEST_F(SnapshotTest, LakeMetadataRoundTrip) {
  DataLake lake = MakeFigureLake();
  const std::string path = Path("lake.bin");
  io::Writer w;
  ASSERT_TRUE(w.Open(path, kTestMagic, 1).ok());
  w.BeginSection(kId);
  lake.SaveMetadata(w);
  ASSERT_TRUE(w.Finish().ok());

  io::Reader r;
  ASSERT_TRUE(r.Open(path, kTestMagic, 1).ok());
  ASSERT_TRUE(r.OpenSection(kId).ok());
  DataLake loaded;
  ASSERT_TRUE(loaded.LoadMetadata(r).ok());
  ASSERT_TRUE(r.EndSection().ok());

  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_EQ(loaded.table(i).name(), lake.table(i).name());
    ASSERT_EQ(loaded.table(i).num_columns(), lake.table(i).num_columns());
    EXPECT_EQ(loaded.table(i).num_rows(), 0u);  // schema only, no cells
    for (size_t c = 0; c < lake.table(i).num_columns(); ++c) {
      EXPECT_EQ(loaded.table(i).column(c).name(), lake.table(i).column(c).name());
    }
    // Name lookup survives the round trip.
    EXPECT_EQ(loaded.TableIndex(lake.table(i).name()), static_cast<int>(i));
  }
}

// ------------------------------------------------- full-engine snapshot

TEST_F(SnapshotTest, LoadedEngineReturnsIdenticalRankings) {
  DataLake lake = MakeFigureLake();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());

  const std::string path = Path("engine.d3l");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  DataLake lake_metadata;
  auto loaded_result = core::D3LEngine::LoadSnapshot(path, &lake_metadata);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  auto loaded = std::move(loaded_result).ValueOrDie();

  // Registry and mapping parity.
  ASSERT_EQ(loaded->indexes().num_attributes(), built.indexes().num_attributes());
  for (uint32_t ti = 0; ti < lake.size(); ++ti) {
    EXPECT_EQ(loaded->subject_column(ti), built.subject_column(ti));
    for (uint32_t c = 0; c < lake.table(ti).num_columns(); ++c) {
      EXPECT_EQ(loaded->attribute_id(ti, c), built.attribute_id(ti, c));
    }
  }

  // Per-evidence lookup parity on every indexed signature.
  for (uint32_t id = 0; id < built.indexes().num_attributes(); ++id) {
    const auto& q = built.indexes().signatures(id);
    for (core::Evidence e :
         {core::Evidence::kName, core::Evidence::kValue, core::Evidence::kFormat,
          core::Evidence::kEmbedding}) {
      EXPECT_EQ(loaded->indexes().Lookup(e, q, 8), built.indexes().Lookup(e, q, 8));
      EXPECT_EQ(loaded->indexes().LookupThreshold(e, q),
                built.indexes().LookupThreshold(e, q));
    }
    EXPECT_EQ(loaded->indexes().LookupValueJoin(q), built.indexes().LookupValueJoin(q));
  }

  // End-to-end ranking parity: same tables, bit-identical distances.
  Table target = testutil::FigureTarget();
  auto res_built = built.Search(target, 5);
  auto res_loaded = loaded->Search(target, 5);
  ASSERT_TRUE(res_built.ok());
  ASSERT_TRUE(res_loaded.ok());
  ASSERT_EQ(res_loaded->ranked.size(), res_built->ranked.size());
  for (size_t i = 0; i < res_built->ranked.size(); ++i) {
    EXPECT_EQ(res_loaded->ranked[i].table_index, res_built->ranked[i].table_index);
    EXPECT_EQ(res_loaded->ranked[i].distance, res_built->ranked[i].distance);
    EXPECT_EQ(res_loaded->ranked[i].evidence_distances,
              res_built->ranked[i].evidence_distances);
  }
  // The Figure-1 golden shape survives: S2/S3 rank above all fillers.
  ASSERT_GE(res_loaded->ranked.size(), 2u);
  std::set<uint32_t> top2 = {res_loaded->ranked[0].table_index,
                             res_loaded->ranked[1].table_index};
  EXPECT_TRUE(top2.count(1) || top2.count(2));
}

TEST_F(SnapshotTest, LoadedEngineRefusesReindexAndSavesAgain) {
  DataLake lake = MakeFigureLake();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());
  const std::string path = Path("engine.d3l");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  DataLake lake_metadata;
  auto loaded = core::D3LEngine::LoadSnapshot(path, &lake_metadata);
  ASSERT_TRUE(loaded.ok());
  // A snapshot-backed engine is already indexed.
  EXPECT_TRUE((*loaded)->IndexLake(lake).IsInvalidArgument());
  // Re-saving a loaded engine produces a loadable snapshot (save/load/save
  // closure) with identical search behaviour.
  const std::string path2 = Path("engine2.d3l");
  ASSERT_TRUE((*loaded)->SaveSnapshot(path2).ok());
  DataLake lake_metadata2;
  auto reloaded = core::D3LEngine::LoadSnapshot(path2, &lake_metadata2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  Table target = testutil::FigureTarget();
  auto a = (*loaded)->Search(target, 3);
  auto b = (*reloaded)->Search(target, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(a->ranked[i].table_index, b->ranked[i].table_index);
    EXPECT_EQ(a->ranked[i].distance, b->ranked[i].distance);
  }
}

TEST_F(SnapshotTest, SaveBeforeIndexFails) {
  core::D3LEngine engine;
  EXPECT_TRUE(engine.SaveSnapshot(Path("x.d3l")).IsInvalidArgument());
}

// ------------------------------------------------- zero-copy / mapped load

// Ranking parity between two loaded engines over the same search.
void ExpectIdenticalSearch(core::D3LEngine& a, core::D3LEngine& b) {
  Table target = testutil::FigureTarget();
  auto ra = a.Search(target, 5);
  auto rb = b.Search(target, 5);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_EQ(ra->ranked.size(), rb->ranked.size());
  for (size_t i = 0; i < ra->ranked.size(); ++i) {
    EXPECT_EQ(ra->ranked[i].table_index, rb->ranked[i].table_index);
    EXPECT_EQ(ra->ranked[i].distance, rb->ranked[i].distance);
    EXPECT_EQ(ra->ranked[i].evidence_distances, rb->ranked[i].evidence_distances);
  }
}

TEST_F(SnapshotTest, MappedAndCopiedLoadsRankIdentically) {
  DataLake lake = MakeFigureLake();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());
  const std::string path = Path("engine.d3l");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  DataLake meta_mapped, meta_copied;
  auto mapped = core::D3LEngine::LoadSnapshot(path, &meta_mapped,
                                              core::SnapshotLoadMode::kMapped);
  auto copied = core::D3LEngine::LoadSnapshot(path, &meta_copied,
                                              core::SnapshotLoadMode::kCopied);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();

  EXPECT_EQ((*mapped)->load_stats().format_version, core::D3LEngine::kSnapshotVersion);
  EXPECT_EQ((*copied)->load_stats().format_version, core::D3LEngine::kSnapshotVersion);
  EXPECT_FALSE((*copied)->load_stats().mapped);
  // On this platform the default mode should really map (no silent
  // regression to the copy path).
  EXPECT_TRUE((*mapped)->load_stats().mapped);
  // All five banded indexes borrow the mapping; a copied load owns them.
  EXPECT_EQ((*mapped)->indexes().banded_borrowing_mapping(), 5u);
  EXPECT_EQ((*copied)->indexes().banded_borrowing_mapping(), 0u);

  ExpectIdenticalSearch(**mapped, **copied);
}

TEST_F(SnapshotTest, AllNumericLakeMappedLoadBorrowsEmptyBandedIndexes) {
  // Numeric columns carry no value or embedding evidence, so three of the
  // five banded indexes are empty; a mapped load copies none of them.
  DataLake lake;
  lake.AddTable(testutil::MakeTable("readings", {"Height", "Weight"},
                                    {{"1.52", "61"}, {"1.70", "72"}, {"1.81", "80"},
                                     {"1.64", "58"}}))
      .CheckOK();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());
  ASSERT_EQ(built.indexes().num_attributes(), 2u);
  for (uint32_t id = 0; id < 2; ++id) {
    ASSERT_TRUE(built.indexes().profile(id).is_numeric);
    ASSERT_FALSE(built.indexes().signatures(id).has_value);
    ASSERT_FALSE(built.indexes().signatures(id).has_embedding);
  }
  const std::string path = Path("numeric.d3l");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  DataLake meta_mapped, meta_copied;
  auto mapped = core::D3LEngine::LoadSnapshot(path, &meta_mapped,
                                              core::SnapshotLoadMode::kMapped);
  auto copied = core::D3LEngine::LoadSnapshot(path, &meta_copied,
                                              core::SnapshotLoadMode::kCopied);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_TRUE((*mapped)->load_stats().mapped);
  EXPECT_EQ((*mapped)->indexes().banded_borrowing_mapping(), 5u);
  EXPECT_EQ((*copied)->indexes().banded_borrowing_mapping(), 0u);
}

TEST_F(SnapshotTest, MmapDisableEnvFallsBackToBufferedIdentically) {
  DataLake lake = MakeFigureLake();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());
  const std::string path = Path("engine.d3l");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  // With D3L_DISABLE_MMAP set, a kMapped open silently degrades to the
  // buffered path — identical results, just not zero-copy.
  ASSERT_EQ(setenv("D3L_DISABLE_MMAP", "1", 1), 0);
  DataLake meta_fallback;
  auto fallback = core::D3LEngine::LoadSnapshot(path, &meta_fallback,
                                                core::SnapshotLoadMode::kMapped);
  ASSERT_EQ(unsetenv("D3L_DISABLE_MMAP"), 0);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE((*fallback)->load_stats().mapped);

  DataLake meta_mapped;
  auto mapped = core::D3LEngine::LoadSnapshot(path, &meta_mapped,
                                              core::SnapshotLoadMode::kMapped);
  ASSERT_TRUE(mapped.ok());
  ExpectIdenticalSearch(**fallback, **mapped);
}

TEST_F(SnapshotTest, SnapshotInfoReportsFormatVersionAndMappability) {
  DataLake lake = MakeFigureLake();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());
  const std::string path = Path("engine.d3l");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  auto info = core::D3LEngine::ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, core::D3LEngine::kSnapshotVersion);
  EXPECT_TRUE(info->mappable);
}

// ------------------------------------------- v1/v2 back-compat (golden)

// The checked-in fixtures were written over this exact lake by the v1
// writer (per-entry forests) and the v2 writer (flat forests; both carry
// full profiles and no banded indexes); the loader must keep reading them
// forever.
DataLake MakeGoldenLake() {
  DataLake lake;
  lake.AddTable(testutil::FigureS1()).CheckOK();
  lake.AddTable(testutil::FigureS2()).CheckOK();
  lake.AddTable(testutil::FigureS3()).CheckOK();
  lake.AddTable(testutil::FillerColors(0)).CheckOK();
  lake.AddTable(testutil::FillerInventory(0)).CheckOK();
  return lake;
}

struct GoldenFixture {
  const char* file;
  uint32_t version;
  bool mappable;  ///< flat forest arrays: a mapped load borrows them
};
constexpr GoldenFixture kGoldenFixtures[] = {{"golden_v1.snap", 1, false},
                                             {"golden_v2.snap", 2, true}};

std::string GoldenPath(const GoldenFixture& fixture) {
  return std::string(D3L_TEST_DATA_DIR) + "/" + fixture.file;
}

TEST_F(SnapshotTest, GoldenV1SnapshotStillLoads) {
  for (const GoldenFixture& fixture : kGoldenFixtures) {
    SCOPED_TRACE(fixture.file);
    const std::string golden = GoldenPath(fixture);
    ASSERT_TRUE(fs::exists(golden)) << golden;

    auto info = core::D3LEngine::ReadSnapshotInfo(golden);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->format_version, fixture.version);
    EXPECT_EQ(info->mappable, fixture.mappable);

    DataLake meta;
    auto loaded = core::D3LEngine::LoadSnapshot(golden, &meta);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->load_stats().format_version, fixture.version);
    // v1 predates the alignment padding; its forests always copy. Neither
    // version stores banded indexes: they are rebuilt, so owned.
    EXPECT_EQ((*loaded)->load_stats().mapped, fixture.mappable);
    EXPECT_EQ((*loaded)->indexes().banded_borrowing_mapping(), 0u);

    // A freshly built engine over the same lake ranks identically — the old
    // wire format decodes to the same index state as today's.
    DataLake lake = MakeGoldenLake();
    core::D3LEngine built;
    ASSERT_TRUE(built.IndexLake(lake).ok());
    ASSERT_EQ(meta.size(), lake.size());
    ExpectIdenticalSearch(**loaded, built);
  }
}

// The SA-join graph reads the registry's tset sizes and the join-threshold
// banded index, both stored differently by v3 than by v1 and v2. Every
// load, mapped or copied, must give the built engine's edges and overlap
// estimates.
TEST_F(SnapshotTest, LoadedEnginesBuildTheSameJoinGraph) {
  DataLake lake = MakeGoldenLake();
  core::D3LEngine built;
  ASSERT_TRUE(built.IndexLake(lake).ok());
  const std::string v3 = Path("golden_v3.d3l");
  ASSERT_TRUE(built.SaveSnapshot(v3).ok());

  // min_overlap 0 keeps every join candidate, so every estimate is compared.
  for (double min_overlap : {0.6, 0.0}) {
    const core::SaJoinGraph want = core::SaJoinGraph::Build(built, min_overlap);
    ASSERT_GT(want.num_edges(), 0u);
    for (const std::string& path : {GoldenPath(kGoldenFixtures[0]),
                                    GoldenPath(kGoldenFixtures[1]), v3}) {
      for (auto mode :
           {core::SnapshotLoadMode::kMapped, core::SnapshotLoadMode::kCopied}) {
        SCOPED_TRACE(path + (mode == core::SnapshotLoadMode::kMapped ? " mapped"
                                                                     : " copied"));
        DataLake meta;
        auto loaded = core::D3LEngine::LoadSnapshot(path, &meta, mode);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        const core::SaJoinGraph got = core::SaJoinGraph::Build(**loaded, min_overlap);
        ASSERT_EQ(got.num_tables(), want.num_tables());
        EXPECT_EQ(got.num_edges(), want.num_edges());
        for (uint32_t t = 0; t < want.num_tables(); ++t) {
          const std::vector<core::JoinEdge>& a = got.neighbours(t);
          const std::vector<core::JoinEdge>& b = want.neighbours(t);
          ASSERT_EQ(a.size(), b.size()) << "table " << t;
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].from_table, b[i].from_table);
            EXPECT_EQ(a[i].from_column, b[i].from_column);
            EXPECT_EQ(a[i].to_table, b[i].to_table);
            EXPECT_EQ(a[i].to_column, b[i].to_column);
            EXPECT_EQ(a[i].overlap_estimate, b[i].overlap_estimate);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- damaged files

class DamagedSnapshotTest : public SnapshotTest {
 protected:
  // Builds a small engine snapshot and returns its path.
  std::string BuildSnapshot() {
    lake_ = MakeFigureLake();
    core::D3LEngine engine;
    EXPECT_TRUE(engine.IndexLake(lake_).ok());
    std::string path = Path("victim.d3l");
    EXPECT_TRUE(engine.SaveSnapshot(path).ok());
    return path;
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  DataLake lake_;
};

TEST_F(DamagedSnapshotTest, TruncatedFilesFailCleanly) {
  std::string path = BuildSnapshot();
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  // Truncate at several depths: inside the header, inside a section header,
  // and mid-payload.
  for (size_t keep : {size_t{4}, size_t{11}, size_t{20}, bytes.size() / 2,
                      bytes.size() - 3}) {
    std::string trunc_path = Path("trunc_" + std::to_string(keep) + ".d3l");
    WriteAll(trunc_path, bytes.substr(0, keep));
    for (auto mode :
         {core::SnapshotLoadMode::kMapped, core::SnapshotLoadMode::kCopied}) {
      DataLake meta;
      auto result = core::D3LEngine::LoadSnapshot(trunc_path, &meta, mode);
      EXPECT_FALSE(result.ok()) << "keep=" << keep;
    }
  }
}

TEST_F(DamagedSnapshotTest, BitFlipsAreCaughtByChecksums) {
  std::string path = BuildSnapshot();
  std::string bytes = ReadAll(path);
  // Flip one byte at several positions spread across the file (skipping the
  // 12-byte magic+version header, whose damage surfaces as bad magic or
  // version instead).
  // Offset 23 is the top byte of OPTS's payload length: a buffered load
  // must reject the length before allocating for it.
  for (size_t pos : {size_t{14}, size_t{23}, bytes.size() / 4, bytes.size() / 2,
                     3 * bytes.size() / 4, bytes.size() - 2}) {
    std::string flip_path = Path("flip_" + std::to_string(pos) + ".d3l");
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x40);
    WriteAll(flip_path, damaged);
    // Checksums must catch the damage on both the mapped (zero-copy) and
    // the buffered path.
    for (auto mode :
         {core::SnapshotLoadMode::kMapped, core::SnapshotLoadMode::kCopied}) {
      DataLake meta;
      auto result = core::D3LEngine::LoadSnapshot(flip_path, &meta, mode);
      EXPECT_FALSE(result.ok()) << "pos=" << pos;
    }
  }
}

TEST_F(DamagedSnapshotTest, WrongVersionNamesBothVersions) {
  std::string path = BuildSnapshot();
  std::string bytes = ReadAll(path);
  bytes[8] = 99;  // format version lives right after the 8-byte magic
  WriteAll(path, bytes);
  DataLake meta;
  auto result = core::D3LEngine::LoadSnapshot(path, &meta);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("99"), std::string::npos);
}

TEST_F(DamagedSnapshotTest, ForeignFileIsRejectedAsNotASnapshot) {
  std::string path = Path("foreign.d3l");
  WriteAll(path, "Practice,City\nBlackfriars,Salford\n");
  DataLake meta;
  auto result = core::D3LEngine::LoadSnapshot(path, &meta);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace d3l
