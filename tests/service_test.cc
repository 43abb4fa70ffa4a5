// The unified serving API and its async front-end: SearchBackend over both
// engine kinds, DiscoveryService futures, and the result cache — hits must
// be byte-identical to direct D3LEngine::Search, eviction must be LRU,
// keys must separate options/index fingerprints, and concurrent Submit()
// hammering must be clean under ASan/TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/synthetic_gen.h"
#include "core/query.h"
#include "obs/trace.h"
#include "serving/discovery_service.h"
#include "serving/result_cache.h"
#include "serving/search_backend.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "serving/thread_pool.h"
#include "table/lake.h"
#include "tests/test_util.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

DataLake MakeLake() {
  DataLake lake;
  lake.AddTable(testutil::FigureS1()).CheckOK();
  lake.AddTable(testutil::FigureS2()).CheckOK();
  lake.AddTable(testutil::FigureS3()).CheckOK();
  for (int salt = 0; salt < 2; ++salt) {
    lake.AddTable(testutil::FillerColors(salt)).CheckOK();
    lake.AddTable(testutil::FillerInventory(salt)).CheckOK();
    lake.AddTable(testutil::FillerWeather(salt)).CheckOK();
  }
  return lake;
}

void ExpectIdenticalResults(const core::SearchResult& expected,
                            const core::SearchResult& actual,
                            const std::string& context) {
  ASSERT_EQ(actual.ranked.size(), expected.ranked.size()) << context;
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    const core::TableMatch& e = expected.ranked[i];
    const core::TableMatch& a = actual.ranked[i];
    EXPECT_EQ(a.table_index, e.table_index) << context << " rank " << i;
    // Bitwise equality, not approximate: a cached or backend-served result
    // must reproduce the single engine's floating-point work exactly.
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
    EXPECT_EQ(it->second, aligns) << context << " table " << table;
  }
  ASSERT_EQ(actual.target_sigs.size(), expected.target_sigs.size()) << context;
  for (size_t c = 0; c < expected.target_sigs.size(); ++c) {
    EXPECT_EQ(actual.target_sigs[c].name_sig, expected.target_sigs[c].name_sig);
    EXPECT_EQ(actual.target_sigs[c].value_sig, expected.target_sigs[c].value_sig);
    EXPECT_EQ(actual.target_sigs[c].format_sig, expected.target_sigs[c].format_sig);
  }
}

// ------------------------------------------------------- options fingerprint

TEST(OptionsFingerprintTest, StableAcrossCopiesAndThreadCounts) {
  core::D3LOptions a;
  core::D3LOptions b;
  EXPECT_EQ(core::OptionsFingerprint(a), core::OptionsFingerprint(b));
  // Build parallelism never changes results, so it must not change the
  // fingerprint either.
  b.num_threads = 31;
  EXPECT_EQ(core::OptionsFingerprint(a), core::OptionsFingerprint(b));
  // Distinct seeds derive independent hashes of the same bytes.
  EXPECT_NE(core::OptionsFingerprint(a, 1), core::OptionsFingerprint(a, 2));
}

TEST(OptionsFingerprintTest, EveryRankingRelevantFieldChangesTheHash) {
  const core::D3LOptions base;
  const uint64_t fp = core::OptionsFingerprint(base);

  core::D3LOptions o = base;
  o.index.minhash_size = 128;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
  o = base;
  o.index.lsh_threshold = 0.5;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
  o = base;
  o.profile.qgram_q = 3;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
  o = base;
  o.wem.num_buckets += 1;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
  o = base;
  o.weights.w[0] += 0.125;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
  o = base;
  o.candidates_per_attribute = 7;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
  o = base;
  o.enabled[2] = false;
  EXPECT_NE(core::OptionsFingerprint(o), fp);
}

// ------------------------------------------------------------- result cache

core::SearchResult ResultWithMarker(uint32_t marker) {
  core::SearchResult r;
  core::TableMatch m;
  m.table_index = marker;
  m.distance = 0.25;
  r.ranked.push_back(m);
  return r;
}

TEST(ResultCacheTest, LruEvictionUnderTinyCapacity) {
  serving::ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  auto key = [](uint64_t i) { return serving::CacheKey{i, i}; };
  cache.Insert(key(1), ResultWithMarker(1));
  cache.Insert(key(2), ResultWithMarker(2));

  core::SearchResult out;
  ASSERT_EQ(cache.Lookup(key(1), &out), serving::CacheLookup::kHit);  // bumps 1 to most-recent
  EXPECT_EQ(out.ranked[0].table_index, 1u);

  cache.Insert(key(3), ResultWithMarker(3));  // evicts 2 (LRU), not 1
  EXPECT_EQ(cache.Lookup(key(1), &out), serving::CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup(key(2), &out), serving::CacheLookup::kMiss);
  EXPECT_EQ(cache.Lookup(key(3), &out), serving::CacheLookup::kHit);

  serving::ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  serving::ResultCache cache(0);
  cache.Insert({1, 1}, ResultWithMarker(1));
  core::SearchResult out;
  EXPECT_EQ(cache.Lookup({1, 1}, &out), serving::CacheLookup::kMiss);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, KeysDifferingOnlyInHiDoNotCollide) {
  serving::ResultCache cache(8, /*num_shards=*/4);
  cache.Insert({42, 1}, ResultWithMarker(1));
  cache.Insert({42, 2}, ResultWithMarker(2));
  core::SearchResult out;
  ASSERT_EQ(cache.Lookup({42, 1}, &out), serving::CacheLookup::kHit);
  EXPECT_EQ(out.ranked[0].table_index, 1u);
  ASSERT_EQ(cache.Lookup({42, 2}, &out), serving::CacheLookup::kHit);
  EXPECT_EQ(out.ranked[0].table_index, 2u);
}

core::SearchResult PaddedResult(uint32_t marker, size_t pairs) {
  core::SearchResult r;
  core::TableMatch m;
  m.table_index = marker;
  m.distance = 0.25;
  m.evidence_distances.fill(1.0);
  m.pairs.resize(pairs);
  r.ranked.push_back(std::move(m));
  return r;
}

TEST(ResultCacheTest, ByteBudgetEvictsBeforeEntryCapacity) {
  const size_t one = serving::ApproxResultBytes(PaddedResult(0, 100));
  // Entry capacity would allow 16 results; the byte budget only two.
  serving::ResultCache cache(/*capacity=*/16, /*num_shards=*/1,
                             /*max_bytes=*/2 * one + one / 2);
  cache.Insert({1, 1}, PaddedResult(1, 100));
  cache.Insert({2, 2}, PaddedResult(2, 100));
  EXPECT_EQ(cache.GetStats().entries, 2u);
  cache.Insert({3, 3}, PaddedResult(3, 100));  // pushes bytes past the budget

  serving::ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, stats.max_bytes);
  core::SearchResult out;
  EXPECT_EQ(cache.Lookup({1, 1}, &out), serving::CacheLookup::kMiss);  // LRU victim
  EXPECT_EQ(cache.Lookup({2, 2}, &out), serving::CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup({3, 3}, &out), serving::CacheLookup::kHit);
}

TEST(ResultCacheTest, OversizedResultStillCachesAsOnlyEntry) {
  const size_t one = serving::ApproxResultBytes(PaddedResult(0, 400));
  serving::ResultCache cache(/*capacity=*/8, /*num_shards=*/1, /*max_bytes=*/one / 2);
  cache.Insert({1, 1}, PaddedResult(1, 400));
  // Larger than the whole byte slice, but the just-admitted entry is never
  // evicted: repeats of the one huge query still hit.
  EXPECT_EQ(cache.GetStats().entries, 1u);
  core::SearchResult out;
  EXPECT_EQ(cache.Lookup({1, 1}, &out), serving::CacheLookup::kHit);
  EXPECT_EQ(out.ranked[0].table_index, 1u);

  cache.Insert({2, 2}, PaddedResult(2, 400));  // displaces the first
  serving::ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.Lookup({1, 1}, &out), serving::CacheLookup::kMiss);
  EXPECT_EQ(cache.Lookup({2, 2}, &out), serving::CacheLookup::kHit);
}

// ---------------------------------------------------------- thread pool Post

TEST(ThreadPoolPostTest, RunsEveryPostedTask) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
    std::atomic<int> hits{0};
    {
      serving::ThreadPool pool(workers);
      for (int i = 0; i < 64; ++i) {
        pool.Post([&hits] { hits.fetch_add(1); });
      }
      // Destruction drains: every posted task must have run by now.
    }
    EXPECT_EQ(hits.load(), 64) << "workers=" << workers;
  }
}

TEST(ThreadPoolPostTest, TasksAndBatchesCoexist) {
  serving::ThreadPool pool(3);
  std::atomic<int> task_hits{0};
  std::vector<std::atomic<int>> batch_hits(101);
  for (int round = 0; round < 5; ++round) {
    pool.Post([&task_hits] { task_hits.fetch_add(1); });
    pool.ParallelFor(batch_hits.size(), [&](size_t i) { batch_hits[i].fetch_add(1); });
  }
  pool.ParallelFor(0, [](size_t) {});  // no-op batch is fine
  for (size_t i = 0; i < batch_hits.size(); ++i) {
    EXPECT_EQ(batch_hits[i].load(), 5) << "i=" << i;
  }
}

// Regression: a throw escaping a posted task used to reach the worker's
// stack frame and std::terminate the whole process, with every queued task
// (and any promise it owned) silently dropped. The pool must contain the
// throw at the task boundary and keep draining.
TEST(ThreadPoolPostTest, ThrowingTaskKeepsWorkersDrainingTheQueue) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
    std::atomic<int> hits{0};
    {
      serving::ThreadPool pool(workers);
      for (int i = 0; i < 32; ++i) {
        pool.Post([&hits, i] {
          if (i % 4 == 0) throw std::runtime_error("poisoned task");
          hits.fetch_add(1);
        });
      }
      // Destruction drains: the 24 well-behaved tasks must all have run
      // despite 8 throwers interleaved among them.
    }
    EXPECT_EQ(hits.load(), 24) << "workers=" << workers;
  }
}

TEST(ThreadPoolPostTest, TaskExceptionsAreCounted) {
  // Zero workers runs tasks inline, so the counter is settled by the time
  // Post returns — no drain race in the assertions.
  serving::ThreadPool pool(0);
  pool.Post([] { throw std::runtime_error("boom"); });
  EXPECT_EQ(pool.task_exceptions(), 1u);
  pool.Post([] {});
  EXPECT_EQ(pool.task_exceptions(), 1u);
  pool.Post([] { throw 42; });  // non-std exceptions are contained too
  EXPECT_EQ(pool.task_exceptions(), 2u);
}

// --------------------------------------------------------- backends + service

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = MakeLake();
    engine_.IndexLake(lake_).CheckOK();
    target_ = testutil::FigureTarget();
  }

  DataLake lake_;
  core::D3LEngine engine_;
  Table target_ = testutil::FigureTarget();
};

TEST_F(ServiceTest, EngineBackendMatchesDirectSearch) {
  serving::EngineBackend backend(&engine_, &lake_);
  auto direct = engine_.Search(target_, 5);
  ASSERT_TRUE(direct.ok());
  auto via_backend = backend.Search(target_, 5);
  ASSERT_TRUE(via_backend.ok());
  ExpectIdenticalResults(*direct, *via_backend, "engine backend");

  serving::BackendInfo info = backend.Info();
  EXPECT_EQ(info.kind, serving::BackendKind::kEngine);
  EXPECT_EQ(info.num_tables, lake_.size());
  EXPECT_EQ(info.options_fingerprint, core::OptionsFingerprint(engine_.options()));
  EXPECT_NE(info.index_fingerprint, 0u);

  EXPECT_EQ(backend.table_name(0), lake_.table(0).name());
  EXPECT_FALSE(backend.Profile(Table()).ok());
}

TEST_F(ServiceTest, ServiceHitIsByteIdenticalToDirectSearch) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 16;
  serving::DiscoveryService service(&backend, options);

  auto direct = engine_.Search(target_, 5);
  ASSERT_TRUE(direct.ok());

  serving::QueryRequest request{&target_, 5, std::nullopt, false};
  serving::QueryResponse miss = service.Query(request);
  ASSERT_TRUE(miss.result.ok());
  EXPECT_FALSE(miss.stats.cache_hit);
  ExpectIdenticalResults(*direct, *miss.result, "first query (miss)");

  serving::QueryResponse hit = service.Query(request);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(hit.stats.search_seconds, 0.0);  // retrieval skipped entirely
  ExpectIdenticalResults(*direct, *hit.result, "second query (hit)");

  // A typographically different target must not hit the first one's entry.
  Table other = testutil::FigureS3();
  serving::QueryResponse third = service.Query({&other, 5, std::nullopt, false});
  ASSERT_TRUE(third.result.ok());
  EXPECT_FALSE(third.stats.cache_hit);

  serving::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST_F(ServiceTest, CacheKeySeparatesKAndMaskAndOptions) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryService service(&backend);

  const std::array<bool, core::kNumEvidence> all = {true, true, true, true, true};
  const std::array<bool, core::kNumEvidence> no_name = {false, true, true, true, true};

  serving::CacheKey base_key = service.KeyFor(target_, 5, all);
  EXPECT_EQ(base_key, service.KeyFor(target_, 5, all));  // deterministic
  EXPECT_NE(base_key, service.KeyFor(target_, 6, all));
  EXPECT_NE(base_key, service.KeyFor(target_, 5, no_name));

  // A backend with different options (different fingerprint) keys the same
  // target differently — options drift cannot serve stale results.
  core::D3LOptions other_options;
  other_options.candidates_per_attribute = 17;
  core::D3LEngine other_engine(other_options);
  other_engine.IndexLake(lake_).CheckOK();
  serving::EngineBackend other_backend(&other_engine, &lake_);
  serving::DiscoveryService other_service(&other_backend);
  EXPECT_NE(base_key, other_service.KeyFor(target_, 5, all));
}

TEST_F(ServiceTest, DifferentSnapshotsInvalidateEachOthersKeys) {
  fs::path dir = fs::temp_directory_path() / "d3l_service_test_snapshots";
  fs::create_directories(dir);
  const std::string path_a = (dir / "a.d3l").string();
  const std::string path_b = (dir / "b.d3l").string();
  engine_.SaveSnapshot(path_a).CheckOK();

  // A second engine over a lake with one extra table: different snapshot,
  // different index fingerprint, disjoint cache key spaces.
  DataLake bigger = MakeLake();
  bigger.AddTable(testutil::Filler(9)).CheckOK();
  core::D3LEngine engine_b;
  engine_b.IndexLake(bigger).CheckOK();
  engine_b.SaveSnapshot(path_b).CheckOK();

  auto backend_a = serving::EngineBackend::FromSnapshot(path_a);
  ASSERT_TRUE(backend_a.ok());
  auto backend_b = serving::EngineBackend::FromSnapshot(path_b);
  ASSERT_TRUE(backend_b.ok());

  serving::BackendInfo info_a = (*backend_a)->Info();
  serving::BackendInfo info_b = (*backend_b)->Info();
  EXPECT_EQ(info_a.options_fingerprint, info_b.options_fingerprint);
  EXPECT_NE(info_a.index_fingerprint, info_b.index_fingerprint);

  serving::DiscoveryService service_a(backend_a->get());
  serving::DiscoveryService service_b(backend_b->get());
  const std::array<bool, core::kNumEvidence> all = {true, true, true, true, true};
  EXPECT_NE(service_a.KeyFor(target_, 5, all), service_b.KeyFor(target_, 5, all));

  fs::remove_all(dir);
}

TEST_F(ServiceTest, CacheKeyCoversEveryFieldOfTheTargetTable) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryService service(&backend);
  const std::array<bool, core::kNumEvidence> all = {true, true, true, true, true};
  const auto key = [&](const Table& t) { return service.KeyFor(t, 5, all); };
  const auto table = testutil::MakeTable;

  const Table base = table("t", {"city", "code"}, {{"ab", "x"}, {"c", "y"}});
  const serving::CacheKey base_key = key(base);

  // Equal content at another address keys equally; the load-time source
  // identity is not part of the content.
  auto copy = std::make_unique<Table>(base);
  ASSERT_NE(copy.get(), &base);
  copy->set_source({"t.csv", 42, 7});
  EXPECT_EQ(key(*copy), base_key);

  EXPECT_NE(key(table("t", {"city", "code"}, {{"ab", "x"}, {"c", "z"}})), base_key)
      << "one cell";
  EXPECT_NE(key(table("t", {"town", "code"}, {{"ab", "x"}, {"c", "y"}})), base_key)
      << "a column name";
  EXPECT_NE(key(table("u", {"city", "code"}, {{"ab", "x"}, {"c", "y"}})), base_key)
      << "the table name";
  EXPECT_NE(key(table("t", {"code", "city"}, {{"x", "ab"}, {"y", "c"}})), base_key)
      << "the column order";
  EXPECT_NE(key(table("t", {"city", "code"}, {{"ab", "x"}, {"c", "y"}, {"", ""}})),
            base_key)
      << "an appended row";
  EXPECT_NE(key(table("t", {"city", "code"}, {{"a", "x"}, {"bc", "y"}})), base_key)
      << "a byte moved across a cell boundary";
}

// Counts Profile calls, so a test can tell a cache hit that profiled from
// one that did not.
class CountingBackend : public serving::SearchBackend {
 public:
  CountingBackend(const core::D3LEngine* engine, const DataLake* lake)
      : inner_(engine, lake) {}

  Result<core::QueryTarget> Profile(const Table& target) const override {
    profile_calls_.fetch_add(1);
    return inner_.Profile(target);
  }
  Result<core::SearchResult> Search(
      core::QueryTarget target, size_t k,
      const std::array<bool, core::kNumEvidence>& mask) const override {
    return inner_.Search(std::move(target), k, mask);
  }
  const core::D3LOptions& options() const override { return inner_.options(); }
  serving::BackendInfo Info() const override { return inner_.Info(); }
  std::string table_name(uint32_t t) const override { return inner_.table_name(t); }

  size_t profile_calls() const { return profile_calls_.load(); }

 private:
  serving::EngineBackend inner_;
  mutable std::atomic<size_t> profile_calls_{0};
};

bool HasSpanNamed(const std::vector<obs::Span>& spans, const std::string& name) {
  for (const obs::Span& span : spans) {
    if (span.name == name || HasSpanNamed(span.children, name)) return true;
  }
  return false;
}

TEST_F(ServiceTest, CacheHitNeverProfiles) {
  CountingBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;
  serving::DiscoveryService service(&backend, options);
  auto direct = engine_.Search(target_, 5);
  ASSERT_TRUE(direct.ok());

  const serving::QueryRequest request{&target_, 5, std::nullopt, false};
  serving::QueryResponse miss = service.Query(request);
  ASSERT_TRUE(miss.result.ok());
  EXPECT_FALSE(miss.stats.cache_hit);
  EXPECT_EQ(backend.profile_calls(), 1u);
  EXPECT_GT(miss.stats.profile_seconds, 0.0);
  ASSERT_NE(miss.stats.trace, nullptr);
  EXPECT_TRUE(HasSpanNamed(miss.stats.trace->roots, "profile"));

  serving::QueryResponse hit = service.Query(request);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(backend.profile_calls(), 1u);
  EXPECT_EQ(hit.stats.profile_seconds, 0.0);
  EXPECT_EQ(hit.stats.search_seconds, 0.0);
  ASSERT_NE(hit.stats.trace, nullptr);
  EXPECT_TRUE(HasSpanNamed(hit.stats.trace->roots, "cache:lookup"));
  EXPECT_FALSE(HasSpanNamed(hit.stats.trace->roots, "profile"));
  EXPECT_EQ(testutil::SearchResultBytes(*hit.result),
            testutil::SearchResultBytes(*direct));
  // Only the query that profiled feeds the profile phase histogram.
  EXPECT_EQ(service.Stats().profile_seconds, miss.stats.profile_seconds);

  // A profiling failure is never cached: both attempts profile and fail.
  Table empty("empty");
  for (int attempt = 0; attempt < 2; ++attempt) {
    serving::QueryResponse failed = service.Query({&empty, 5, std::nullopt, false});
    EXPECT_FALSE(failed.result.ok());
    EXPECT_FALSE(failed.stats.cache_hit);
  }
  EXPECT_EQ(backend.profile_calls(), 3u);

  // bypass_cache still profiles and searches.
  serving::QueryResponse bypassed = service.Query({&target_, 5, std::nullopt, true});
  ASSERT_TRUE(bypassed.result.ok());
  EXPECT_FALSE(bypassed.stats.cache_hit);
  EXPECT_EQ(backend.profile_calls(), 4u);
  EXPECT_EQ(service.Stats().cache.entries, 1u);
}

TEST_F(ServiceTest, TableEditedInPlaceMisses) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;
  serving::DiscoveryService service(&backend, options);

  Table target = testutil::FigureTarget();
  const serving::QueryRequest request{&target, 5, std::nullopt, false};
  ASSERT_TRUE(service.Query(request).result.ok());
  ASSERT_TRUE(service.Query(request).stats.cache_hit);

  // The same Table object, one row longer: the next query must rank the
  // edited table, not copy the entry cached for the original.
  ASSERT_TRUE(target.AddRow({"Salford Care", "2 Market St", "Salford", "M5 4WT",
                             "09:00-17:00"})
                  .ok());
  auto direct = engine_.Search(target, 5);
  ASSERT_TRUE(direct.ok());
  serving::QueryResponse edited = service.Query(request);
  ASSERT_TRUE(edited.result.ok());
  EXPECT_FALSE(edited.stats.cache_hit);
  EXPECT_EQ(testutil::SearchResultBytes(*edited.result),
            testutil::SearchResultBytes(*direct));
  EXPECT_NE(testutil::SearchResultBytes(*edited.result),
            testutil::SearchResultBytes(*engine_.Search(testutil::FigureTarget(), 5)));
}

TEST_F(ServiceTest, EvictionUnderTinyServiceCache) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;  // deterministic ordering
  options.cache_capacity = 1;
  options.cache_shards = 1;
  serving::DiscoveryService service(&backend, options);

  Table t2 = testutil::FigureS2();
  (void)service.Query({&target_, 5, std::nullopt, false});  // miss, cached
  serving::QueryResponse r1 = service.Query({&target_, 5, std::nullopt, false});
  EXPECT_TRUE(r1.stats.cache_hit);
  (void)service.Query({&t2, 5, std::nullopt, false});  // miss, evicts target_
  serving::QueryResponse r2 = service.Query({&target_, 5, std::nullopt, false});
  EXPECT_FALSE(r2.stats.cache_hit);  // was evicted by t2
  EXPECT_GE(service.Stats().cache.evictions, 1u);
}

TEST_F(ServiceTest, BypassCacheNeverHitsNorInserts) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;
  serving::DiscoveryService service(&backend, options);

  (void)service.Query({&target_, 5, std::nullopt, true});
  serving::QueryResponse second = service.Query({&target_, 5, std::nullopt, true});
  EXPECT_FALSE(second.stats.cache_hit);
  EXPECT_EQ(service.Stats().cache.entries, 0u);
}

TEST_F(ServiceTest, EmptyRetrievalsAreCachedAsOrdinaryEntries) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;
  serving::DiscoveryService service(&backend, options);

  // An all-false evidence mask consults no index: the retrieval is
  // guaranteed empty, the canonical zero-candidate query.
  std::array<bool, core::kNumEvidence> none{};
  serving::QueryRequest request{&target_, 5, none, false};

  serving::QueryResponse first = service.Query(request);
  ASSERT_TRUE(first.result.ok());
  EXPECT_TRUE(first.result->ranked.empty());
  EXPECT_TRUE(first.result->candidate_alignments.empty());
  EXPECT_FALSE(first.stats.cache_hit);

  serving::QueryResponse second = service.Query(request);
  ASSERT_TRUE(second.result.ok());
  EXPECT_TRUE(second.stats.cache_hit);
  EXPECT_TRUE(second.result->ranked.empty());
  EXPECT_TRUE(second.result->candidate_alignments.empty());

  // The cached empty result carries the target's profiles and signatures
  // like any other entry: byte-identical to the recomputed one.
  EXPECT_EQ(testutil::SearchResultBytes(*first.result),
            testutil::SearchResultBytes(*second.result));

  serving::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.cache.bytes, serving::ApproxResultBytes(*first.result));

  // A real query through the same service caches its own entry.
  serving::QueryResponse full = service.Query({&target_, 5, std::nullopt, false});
  ASSERT_TRUE(full.result.ok());
  EXPECT_FALSE(full.result->ranked.empty());
  EXPECT_EQ(service.Stats().cache.entries, 2u);
}

TEST_F(ServiceTest, NullAndEmptyTargetsFailOnlyTheirFuture) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryService service(&backend);
  serving::QueryResponse null_response = service.Query({nullptr, 5, std::nullopt, false});
  EXPECT_FALSE(null_response.result.ok());
  Table empty;
  serving::QueryResponse empty_response =
      service.Query({&empty, 5, std::nullopt, false});
  EXPECT_FALSE(empty_response.result.ok());
  serving::QueryResponse good = service.Query({&target_, 5, std::nullopt, false});
  EXPECT_TRUE(good.result.ok());
  EXPECT_EQ(service.Stats().failed, 2u);
}

TEST_F(ServiceTest, SubmitAfterShutdownFailsFast) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryService service(&backend);
  service.Shutdown();
  serving::QueryResponse response = service.Query({&target_, 5, std::nullopt, false});
  EXPECT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsInvalidArgument());
  serving::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected);
}

TEST_F(ServiceTest, ConcurrentSubmitHammeringStaysConsistent) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.num_threads = 4;
  options.cache_capacity = 8;
  options.cache_shards = 2;
  serving::DiscoveryService service(&backend, options);

  auto direct = engine_.Search(target_, 5);
  ASSERT_TRUE(direct.ok());
  auto direct_s3 = engine_.Search(lake_.table(2), 5);
  ASSERT_TRUE(direct_s3.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::vector<std::thread> hammers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool use_s3 = (t + i) % 2 == 0;
        const Table* target = use_s3 ? &lake_.table(2) : &target_;
        serving::QueryResponse response =
            service.Submit({target, 5, std::nullopt, false}).get();
        if (!response.result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const core::SearchResult& expected = use_s3 ? *direct_s3 : *direct;
        if (response.result->ranked.size() != expected.ranked.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < expected.ranked.size(); ++r) {
          if (response.result->ranked[r].table_index != expected.ranked[r].table_index ||
              response.result->ranked[r].distance != expected.ranked[r].distance) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& h : hammers) h.join();
  EXPECT_EQ(failures.load(), 0);

  serving::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.submitted);
  // With only two distinct queries and a warm cache, hits must dominate.
  EXPECT_GE(stats.cache_hits, stats.submitted / 2);
}

TEST_F(ServiceTest, ShardedBackendThroughServiceMatchesSingleEngine) {
  fs::path dir = fs::temp_directory_path() / "d3l_service_test_sharded";
  fs::create_directories(dir);

  serving::ShardingOptions shard_options;
  shard_options.num_shards = 3;
  auto report = serving::BuildShards(lake_, shard_options, (dir / "lake").string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto sharded = serving::ShardedEngine::Open(report->manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  serving::BackendInfo info = (*sharded)->Info();
  EXPECT_EQ(info.kind, serving::BackendKind::kSharded);
  EXPECT_EQ(info.num_shards, 3u);
  EXPECT_NE(info.index_fingerprint, 0u);

  serving::DiscoveryServiceOptions options;
  options.num_threads = 2;
  serving::DiscoveryService service(sharded->get(), options);

  auto direct = engine_.Search(target_, 6);
  ASSERT_TRUE(direct.ok());
  serving::QueryResponse miss = service.Query({&target_, 6, std::nullopt, false});
  ASSERT_TRUE(miss.result.ok());
  EXPECT_FALSE(miss.stats.cache_hit);
  ExpectIdenticalResults(*direct, *miss.result, "sharded service miss");
  serving::QueryResponse hit = service.Query({&target_, 6, std::nullopt, false});
  ASSERT_TRUE(hit.result.ok());
  EXPECT_TRUE(hit.stats.cache_hit);
  ExpectIdenticalResults(*direct, *hit.result, "sharded service hit");

  fs::remove_all(dir);
}

// A backend whose Search throws instead of returning a Status — the worst
// kind of guest code. The service must convert the throw into a failed
// response for THAT caller and stay fully alive for everyone else.
class ThrowingBackend : public serving::SearchBackend {
 public:
  ThrowingBackend(const core::D3LEngine* engine, const DataLake* lake)
      : inner_(engine, lake) {}

  Result<core::QueryTarget> Profile(const Table& target) const override {
    return inner_.Profile(target);
  }
  Result<core::SearchResult> Search(
      core::QueryTarget, size_t,
      const std::array<bool, core::kNumEvidence>&) const override {
    throw std::runtime_error("backend blew up mid-search");
  }
  const core::D3LOptions& options() const override { return inner_.options(); }
  serving::BackendInfo Info() const override { return inner_.Info(); }
  std::string table_name(uint32_t t) const override { return inner_.table_name(t); }

 private:
  serving::EngineBackend inner_;
};

TEST_F(ServiceTest, ThrowingBackendFailsOnlyItsOwnQueries) {
  ThrowingBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.num_threads = 2;
  serving::DiscoveryService service(&backend, options);

  // Every future must resolve — before the Execute guard, the first throw
  // took down the process and stranded the rest.
  std::vector<std::future<serving::QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit({&target_, 5, std::nullopt, false}));
  }
  for (auto& f : futures) {
    serving::QueryResponse response = f.get();
    EXPECT_FALSE(response.result.ok());
    EXPECT_TRUE(response.result.status().IsInternal())
        << response.result.status().ToString();
  }
  serving::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 8u);
}

TEST_F(ServiceTest, SwapBackendServesEachGenerationExactly) {
  // Generation A: the fixture engine. Generation B: a bigger lake indexed
  // separately — different results AND a different index fingerprint.
  auto backend_a = std::make_shared<serving::EngineBackend>(&engine_, &lake_);
  DataLake bigger = MakeLake();
  bigger.AddTable(testutil::FillerColors(7)).CheckOK();
  core::D3LEngine engine_b;
  engine_b.IndexLake(bigger).CheckOK();
  auto backend_b = std::make_shared<serving::EngineBackend>(&engine_b, &bigger);
  ASSERT_NE(backend_a->Info().index_fingerprint, backend_b->Info().index_fingerprint);

  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;
  serving::DiscoveryService service(backend_a, options);

  auto direct_a = engine_.Search(target_, 5);
  auto direct_b = engine_b.Search(target_, 5);
  ASSERT_TRUE(direct_a.ok());
  ASSERT_TRUE(direct_b.ok());

  const serving::QueryRequest request{&target_, 5, std::nullopt, false};
  serving::QueryResponse first = service.Query(request);
  ASSERT_TRUE(first.result.ok());
  EXPECT_EQ(first.stats.index_fingerprint, backend_a->Info().index_fingerprint);
  ExpectIdenticalResults(*direct_a, *first.result, "generation A miss");

  service.SwapBackend(backend_b);
  EXPECT_EQ(service.Info().index_fingerprint, backend_b->Info().index_fingerprint);

  // The fingerprint flip must re-key the same request: no hit against A's
  // cached entry, and the answer is B's, byte for byte.
  serving::QueryResponse second = service.Query(request);
  ASSERT_TRUE(second.result.ok());
  EXPECT_FALSE(second.stats.cache_hit);
  EXPECT_EQ(second.stats.index_fingerprint, backend_b->Info().index_fingerprint);
  ExpectIdenticalResults(*direct_b, *second.result, "generation B miss");
  serving::QueryResponse third = service.Query(request);
  ASSERT_TRUE(third.result.ok());
  EXPECT_TRUE(third.stats.cache_hit);
  ExpectIdenticalResults(*direct_b, *third.result, "generation B hit");

  // Swapping BACK finds A's entry still keyed under A's fingerprint — the
  // generations' cache populations never mix in either direction.
  service.SwapBackend(backend_a);
  serving::QueryResponse fourth = service.Query(request);
  ASSERT_TRUE(fourth.result.ok());
  EXPECT_TRUE(fourth.stats.cache_hit);
  EXPECT_EQ(fourth.stats.index_fingerprint, backend_a->Info().index_fingerprint);
  ExpectIdenticalResults(*direct_a, *fourth.result, "generation A hit after swap back");
}

TEST_F(ServiceTest, EvidenceMaskRequestMatchesMaskedSearch) {
  serving::EngineBackend backend(&engine_, &lake_);
  serving::DiscoveryServiceOptions options;
  options.inline_execution = true;
  serving::DiscoveryService service(&backend, options);

  const std::array<bool, core::kNumEvidence> name_only = {true, false, false, false,
                                                          false};
  auto direct = engine_.Search(target_, 5, name_only);
  ASSERT_TRUE(direct.ok());
  serving::QueryResponse response = service.Query({&target_, 5, name_only, false});
  ASSERT_TRUE(response.result.ok());
  ExpectIdenticalResults(*direct, *response.result, "masked query");
  // Masked and unmasked queries occupy distinct cache entries.
  serving::QueryResponse unmasked = service.Query({&target_, 5, std::nullopt, false});
  ASSERT_TRUE(unmasked.result.ok());
  EXPECT_FALSE(unmasked.stats.cache_hit);
}

}  // namespace
}  // namespace d3l
