// The remote serving tier end to end: a RemoteBackend scatter-gathering
// over N shard_server-style RpcServers must return rankings BYTE-IDENTICAL
// to the local ShardedEngine over the same manifest — including after a
// remote Reload() and while reloads run — and a killed server must surface
// Status::Unavailable after bounded retries without hanging
// DiscoveryService::Submit. Also covers BackendRef parsing, the
// OpenBackend factory, deployment-coherence rejection at Connect, and the
// EngineBackend source-identity fingerprint.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "obs/trace.h"
#include "rpc/server.h"
#include "serving/backend_ref.h"
#include "serving/discovery_service.h"
#include "serving/remote_backend.h"
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
    // Bitwise equality, not approximate: the remote scatter-gather must
    // reproduce the local engine's floating-point work exactly.
    EXPECT_EQ(a.distance, e.distance) << context << " rank " << i;
    EXPECT_EQ(a.evidence_distances, e.evidence_distances) << context << " rank " << i;
    ASSERT_EQ(a.pairs.size(), e.pairs.size()) << context << " rank " << i;
    for (size_t p = 0; p < e.pairs.size(); ++p) {
      EXPECT_EQ(a.pairs[p].target_column, e.pairs[p].target_column);
      EXPECT_EQ(a.pairs[p].attribute_id, e.pairs[p].attribute_id);
      EXPECT_EQ(a.pairs[p].d, e.pairs[p].d);
    }
  }
  ASSERT_EQ(actual.candidate_alignments.size(),
            expected.candidate_alignments.size())
      << context;
  for (const auto& [table, aligns] : expected.candidate_alignments) {
    auto it = actual.candidate_alignments.find(table);
    ASSERT_NE(it, actual.candidate_alignments.end()) << context;
    EXPECT_EQ(it->second, aligns) << context << " table " << table;
  }
}

class RemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("d3l_remote_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    servers_.clear();
    fs::remove_all(dir_);
  }

  std::string Base(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string BuildDeployment(const DataLake& lake, size_t num_shards,
                              const std::string& name) {
    serving::ShardingOptions options;
    options.num_shards = num_shards;
    auto report = serving::BuildShards(lake, options, Base(name));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report->manifest_path;
  }

  /// One RpcServer per assignment, each serving that subset of the
  /// manifest's shards, with the same reload hook shard_server installs
  /// (re-open the manifest in place, reusing the current generation).
  std::vector<std::string> StartServers(
      const std::string& manifest_path,
      const std::vector<std::vector<size_t>>& assignments) {
    std::vector<std::string> endpoints;
    for (const std::vector<size_t>& shards : assignments) {
      serving::ShardedEngineOptions engine_options;
      engine_options.serve_shards = shards;
      auto engine = serving::ShardedEngine::Open(manifest_path, engine_options);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      rpc::RpcServer::ReloadFn reload =
          [manifest_path, engine_options](const serving::ShardedEngine* current)
          -> Result<std::shared_ptr<const serving::ShardedEngine>> {
        D3L_ASSIGN_OR_RETURN(std::unique_ptr<serving::ShardedEngine> next,
                             serving::ShardedEngine::Open(
                                 manifest_path, engine_options, current));
        return std::shared_ptr<const serving::ShardedEngine>(std::move(next));
      };
      rpc::RpcServerOptions server_options;
      server_options.num_workers = 2;
      auto server = rpc::RpcServer::Start(
          std::shared_ptr<const serving::ShardedEngine>(std::move(*engine)),
          server_options, std::move(reload));
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      endpoints.push_back("127.0.0.1:" + std::to_string((*server)->port()));
      servers_.push_back(std::move(*server));
    }
    return endpoints;
  }

  /// Fast-failing client settings so deliberately-killed servers do not
  /// stretch the suite.
  static serving::RemoteBackendOptions FastFail() {
    serving::RemoteBackendOptions options;
    options.client.connect_timeout_seconds = 1.0;
    options.client.request_timeout_seconds = 5.0;
    options.client.max_attempts = 2;
    options.client.initial_backoff_seconds = 0.01;
    return options;
  }

  void CheckRemoteParity(const std::string& manifest_path,
                         const std::vector<std::vector<size_t>>& assignments,
                         const std::vector<Table>& targets, size_t k) {
    auto local = serving::ShardedEngine::Open(manifest_path);
    ASSERT_TRUE(local.ok()) << local.status().ToString();

    const std::vector<std::string> endpoints =
        StartServers(manifest_path, assignments);
    auto remote = serving::RemoteBackend::Connect(endpoints, FastFail());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();

    // The remote deployment reports the SAME identity as the local engine
    // over the manifest — which is what keeps result caches portable.
    const serving::BackendInfo local_info = (*local)->Info();
    const serving::BackendInfo remote_info = (*remote)->Info();
    EXPECT_EQ(remote_info.kind, serving::BackendKind::kRemote);
    EXPECT_EQ(remote_info.num_tables, local_info.num_tables);
    EXPECT_EQ(remote_info.num_attributes, local_info.num_attributes);
    EXPECT_EQ(remote_info.num_shards, local_info.num_shards);
    EXPECT_EQ(remote_info.options_fingerprint, local_info.options_fingerprint);
    EXPECT_EQ(remote_info.index_fingerprint, local_info.index_fingerprint);
    for (uint32_t t = 0; t < local_info.num_tables; ++t) {
      EXPECT_EQ((*remote)->table_name(t), (*local)->table_name(t));
    }

    for (const Table& target : targets) {
      auto expected = (*local)->Search(target, k);
      auto actual = (*remote)->Search(target, k);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectIdenticalResults(*expected, *actual,
                             "servers=" + std::to_string(assignments.size()) +
                                 " target=" + target.name());
    }
  }

  fs::path dir_;
  std::vector<std::unique_ptr<rpc::RpcServer>> servers_;
};

// --------------------------------------------------------------- exactness

TEST_F(RemoteTest, TwoServersMatchLocalShardedByteForByte) {
  DataLake lake = testutil::FigureLake(4);
  const std::string manifest = BuildDeployment(lake, 2, "two");
  CheckRemoteParity(manifest, {{0}, {1}},
                    {testutil::FigureTarget(), lake.table(1), lake.table(5)},
                    10);
}

TEST_F(RemoteTest, SingleFullServerMatchesViaDirectSearch) {
  DataLake lake = testutil::FigureLake(3);
  const std::string manifest = BuildDeployment(lake, 2, "solo");
  // One server serving every shard answers DCNT and SCOR like any other.
  CheckRemoteParity(manifest, {{0, 1}},
                    {testutil::FigureTarget(), lake.table(2)}, 8);
}

TEST_F(RemoteTest, UnevenShardAssignmentStillExact) {
  DataLake lake = testutil::FigureLake(6);
  const std::string manifest = BuildDeployment(lake, 3, "uneven");
  CheckRemoteParity(manifest, {{0, 2}, {1}},
                    {testutil::FigureTarget(), lake.table(4)}, 12);
}

TEST_F(RemoteTest, RemoteProfileMatchesLocalProfileBytes) {
  DataLake lake = testutil::FigureLake(2);
  const std::string manifest = BuildDeployment(lake, 2, "prof");
  auto local = serving::ShardedEngine::Open(manifest);
  ASSERT_TRUE(local.ok());
  const std::vector<std::string> endpoints = StartServers(manifest, {{0}, {1}});
  auto remote = serving::RemoteBackend::Connect(endpoints, FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  const Table target = testutil::FigureTarget();
  auto local_qt = (*local)->Profile(target);
  auto remote_qt = (*remote)->Profile(target);
  ASSERT_TRUE(local_qt.ok());
  ASSERT_TRUE(remote_qt.ok()) << remote_qt.status().ToString();
  // Canonical bytes equality = indistinguishable to every query phase and
  // to result-cache keys.
  EXPECT_EQ(core::CanonicalTargetBytes(*remote_qt),
            core::CanonicalTargetBytes(*local_qt));
}

TEST_F(RemoteTest, ReloadPicksUpARebuiltDeploymentExactly) {
  DataLake lake = testutil::FigureLake(2);
  const std::string manifest = BuildDeployment(lake, 2, "reload");
  const std::vector<std::string> endpoints = StartServers(manifest, {{0}, {1}});
  auto remote = serving::RemoteBackend::Connect(endpoints, FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const size_t tables_before = (*remote)->Info().num_tables;
  const uint64_t fingerprint_before = (*remote)->Info().index_fingerprint;

  // Rebuild the deployment in place with a larger lake, then ask the
  // remote tier to reload: every server swaps generations over RELD and
  // the coordinator re-stitches the new numbering.
  DataLake bigger = testutil::FigureLake(5);
  BuildDeployment(bigger, 2, "reload");
  ASSERT_TRUE((*remote)->Reload().ok());

  const serving::BackendInfo after = (*remote)->Info();
  EXPECT_EQ(after.num_tables, bigger.size());
  EXPECT_GT(after.num_tables, tables_before);
  EXPECT_NE(after.index_fingerprint, fingerprint_before);

  // Post-reload answers must be byte-identical to a FRESH local engine
  // over the rebuilt manifest.
  auto local = serving::ShardedEngine::Open(manifest);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(after.index_fingerprint, (*local)->Info().index_fingerprint);
  for (const Table& target : {testutil::FigureTarget(), bigger.table(6)}) {
    auto expected = (*local)->Search(target, 10);
    auto actual = (*remote)->Search(target, 10);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectIdenticalResults(*expected, *actual,
                           "post-reload target=" + target.name());
  }
}

TEST_F(RemoteTest, SearchesDuringReloadsStayExact) {
  DataLake lake = testutil::FigureLake(4);
  const std::string manifest = BuildDeployment(lake, 2, "reload_race");
  auto local = serving::ShardedEngine::Open(manifest);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  const std::vector<std::string> endpoints = StartServers(manifest, {{0}, {1}});
  auto remote = serving::RemoteBackend::Connect(endpoints, FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  const std::array<bool, core::kNumEvidence> mask = (*local)->options().enabled;
  auto target = (*local)->Profile(testutil::FigureTarget());
  ASSERT_TRUE(target.ok());
  auto expected = (*local)->Search(*target, 10, mask);
  ASSERT_TRUE(expected.ok());
  const std::string expected_bytes = testutil::SearchResultBytes(*expected);

  // One thread searches in a loop while this one reloads the unchanged
  // deployment: every search reads the generation it snapshotted.
  std::atomic<bool> stop{false};
  std::atomic<size_t> searches{0};
  size_t failed = 0;
  size_t differing = 0;
  std::thread searcher([&] {
    while (!stop.load()) {
      auto result = (*remote)->Search(*target, 10, mask);
      if (!result.ok()) {
        ++failed;
      } else if (testutil::SearchResultBytes(*result) != expected_bytes) {
        ++differing;
      }
      searches.fetch_add(1);
    }
  });
  while (searches.load() == 0) std::this_thread::yield();
  std::vector<Status> reloads;
  for (int i = 0; i < 3; ++i) reloads.push_back((*remote)->Reload());
  stop.store(true);
  searcher.join();

  for (const Status& reload : reloads) EXPECT_TRUE(reload.ok()) << reload.ToString();
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(differing, 0u);
}

// ----------------------------------------------------------------- tracing

/// Flattens the span tree into slash-joined root-to-span paths, e.g.
/// "execute/search/rpc:DCNT 127.0.0.1:7001/serve:DCNT".
void CollectSpanPaths(const obs::Span& span, const std::string& prefix,
                      std::vector<std::string>* paths) {
  const std::string path = prefix.empty() ? span.name : prefix + "/" + span.name;
  paths->push_back(path);
  for (const obs::Span& child : span.children) {
    CollectSpanPaths(child, path, paths);
  }
}

TEST_F(RemoteTest, QueryAgainstTwoServersYieldsOneStitchedTrace) {
  DataLake lake = testutil::FigureLake(4);
  const std::string manifest = BuildDeployment(lake, 2, "trace");
  const std::vector<std::string> endpoints = StartServers(manifest, {{0}, {1}});
  auto remote = serving::RemoteBackend::Connect(endpoints, FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  serving::DiscoveryService service(remote->get());
  const Table target = testutil::FigureTarget();
  serving::QueryResponse response =
      service.Submit({&target, 5, std::nullopt, false}).get();
  ASSERT_TRUE(response.result.ok()) << response.result.status().ToString();

  // One trace for the whole cross-process query: the client's phase spans
  // with each server's subtree stitched under the RPC that fetched it.
  ASSERT_NE(response.stats.trace, nullptr);
  const obs::Trace& trace = *response.stats.trace;
  EXPECT_NE(trace.trace_id, 0u);
  std::vector<std::string> paths;
  for (const obs::Span& root : trace.roots) CollectSpanPaths(root, "", &paths);
  // Counts the spans whose path matches `needle` ending in the FINAL
  // segment — descendants of a match extend the path with '/' and are not
  // re-counted.
  const auto count_with = [&paths](const std::string& needle) {
    size_t n = 0;
    for (const std::string& p : paths) {
      const size_t at = p.rfind(needle);
      if (at != std::string::npos &&
          p.find('/', at + needle.size()) == std::string::npos) {
        ++n;
      }
    }
    return n;
  };

  // Client-side phases (queue is a retrospective root, execute wraps the
  // pipeline).
  EXPECT_EQ(count_with("queue"), 1u) << FormatTrace(trace);
  EXPECT_EQ(count_with("execute/profile"), 1u) << FormatTrace(trace);
  EXPECT_GE(count_with("execute/search"), 1u) << FormatTrace(trace);
  // Server-side handling spans: each of the two servers answers one DCNT
  // and one SCOR during the scatter-gather, under the client span of the
  // RPC that carried it.
  EXPECT_EQ(count_with("search/rpc:DCNT"), 2u) << FormatTrace(trace);
  EXPECT_EQ(count_with("serve:DCNT"), 2u) << FormatTrace(trace);
  EXPECT_EQ(count_with("serve:SCOR"), 2u) << FormatTrace(trace);
  // ...including the servers' own engine phases, proving the subtree came
  // from the server process, not the client's bookkeeping.
  EXPECT_EQ(count_with("serve:DCNT/engine:depth_counts"), 2u)
      << FormatTrace(trace);
  EXPECT_EQ(count_with("serve:SCOR/engine:score_at_stops"), 2u)
      << FormatTrace(trace);

  // Tracing off → no trace is built or shipped.
  serving::DiscoveryServiceOptions quiet;
  quiet.trace_queries = false;
  serving::DiscoveryService untraced(remote->get(), quiet);
  serving::QueryResponse quiet_response =
      untraced.Submit({&target, 5, std::nullopt, true}).get();
  ASSERT_TRUE(quiet_response.result.ok())
      << quiet_response.result.status().ToString();
  EXPECT_EQ(quiet_response.stats.trace, nullptr);
}

// ------------------------------------------------------------- degradation

TEST_F(RemoteTest, KilledServerSurfacesUnavailableWithoutHangingSubmit) {
  DataLake lake = testutil::FigureLake(2);
  const std::string manifest = BuildDeployment(lake, 2, "killed");
  const std::vector<std::string> endpoints = StartServers(manifest, {{0}, {1}});
  auto remote = serving::RemoteBackend::Connect(endpoints, FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // Kill one member of the deployment AFTER connect.
  servers_[1]->Stop();

  const Table target = testutil::FigureTarget();
  auto direct = (*remote)->Search(target, 5);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsUnavailable()) << direct.status().ToString();

  // Through the async front-end: the future must RESOLVE with the error,
  // never hang — the degradation half of the tentpole contract.
  serving::DiscoveryService service(remote->get());
  std::future<serving::QueryResponse> pending =
      service.Submit({&target, 5, std::nullopt, false});
  ASSERT_EQ(pending.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "Submit hung on an unreachable shard server";
  serving::QueryResponse response = pending.get();
  ASSERT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsUnavailable())
      << response.result.status().ToString();
}

TEST_F(RemoteTest, ConnectToDeadEndpointIsUnavailable) {
  // Bind-then-close leaves a port that refuses connections.
  auto connect = serving::RemoteBackend::Connect({"127.0.0.1:1"}, FastFail());
  ASSERT_FALSE(connect.ok());
  EXPECT_TRUE(connect.status().IsUnavailable()) << connect.status().ToString();
}

// ---------------------------------------------------- deployment coherence

TEST_F(RemoteTest, ConnectRejectsMixedDeployments) {
  DataLake lake_a = testutil::FigureLake(2);
  DataLake lake_b = testutil::FigureLake(5);
  const std::string manifest_a = BuildDeployment(lake_a, 2, "mix_a");
  const std::string manifest_b = BuildDeployment(lake_b, 2, "mix_b");
  std::vector<std::string> endpoints = StartServers(manifest_a, {{0}});
  for (const std::string& e : StartServers(manifest_b, {{1}})) {
    endpoints.push_back(e);
  }
  auto connect = serving::RemoteBackend::Connect(endpoints, FastFail());
  ASSERT_FALSE(connect.ok());
  EXPECT_TRUE(connect.status().IsInvalidArgument())
      << connect.status().ToString();
}

TEST_F(RemoteTest, ConnectRejectsOverlappingAndGappedPartitions) {
  DataLake lake = testutil::FigureLake(2);
  const std::string manifest = BuildDeployment(lake, 2, "partition");
  // Overlap: both servers serve shard 0.
  {
    const std::vector<std::string> endpoints =
        StartServers(manifest, {{0}, {0, 1}});
    auto connect = serving::RemoteBackend::Connect(endpoints, FastFail());
    ASSERT_FALSE(connect.ok());
    EXPECT_TRUE(connect.status().IsInvalidArgument());
    servers_.clear();
  }
  // Gap: shard 1 is served by nobody.
  {
    const std::vector<std::string> endpoints = StartServers(manifest, {{0}});
    auto connect = serving::RemoteBackend::Connect(endpoints, FastFail());
    ASSERT_FALSE(connect.ok());
    EXPECT_TRUE(connect.status().IsInvalidArgument());
  }
}

// --------------------------------------------------- BackendRef and factory

TEST(BackendRefTest, ParsesExplicitPrefixes) {
  auto snapshot = serving::BackendRef::Parse("snapshot:/tmp/lake.d3l");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->kind, serving::BackendRef::Kind::kSnapshot);
  EXPECT_EQ(snapshot->path, "/tmp/lake.d3l");
  EXPECT_EQ(snapshot->ToString(), "snapshot:/tmp/lake.d3l");

  auto manifest = serving::BackendRef::Parse("manifest:deploy.manifest");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->kind, serving::BackendRef::Kind::kManifest);
  EXPECT_EQ(manifest->ToString(), "manifest:deploy.manifest");

  auto remote = serving::BackendRef::Parse("tcp:10.0.0.1:7001,10.0.0.2:7002");
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->kind, serving::BackendRef::Kind::kRemote);
  ASSERT_EQ(remote->endpoints.size(), 2u);
  EXPECT_EQ(remote->endpoints[0], "10.0.0.1:7001");
  EXPECT_EQ(remote->endpoints[1], "10.0.0.2:7002");
  EXPECT_EQ(remote->ToString(), "tcp:10.0.0.1:7001,10.0.0.2:7002");
}

TEST(BackendRefTest, RejectsMalformedSpecs) {
  EXPECT_TRUE(serving::BackendRef::Parse("").status().IsInvalidArgument());
  EXPECT_TRUE(
      serving::BackendRef::Parse("snapshot:").status().IsInvalidArgument());
  EXPECT_TRUE(
      serving::BackendRef::Parse("manifest:").status().IsInvalidArgument());
  EXPECT_TRUE(serving::BackendRef::Parse("tcp:").status().IsInvalidArgument());
  EXPECT_TRUE(
      serving::BackendRef::Parse("tcp:nohost").status().IsInvalidArgument());
  EXPECT_TRUE(serving::BackendRef::Parse("tcp:host:1,:2")
                  .status()
                  .IsInvalidArgument());
  // A bare path that does not exist cannot be sniffed.
  EXPECT_FALSE(serving::BackendRef::Parse("/does/not/exist.d3l").ok());
}

TEST_F(RemoteTest, BarePathsAreSniffedByMagic) {
  DataLake lake = testutil::FigureLake(1);
  core::D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  const std::string snapshot_path = Base("sniff.d3l");
  ASSERT_TRUE(engine.SaveSnapshot(snapshot_path).ok());
  const std::string manifest_path = BuildDeployment(lake, 2, "sniff");

  auto snapshot = serving::BackendRef::Parse(snapshot_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->kind, serving::BackendRef::Kind::kSnapshot);

  auto manifest = serving::BackendRef::Parse(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->kind, serving::BackendRef::Kind::kManifest);

  // A real file of the wrong format is rejected with a clear error.
  const std::string csv_path = Base("not_a_container.csv");
  ASSERT_TRUE(WriteCsvFile(testutil::FigureS1(), csv_path).ok());
  EXPECT_FALSE(serving::BackendRef::Parse(csv_path).ok());
}

TEST_F(RemoteTest, OpenBackendOpensAllThreeKinds) {
  DataLake lake = testutil::FigureLake(2);
  core::D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  const std::string snapshot_path = Base("factory.d3l");
  ASSERT_TRUE(engine.SaveSnapshot(snapshot_path).ok());
  const std::string manifest_path = BuildDeployment(lake, 2, "factory");

  auto from_snapshot = serving::OpenBackend("snapshot:" + snapshot_path);
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status().ToString();
  EXPECT_EQ((*from_snapshot)->Info().kind, serving::BackendKind::kEngine);

  auto from_manifest = serving::OpenBackend(manifest_path);  // sniffed
  ASSERT_TRUE(from_manifest.ok()) << from_manifest.status().ToString();
  EXPECT_EQ((*from_manifest)->Info().kind, serving::BackendKind::kSharded);

  const std::vector<std::string> endpoints =
      StartServers(manifest_path, {{0, 1}});
  serving::OpenBackendOptions options;
  options.remote = FastFail();
  auto from_tcp = serving::OpenBackend("tcp:" + endpoints[0], options);
  ASSERT_TRUE(from_tcp.ok()) << from_tcp.status().ToString();
  EXPECT_EQ((*from_tcp)->Info().kind, serving::BackendKind::kRemote);

  // All three answer the same query identically (the API-redesign point:
  // one factory, one interface, interchangeable deployments).
  const Table target = testutil::FigureTarget();
  auto a = (*from_snapshot)->Search(target, 5);
  auto b = (*from_manifest)->Search(target, 5);
  auto c = (*from_tcp)->Search(target, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ExpectIdenticalResults(*a, *b, "snapshot vs manifest");
  ExpectIdenticalResults(*a, *c, "snapshot vs remote");
}

// ------------------------------------------- EngineBackend fingerprint fix

TEST_F(RemoteTest, EngineBackendFingerprintTracksSourceIdentity) {
  // Two directories whose lakes have IDENTICAL schemas but different cell
  // content — before the source-identity fix these collided, so a service
  // swapping one for the other kept serving stale cached results.
  const fs::path dir_a = dir_ / "lake_a";
  const fs::path dir_b = dir_ / "lake_b";
  fs::create_directories(dir_a);
  fs::create_directories(dir_b);
  Table t1 = testutil::FigureS1();
  ASSERT_TRUE(WriteCsvFile(t1, (dir_a / "t.csv").string()).ok());
  Table t2 = testutil::FigureS1();
  t2.column(0).Append("Extra Practice");
  t2.column(1).Append("1 New St");
  t2.column(2).Append("Leeds");
  t2.column(3).Append("LS1 1AA");
  t2.column(4).Append("500");
  ASSERT_TRUE(WriteCsvFile(t2, (dir_b / "t.csv").string()).ok());

  DataLake lake_a, lake_b, lake_a2;
  ASSERT_TRUE(lake_a.LoadDirectory(dir_a.string()).ok());
  ASSERT_TRUE(lake_b.LoadDirectory(dir_b.string()).ok());
  ASSERT_TRUE(lake_a2.LoadDirectory(dir_a.string()).ok());

  core::D3LEngine engine_a, engine_b, engine_a2;
  ASSERT_TRUE(engine_a.IndexLake(lake_a).ok());
  ASSERT_TRUE(engine_b.IndexLake(lake_b).ok());
  ASSERT_TRUE(engine_a2.IndexLake(lake_a2).ok());

  const uint64_t fp_a = serving::EngineBackend(&engine_a, &lake_a)
                            .Info().index_fingerprint;
  const uint64_t fp_b = serving::EngineBackend(&engine_b, &lake_b)
                            .Info().index_fingerprint;
  const uint64_t fp_a2 = serving::EngineBackend(&engine_a2, &lake_a2)
                             .Info().index_fingerprint;
  EXPECT_NE(fp_a, fp_b) << "different lake content must not share a "
                           "cache identity";
  EXPECT_EQ(fp_a, fp_a2) << "the same files must reproduce the same identity";
}

}  // namespace
}  // namespace d3l
