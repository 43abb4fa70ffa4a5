// Micro-benchmarks (google-benchmark) for the LSH substrate: MinHash
// signing, Jaccard estimation, LSH Forest queries, banded lookups and
// random-projection signing. Not a paper exhibit; used to track substrate
// regressions.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "lsh/lsh_banding.h"
#include "lsh/lsh_forest.h"
#include "lsh/minhash.h"
#include "lsh/simhash.h"

namespace d3l {
namespace {

std::vector<std::string> MakeTokens(size_t n, uint64_t salt) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back("token_" + std::to_string(salt) + "_" + std::to_string(i));
  }
  return out;
}

void BM_MinHashSign(benchmark::State& state) {
  MinHasher hasher(256, 7);
  auto tokens = MakeTokens(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Sign(tokens));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MinHashSign)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_EstimateJaccard(benchmark::State& state) {
  MinHasher hasher(256, 7);
  Signature a = hasher.Sign(MakeTokens(200, 1));
  Signature b = hasher.Sign(MakeTokens(200, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJaccard(a, b));
  }
}
BENCHMARK(BM_EstimateJaccard);

void BM_ForestQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MinHasher hasher(256, 7);
  LshForest forest;
  for (uint32_t i = 0; i < n; ++i) {
    forest.Insert(i, hasher.Sign(MakeTokens(60, i)));
  }
  forest.Index();
  Signature q = hasher.Sign(MakeTokens(60, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Query(q, 32));
  }
}
BENCHMARK(BM_ForestQuery)->Arg(1000)->Arg(10000)->Arg(25000);

void BM_BandedQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MinHasher hasher(256, 7);
  BandedLsh index;
  for (uint32_t i = 0; i < n; ++i) {
    index.Insert(i, hasher.Sign(MakeTokens(60, i)));
  }
  index.Index();
  Signature q = hasher.Sign(MakeTokens(60, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(q));
  }
}
BENCHMARK(BM_BandedQuery)->Arg(1000)->Arg(10000);

void BM_RandomProjectionSign(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  RandomProjectionHasher hasher(dim, 256, 7);
  Rng rng(1);
  Vec v(dim);
  for (float& x : v) x = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Sign(v));
  }
}
BENCHMARK(BM_RandomProjectionSign)->Arg(32)->Arg(64)->Arg(128);

void BM_HammingEstimate(benchmark::State& state) {
  RandomProjectionHasher hasher(64, 256, 7);
  Rng rng(2);
  Vec a(64);
  Vec b(64);
  for (float& x : a) x = static_cast<float>(rng.Gaussian());
  for (float& x : b) x = static_cast<float>(rng.Gaussian());
  BitSignature sa = hasher.Sign(a);
  BitSignature sb = hasher.Sign(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateCosine(sa, sb));
  }
}
BENCHMARK(BM_HammingEstimate);

}  // namespace
}  // namespace d3l

BENCHMARK_MAIN();
