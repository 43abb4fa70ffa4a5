#include "embedding/subword_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "embedding/vector_ops.h"

namespace d3l {
namespace {

TEST(VectorOpsTest, DotNormCosine) {
  Vec a = {1, 0, 0};
  Vec b = {0, 1, 0};
  Vec c = {2, 0, 0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0);
  EXPECT_DOUBLE_EQ(Norm(c), 2);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(a, c), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(a, b), 1.0);
}

TEST(VectorOpsTest, ZeroVectorCosineIsZeroSim) {
  Vec z = {0, 0};
  Vec a = {1, 1};
  EXPECT_DOUBLE_EQ(CosineSimilarity(z, a), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(z, a), 1.0);
}

TEST(VectorOpsTest, CosineDistanceClampedForAntipodal) {
  Vec a = {1, 0};
  Vec b = {-1, 0};
  // 1 - (-1) = 2, clamped to 1.
  EXPECT_DOUBLE_EQ(CosineDistance(a, b), 1.0);
}

TEST(VectorOpsTest, NormalizeAndMean) {
  Vec v = {3, 4};
  Normalize(&v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-6);  // float components
  Vec m = MeanVector({{1, 1}, {3, 3}});
  EXPECT_FLOAT_EQ(m[0], 2);
  EXPECT_FLOAT_EQ(m[1], 2);
}

class SubwordModelTest : public ::testing::Test {
 protected:
  SubwordHashModel model_;
};

TEST_F(SubwordModelTest, Deterministic) {
  Vec a = model_.Embed("manchester");
  Vec b = model_.Embed("manchester");
  EXPECT_EQ(a, b);
  SubwordHashModel model2;
  EXPECT_EQ(model2.Embed("manchester"), a);
}

TEST_F(SubwordModelTest, UnitNorm) {
  EXPECT_NEAR(Norm(model_.Embed("salford")), 1.0, 1e-5);
  EXPECT_NEAR(Norm(model_.Embed("x")), 1.0, 1e-5);
}

TEST_F(SubwordModelTest, EmptyWordIsZeroVector) {
  EXPECT_DOUBLE_EQ(Norm(model_.Embed("")), 0.0);
}

TEST(SharedSubwordModelTest, ModelOutlivesEveryHolder) {
  // An option set no other test in this binary asks for.
  SubwordModelOptions options;
  options.dim = 8;
  options.num_buckets = 64;
  options.seed = 0x5eed0b0b;
  std::weak_ptr<const SubwordHashModel> first;
  {
    std::shared_ptr<const SubwordHashModel> held = SharedSubwordModel(options);
    first = held;
  }
  // Every holder is gone; the process-wide registry still holds the model,
  // so the next engine with these options reuses it instead of rebuilding.
  ASSERT_FALSE(first.expired());
  EXPECT_EQ(SharedSubwordModel(options), first.lock());

  options.seed += 1;
  EXPECT_NE(SharedSubwordModel(options), first.lock());
}

TEST_F(SubwordModelTest, SharedSubwordsIncreaseSimilarity) {
  // The fastText property D3L relies on: orthographically close tokens are
  // close in cosine space, unrelated tokens are not.
  double typo = CosineSimilarity(model_.Embed("manchester"), model_.Embed("manchestr"));
  double inflection =
      CosineSimilarity(model_.Embed("payment"), model_.Embed("payments"));
  double unrelated = CosineSimilarity(model_.Embed("manchester"), model_.Embed("zq9"));
  EXPECT_GT(typo, 0.5);
  EXPECT_GT(inflection, 0.55);
  EXPECT_LT(unrelated, 0.35);
  EXPECT_GT(typo, unrelated + 0.25);
}

TEST_F(SubwordModelTest, DifferentSeedsGiveDifferentSpaces) {
  SubwordModelOptions opts;
  opts.seed = 0x1234;
  SubwordHashModel other(opts);
  Vec a = model_.Embed("manchester");
  Vec b = other.Embed("manchester");
  EXPECT_NE(a, b);
}

TEST_F(SubwordModelTest, EmbedAllAveragesTokens) {
  Vec all = model_.EmbedAll({"salford", "quays"});
  Vec manual(model_.dim(), 0.0f);
  AddInPlace(&manual, model_.Embed("salford"));
  AddInPlace(&manual, model_.Embed("quays"));
  for (float& x : manual) x /= 2;
  for (size_t i = 0; i < manual.size(); ++i) {
    EXPECT_NEAR(all[i], manual[i], 1e-6);
  }
  EXPECT_DOUBLE_EQ(Norm(model_.EmbedAll({})), 0.0);
}

TEST_F(SubwordModelTest, CachingEmbedderMatchesModel) {
  CachingEmbedder cache(&model_);
  Vec v1 = cache.Embed("bolton");
  Vec v2 = cache.Embed("bolton");
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(cache.cache_size(), 1u);
  EXPECT_EQ(v1, model_.Embed("bolton"));
}

class SubwordDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SubwordDimTest, RespectsConfiguredDimension) {
  SubwordModelOptions opts;
  opts.dim = GetParam();
  SubwordHashModel m(opts);
  EXPECT_EQ(m.dim(), GetParam());
  EXPECT_EQ(m.Embed("word").size(), GetParam());
  EXPECT_NEAR(Norm(m.Embed("word")), 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dims, SubwordDimTest, ::testing::Values(8, 32, 64, 128));

}  // namespace
}  // namespace d3l
