#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "stats/descriptive.h"
#include "stats/empirical.h"
#include "stats/ks.h"

namespace d3l {
namespace {

TEST(KsTest, IdenticalSamplesGiveZero) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
}

TEST(KsTest, DisjointSamplesGiveOne) {
  EXPECT_DOUBLE_EQ(KsStatistic({1, 2, 3}, {10, 11, 12}), 1.0);
}

TEST(KsTest, EmptySampleGivesOne) {
  EXPECT_DOUBLE_EQ(KsStatistic({}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(KsStatistic({1, 2}, {}), 1.0);
}

TEST(KsTest, SymmetricAndUnsortedInputs) {
  std::vector<double> a = {5, 1, 3, 2, 4};
  std::vector<double> b = {2.5, 6, 0.5, 3.5};
  EXPECT_DOUBLE_EQ(KsStatistic(a, b), KsStatistic(b, a));
}

TEST(KsTest, SameDistributionSmallStatistic) {
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.Gaussian(10, 2));
  for (int i = 0; i < 2000; ++i) b.push_back(rng.Gaussian(10, 2));
  double d = KsStatistic(a, b);
  EXPECT_LT(d, 0.06);
  // The same-distribution p-value should not be tiny.
  EXPECT_GT(KsPValue(d, a.size(), b.size()), 0.01);
}

TEST(KsTest, DifferentDistributionsLargeStatistic) {
  Rng rng(2);
  std::vector<double> age;
  std::vector<double> money;
  for (int i = 0; i < 1000; ++i) age.push_back(rng.UniformDouble(0, 100));
  for (int i = 0; i < 1000; ++i) money.push_back(std::exp(rng.Gaussian(8, 1.2)));
  double d = KsStatistic(age, money);
  EXPECT_GT(d, 0.5);
  EXPECT_LT(KsPValue(d, age.size(), money.size()), 1e-6);
}

TEST(KsTest, ShiftDetected) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) a.push_back(rng.Gaussian(0, 1));
  for (int i = 0; i < 1000; ++i) b.push_back(rng.Gaussian(1.0, 1));
  EXPECT_GT(KsStatistic(a, b), 0.3);
}

/// Reference KS straight from the definition: the largest ECDF gap over
/// every observed value, counting each sample in full per point.
double BruteForceKs(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || b.empty()) return 1.0;
  const auto ecdf_count = [](const std::vector<double>& s, double x) {
    return static_cast<double>(std::count_if(s.begin(), s.end(),
                                             [x](double v) { return v <= x; }));
  };
  double d = 0;
  for (const std::vector<double>* side : {&a, &b}) {
    for (double x : *side) {
      d = std::max(d, std::fabs(ecdf_count(a, x) / static_cast<double>(a.size()) -
                                ecdf_count(b, x) / static_cast<double>(b.size())));
    }
  }
  return d;
}

TEST(KsTest, SortedKernelMatchesDefinitionOnTiedRandomSamples) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // Small integer ranges force ties within and across the samples; signed
    // zeros compare equal and must merge as ties too.
    const size_t na = 1 + rng.Uniform(40);
    const size_t nb = 1 + rng.Uniform(40);
    const uint64_t range = 1 + rng.Uniform(12);
    std::vector<double> a;
    std::vector<double> b;
    for (size_t i = 0; i < na; ++i) a.push_back(static_cast<double>(rng.Uniform(range)));
    for (size_t i = 0; i < nb; ++i) b.push_back(static_cast<double>(rng.Uniform(range)));
    if (trial % 5 == 0) {
      a.push_back(-0.0);
      b.push_back(0.0);
    }
    const double expected = BruteForceKs(a, b);
    EXPECT_EQ(KsStatistic(a, b), expected) << "trial " << trial;

    std::vector<double> sa = a;
    std::vector<double> sb = b;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    ASSERT_TRUE(IsKsSample(sa));
    ASSERT_TRUE(IsKsSample(sb));
    EXPECT_EQ(KsStatisticSorted(sa, sb), expected) << "trial " << trial;
    EXPECT_EQ(KsStatisticSorted(sb, sa), expected) << "trial " << trial;
  }
  EXPECT_DOUBLE_EQ(KsStatisticSorted({}, std::vector<double>{1.0}), 1.0);
}

TEST(KsTest, NanValuesAreDroppedNotMerged) {
  // A NaN compares false both ways, so merging it would never advance.
  const double nan = std::nan("");
  EXPECT_EQ(KsStatistic({1, 2, nan, 4}, {1.5, 2.5, 3.5}),
            KsStatistic({1, 2, 4}, {1.5, 2.5, 3.5}));
  EXPECT_DOUBLE_EQ(KsStatistic({nan}, {1}), 1.0);  // nothing left to compare
}

TEST(KsTest, IsKsSampleRequiresAscendingNanFreeValues) {
  EXPECT_TRUE(IsKsSample(std::vector<double>{}));
  EXPECT_TRUE(IsKsSample(std::vector<double>{1, 1, 2, 5}));
  EXPECT_TRUE(IsKsSample(std::vector<double>{-0.0, 0.0, -0.0}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{2, 1}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{1, std::nan(""), 2}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{std::nan("")}));
}

TEST(EmpiricalTest, CdfAndCcdf) {
  EmpiricalDistribution d({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(4), 1.0);
  EXPECT_DOUBLE_EQ(d.Ccdf(1), 0.75);
  EXPECT_DOUBLE_EQ(d.Ccdf(4), 0.0);
}

TEST(EmpiricalTest, EmptyDistribution) {
  EmpiricalDistribution d({});
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.Ccdf(0.5), 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
}

TEST(EmpiricalTest, Quantiles) {
  EmpiricalDistribution d({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(d.Quantile(0), 1);
  EXPECT_DOUBLE_EQ(d.Quantile(1), 5);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 3);
  EXPECT_DOUBLE_EQ(d.min(), 1);
  EXPECT_DOUBLE_EQ(d.max(), 5);
}

TEST(EmpiricalTest, SmallestValueGetsLargestCcdfWeight) {
  // The Eq. 2 intuition: the smallest distance has the highest weight.
  EmpiricalDistribution d({0.1, 0.5, 0.9});
  EXPECT_GT(d.Ccdf(0.1), d.Ccdf(0.5));
  EXPECT_GT(d.Ccdf(0.5), d.Ccdf(0.9));
}

TEST(DescriptiveTest, Summarize) {
  Summary s = Summarize({2, 4, 6});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4);
  EXPECT_DOUBLE_EQ(s.min, 2);
  EXPECT_DOUBLE_EQ(s.max, 6);
  EXPECT_NEAR(s.variance, 8.0 / 3.0, 1e-12);
  Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
}

TEST(DescriptiveTest, JaccardAndOverlap) {
  EXPECT_DOUBLE_EQ(JaccardFromCounts(2, 4, 4), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(JaccardFromCounts(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficientFromCounts(2, 2, 10), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficientFromCounts(0, 0, 5), 0.0);
}

}  // namespace
}  // namespace d3l
