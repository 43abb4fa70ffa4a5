#include "core/aggregation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace d3l::core {

namespace {
constexpr double kWeightFloor = 1e-6;
}

DistanceDistributions::DistanceDistributions(size_t num_target_columns)
    : num_columns_(num_target_columns) {
  samples_.assign(num_columns_, std::vector<std::vector<double>>(kNumEvidence));
}

void DistanceDistributions::Observe(uint32_t target_column, Evidence t,
                                    double distance) {
  assert(!finalized_);
  assert(target_column < num_columns_);
  samples_[target_column][static_cast<size_t>(t)].push_back(distance);
}

void DistanceDistributions::Finalize() {
  assert(!finalized_);
  frozen_.reserve(num_columns_);
  for (auto& col_samples : samples_) {
    std::vector<EmpiricalDistribution> col;
    col.reserve(kNumEvidence);
    for (auto& s : col_samples) {
      col.emplace_back(std::move(s));
    }
    frozen_.push_back(std::move(col));
  }
  samples_.clear();
  finalized_ = true;
}

double DistanceDistributions::Weight(uint32_t target_column, Evidence t,
                                     double x) const {
  assert(finalized_);
  assert(target_column < num_columns_);
  const EmpiricalDistribution& dist = frozen_[target_column][static_cast<size_t>(t)];
  if (dist.empty()) return kWeightFloor;
  return std::max(dist.Ccdf(x), kWeightFloor);
}

EvidenceWeights EvidenceWeights::Default() {
  // Magnitude-normalized coefficients of the logistic-regression classifier
  // trained on (related, unrelated) pairs from the synthetic benchmark
  // ground truth (procedure of Section III-D; reproduced end-to-end by
  // LearnEvidenceWeights and tests/weights_test.cc). Value and embedding
  // evidence dominate; format is the weakest individual signal, matching
  // the paper's Experiment 1.
  EvidenceWeights ew;
  ew.w = {0.18, 0.31, 0.11, 0.26, 0.14};
  return ew;
}

EvidenceWeights EvidenceWeights::Uniform() {
  EvidenceWeights ew;
  ew.w = {0.2, 0.2, 0.2, 0.2, 0.2};
  return ew;
}

DistanceVector AggregateDataset(const std::vector<PairDistances>& rows,
                                const DistanceDistributions& dists) {
  DistanceVector out = MaxDistances();
  if (rows.empty()) return out;
  for (size_t t = 0; t < kNumEvidence; ++t) {
    double num = 0;
    double den = 0;
    for (const PairDistances& row : rows) {
      double w =
          dists.Weight(row.target_column, static_cast<Evidence>(t), row.d[t]);
      num += w * row.d[t];
      den += w;
    }
    out[t] = den > 0 ? num / den : 1.0;
  }
  return out;
}

double CombineDistances(const DistanceVector& dv, const EvidenceWeights& weights) {
  double num = 0;
  double den = 0;
  for (size_t t = 0; t < kNumEvidence; ++t) {
    double x = weights.w[t] * dv[t];
    num += x * x;
    den += weights.w[t];
  }
  if (den <= 0) return 1.0;
  return std::sqrt(num / den);
}

EvidenceWeights MaskedWeights(EvidenceWeights weights,
                              const std::array<bool, kNumEvidence>& mask) {
  for (size_t t = 0; t < kNumEvidence; ++t) {
    if (!mask[t]) weights.w[t] = 0;
  }
  return weights;
}

}  // namespace d3l::core
