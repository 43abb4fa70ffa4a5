// The distance aggregation framework of Section III-D.
//
// For each candidate dataset S, the per-attribute-pair distance vectors are
// aggregated column-wise into one 5-vector using Eq. 1, with the Eq. 2
// weights: w_i_t = 1 - P(d <= D_i_t) over R_t, the distribution of type-t
// distances between the target attribute of the pair and every related
// attribute in the lake. The 5-vector is reduced to a scalar with Eq. 3,
// the weighted l2-norm with learned evidence weights.
#pragma once

#include <vector>

#include "core/evidence.h"
#include "stats/empirical.h"

namespace d3l::core {

/// \brief One row of a Table-I-like structure: the pair (target attribute,
/// lake attribute) and its five distances.
struct PairDistances {
  uint32_t target_column = 0;  ///< column index within the target table
  uint32_t attribute_id = 0;   ///< registry id of the lake attribute
  DistanceVector d = MaxDistances();
};

/// \brief Per-target-column, per-evidence distance distributions (R_t).
///
/// Populated during search with the distances from each target attribute to
/// every retrieved candidate; queried for CCDF weights.
class DistanceDistributions {
 public:
  explicit DistanceDistributions(size_t num_target_columns);

  /// Records an observed distance of type t for a target column.
  void Observe(uint32_t target_column, Evidence t, double distance);

  /// Freezes the samples into sorted empirical distributions.
  void Finalize();

  /// Eq. 2: 1 - P(d <= x) over R_t of the target column. A small floor
  /// keeps degenerate (all-equal) distributions from zeroing every weight.
  double Weight(uint32_t target_column, Evidence t, double x) const;

 private:
  size_t num_columns_;
  // [column][evidence] -> raw sample, then frozen distribution
  std::vector<std::vector<std::vector<double>>> samples_;
  std::vector<std::vector<EmpiricalDistribution>> frozen_;
  bool finalized_ = false;
};

/// \brief Eq. 3 evidence weights (relative importance of each type).
struct EvidenceWeights {
  std::array<double, kNumEvidence> w = {1, 1, 1, 1, 1};

  /// Weights from the logistic-regression training procedure of Section
  /// III-D (see weights.h / LearnEvidenceWeights); baked-in defaults come
  /// from a training run on the synthetic benchmark ground truth.
  static EvidenceWeights Default();

  /// Uniform weights (used by single-evidence ablations).
  static EvidenceWeights Uniform();

  bool operator==(const EvidenceWeights&) const = default;
};

/// \brief Eq. 1: column-wise weighted average of the pair rows of one
/// candidate dataset, yielding its 5-vector. Rows must share the dataset.
DistanceVector AggregateDataset(const std::vector<PairDistances>& rows,
                                const DistanceDistributions& dists);

/// \brief Eq. 3: weighted l2-norm of a 5-vector,
/// sqrt( sum_t (w_t * dv[t])^2 / sum_t w_t ).
double CombineDistances(const DistanceVector& dv, const EvidenceWeights& weights);

/// \brief `weights` with every evidence type the mask disables set to 0, so
/// Eq. 3 combines only the enabled types.
EvidenceWeights MaskedWeights(EvidenceWeights weights,
                              const std::array<bool, kNumEvidence>& mask);

}  // namespace d3l::core
