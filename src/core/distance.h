// Pairwise attribute distances, including the guarded D-relatedness
// computation of Algorithm 2.
#pragma once

#include <vector>

#include "core/evidence.h"
#include "core/indexes.h"

namespace d3l::core {

/// \brief Inputs to Algorithm 2 that depend on the query side.
struct DistributionGuardContext {
  /// Signatures of the *subject attribute* of the target table.
  const AttributeSignatures* target_subject = nullptr;
  /// Attribute id of the subject attribute of the candidate's table
  /// (UINT32_MAX when the table has none).
  uint32_t source_subject_id = UINT32_MAX;
};

/// \brief Computes DD(a, a') per Algorithm 2.
///
/// Returns KS over the two numeric samples if (i) the subject attributes of
/// the two tables are related under any index (I*), or (ii) a' is in
/// IN.lookup(a), or (iii) a' is in IF.lookup(a); returns 1 otherwise.
/// Both attributes must be numeric; returns 1 if either is not.
double ComputeDistributionDistance(const D3LIndexes& indexes,
                                   const AttributeProfile& target_profile,
                                   const AttributeSignatures& target_sigs,
                                   uint32_t candidate_id,
                                   const DistributionGuardContext& guard);

/// \brief Full 5-way distance vector between a target attribute (profile +
/// signatures) and an indexed attribute. Missing evidence maps to 1.
DistanceVector ComputeDistances(const D3LIndexes& indexes,
                                const AttributeProfile& target_profile,
                                const AttributeSignatures& target_sigs,
                                uint32_t candidate_id,
                                const DistributionGuardContext& guard);

/// \brief Precomputed Algorithm-2 guard sets, shared across the candidates
/// of one target attribute (avoids re-hashing the query per candidate).
/// Each set is a sorted, deduplicated id vector.
struct PrecomputedGuards {
  /// I* threshold hits of the *target table's subject attribute*
  /// (SubjectIStar; the same for every attribute of one target).
  std::vector<uint32_t> target_subject_istar;
  /// IN / IF threshold hits of the target attribute itself
  /// (D3LIndexes::LookupThreshold).
  std::vector<uint32_t> name_hits;
  std::vector<uint32_t> format_hits;
};

/// \brief The I* set of a target table's subject attribute: ids in the
/// threshold lookup of any of the four indexes, sorted and deduplicated.
/// Empty when `target_subject` is null (the target has no subject). It
/// depends only on the target table, so a query computes it once.
std::vector<uint32_t> SubjectIStar(const D3LIndexes& indexes,
                                   const AttributeSignatures* target_subject);

/// \brief Algorithm 2 with precomputed guard sets. `source_subject_id` is
/// the attribute id of the candidate table's subject attribute (UINT32_MAX
/// if none). Both numeric samples must be ascending and NaN-free, as
/// BuildProfile and the snapshot and query validation guarantee.
double ComputeDistributionDistanceFast(const D3LIndexes& indexes,
                                       const AttributeProfile& target_profile,
                                       uint32_t candidate_id,
                                       const PrecomputedGuards& guards,
                                       uint32_t source_subject_id);

}  // namespace d3l::core
