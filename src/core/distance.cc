#include "core/distance.h"

#include <algorithm>

#include "stats/ks.h"

namespace d3l::core {

namespace {

// True iff `id` appears in the threshold lookup of any of the four indexes
// for the given query signatures (the existential I* interpretation).
bool RelatedUnderAnyIndex(const D3LIndexes& indexes, const AttributeSignatures& query,
                          uint32_t id) {
  for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                     Evidence::kEmbedding}) {
    std::vector<uint32_t> hits = indexes.LookupThreshold(e, query);
    if (std::find(hits.begin(), hits.end(), id) != hits.end()) return true;
  }
  return false;
}

bool InThresholdLookup(const D3LIndexes& indexes, Evidence e,
                       const AttributeSignatures& query, uint32_t id) {
  std::vector<uint32_t> hits = indexes.LookupThreshold(e, query);
  return std::find(hits.begin(), hits.end(), id) != hits.end();
}

}  // namespace

double ComputeDistributionDistance(const D3LIndexes& indexes,
                                   const AttributeProfile& target_profile,
                                   const AttributeSignatures& target_sigs,
                                   uint32_t candidate_id,
                                   const DistributionGuardContext& guard) {
  const IndexedAttribute& cand = indexes.profile(candidate_id);
  if (!target_profile.is_numeric || !cand.is_numeric) return 1.0;
  if (target_profile.numeric_sample.empty() || cand.numeric_sample.empty()) return 1.0;

  // Algorithm 2, line 4: subject attributes related under I*.
  bool guard_passed = false;
  if (guard.target_subject != nullptr && guard.source_subject_id != UINT32_MAX) {
    guard_passed =
        RelatedUnderAnyIndex(indexes, *guard.target_subject, guard.source_subject_id);
  }
  // Lines 5-6: a' in IN.lookup(a) or a' in IF.lookup(a).
  if (!guard_passed) {
    guard_passed = InThresholdLookup(indexes, Evidence::kName, target_sigs, candidate_id);
  }
  if (!guard_passed) {
    guard_passed =
        InThresholdLookup(indexes, Evidence::kFormat, target_sigs, candidate_id);
  }
  if (!guard_passed) return 1.0;  // line 7

  return KsStatistic(target_profile.numeric_sample, cand.numeric_sample);
}

std::vector<uint32_t> SubjectIStar(const D3LIndexes& indexes,
                                   const AttributeSignatures* target_subject) {
  std::vector<uint32_t> istar;
  if (target_subject == nullptr) return istar;
  for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                     Evidence::kEmbedding}) {
    const std::vector<uint32_t> hits = indexes.LookupThreshold(e, *target_subject);
    istar.insert(istar.end(), hits.begin(), hits.end());
  }
  std::sort(istar.begin(), istar.end());
  istar.erase(std::unique(istar.begin(), istar.end()), istar.end());
  return istar;
}

double ComputeDistributionDistanceFast(const D3LIndexes& indexes,
                                       const AttributeProfile& target_profile,
                                       uint32_t candidate_id,
                                       const PrecomputedGuards& guards,
                                       uint32_t source_subject_id) {
  const IndexedAttribute& cand = indexes.profile(candidate_id);
  if (!target_profile.is_numeric || !cand.is_numeric) return 1.0;
  if (target_profile.numeric_sample.empty() || cand.numeric_sample.empty()) return 1.0;

  const auto contains = [](const std::vector<uint32_t>& set, uint32_t id) {
    return std::binary_search(set.begin(), set.end(), id);
  };
  bool guard_passed = (source_subject_id != UINT32_MAX &&
                       contains(guards.target_subject_istar, source_subject_id)) ||
                      contains(guards.name_hits, candidate_id) ||
                      contains(guards.format_hits, candidate_id);
  if (!guard_passed) return 1.0;
  return KsStatisticSorted(target_profile.numeric_sample, cand.numeric_sample);
}

DistanceVector ComputeDistances(const D3LIndexes& indexes,
                                const AttributeProfile& target_profile,
                                const AttributeSignatures& target_sigs,
                                uint32_t candidate_id,
                                const DistributionGuardContext& guard) {
  DistanceVector d = MaxDistances();
  d[static_cast<size_t>(Evidence::kName)] =
      indexes.EstimateDistance(Evidence::kName, target_sigs, candidate_id);
  d[static_cast<size_t>(Evidence::kValue)] =
      indexes.EstimateDistance(Evidence::kValue, target_sigs, candidate_id);
  d[static_cast<size_t>(Evidence::kFormat)] =
      indexes.EstimateDistance(Evidence::kFormat, target_sigs, candidate_id);
  d[static_cast<size_t>(Evidence::kEmbedding)] =
      indexes.EstimateDistance(Evidence::kEmbedding, target_sigs, candidate_id);
  d[static_cast<size_t>(Evidence::kDistribution)] = ComputeDistributionDistance(
      indexes, target_profile, target_sigs, candidate_id, guard);
  return d;
}

}  // namespace d3l::core
