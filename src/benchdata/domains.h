// Built-in value domains used by the benchmark data generators.
//
// SUBSTITUTION NOTE: the paper's repositories are crawled UK/Canadian
// open-data CSVs, which cannot ship with this repository; we replace them
// with seeded generators whose domains reproduce the statistical shape the
// paper reports (Fig. 2) — names, addresses, postcodes, dates, codes, plus
// numeric domains with distinct distributions so the Kolmogorov-Smirnov
// evidence has signal.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace d3l::benchdata {

enum class DomainKind { kText, kNumeric };

/// \brief Static description of one value domain.
struct DomainSpec {
  uint32_t id = 0;
  std::string name;                        ///< e.g. "city"
  DomainKind kind = DomainKind::kText;
  std::vector<std::string> name_synonyms;  ///< attribute-name choices
  size_t num_variants = 1;                 ///< representation variants
  bool entity_like = false;  ///< suitable as a subject attribute domain
};

/// \brief The registry of built-in domains and their value generators.
class DomainRegistry {
 public:
  /// The process-wide registry (immutable).
  static const DomainRegistry& Instance();

  const std::vector<DomainSpec>& domains() const { return specs_; }
  const DomainSpec& spec(uint32_t id) const { return specs_[id]; }
  size_t size() const { return specs_.size(); }

  /// Domain ids with entity_like = true (candidate subject domains).
  std::vector<uint32_t> EntityDomains() const;
  /// Domain ids by kind.
  std::vector<uint32_t> TextDomains() const;
  std::vector<uint32_t> NumericDomains() const;

  /// Generates one clean value of the domain in the given representation
  /// variant (0 <= variant < spec.num_variants). Deterministic given rng.
  std::string GenerateValue(uint32_t id, size_t variant, Rng* rng) const;

  /// Picks an attribute name for the domain (a synonym), deterministically.
  std::string PickAttributeName(uint32_t id, Rng* rng) const;

  /// Token -> domain-id mapping over the registry's text vocabulary; used
  /// to build the synthetic YAGO knowledge base for the TUS baseline.
  std::unordered_map<std::string, std::vector<uint32_t>> BuildKbVocabulary() const;

  /// Id of a domain by name; aborts if unknown (programming error).
  uint32_t IdOf(const std::string& name) const;

 private:
  DomainRegistry();

  std::vector<DomainSpec> specs_;
};

}  // namespace d3l::benchdata
