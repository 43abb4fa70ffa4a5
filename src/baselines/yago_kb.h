// Synthetic YAGO-style knowledge base for the TUS baseline.
//
// SUBSTITUTION NOTE: TUS [Nargesian et al., PVLDB'18] maps
// every value token to YAGO classes at both index and query time, which the
// D3L paper identifies as TUS's dominant cost (Experiments 4-5). Shipping
// YAGO offline is impossible; we preserve the access pattern with a
// dictionary KB (token -> class ids, injectable, e.g. built from the
// benchmark domain vocabulary) plus deterministic hash-bucketed pseudo-
// classes for out-of-dictionary tokens — every token lookup does real work
// and returns plausible class sets, as YAGO lookups would.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace d3l::baselines {

class YagoKb {
 public:
  using Dictionary = std::unordered_map<std::string, std::vector<uint32_t>>;

  /// \param dictionary curated token -> class ids (class ids < 1000)
  /// \param fallback_classes number of pseudo-class buckets for unknown tokens
  explicit YagoKb(Dictionary dictionary, size_t fallback_classes = 4096,
                  uint64_t seed = 0x9a90);

  /// Classes of a token: the leaf classes (dictionary hit, or two pseudo-
  /// classes derived from stable hashes of the token and its 4-prefix, so
  /// orthographically close unknown tokens sometimes share a class) plus
  /// the transitive *type-hierarchy closure* of each leaf — TUS annotates
  /// tokens with all YAGO supertypes, and walking that hierarchy is part
  /// of the per-token cost the D3L paper measures in Experiments 4-5.
  std::vector<uint32_t> ClassesOf(const std::string& token) const;

  /// Supertype chain depth applied to every leaf class (default 4).
  size_t hierarchy_depth() const { return hierarchy_depth_; }

  size_t dictionary_size() const { return dictionary_.size(); }

  /// Total ClassesOf calls (instrumentation for the efficiency benches).
  uint64_t lookup_count() const { return lookups_.load(); }

 private:
  Dictionary dictionary_;
  size_t fallback_classes_;
  uint64_t seed_;
  size_t hierarchy_depth_ = 4;
  mutable std::atomic<uint64_t> lookups_{0};
};

}  // namespace d3l::baselines
