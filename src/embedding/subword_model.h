// Word-embedding model (WEM) used for evidence type E.
//
// SUBSTITUTION NOTE: the paper uses a pre-trained fastText model, which
// cannot ship with this repository. fastText composes a word vector as the
// sum of hash-bucketed character n-gram vectors; we implement exactly that
// structure with deterministic, hash-seeded Gaussian bucket vectors. The
// properties D3L relies on are preserved: every token has a dense p-vector,
// orthographically/morphologically close tokens (typos, abbreviations,
// inflections) land close in cosine space, and averaging composes vectors.
// Distributional semantics of unrelated surface forms are NOT captured.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "embedding/vector_ops.h"

namespace d3l {

/// \brief Abstract word-embedding model: words to p-dimensional vectors.
class WordEmbeddingModel {
 public:
  virtual ~WordEmbeddingModel() = default;

  /// Embedding dimensionality p.
  virtual size_t dim() const = 0;

  /// Returns the (unit-norm) vector for a word.
  virtual Vec Embed(std::string_view word) const = 0;

  /// Mean vector of a token sequence; zero vector if empty.
  Vec EmbedAll(const std::vector<std::string>& words) const;
};

struct SubwordModelOptions {
  size_t dim = 64;            ///< p, the embedding dimensionality
  size_t min_ngram = 3;       ///< shortest character n-gram
  size_t max_ngram = 5;       ///< longest character n-gram
  /// n-gram hash buckets. The bucket-vector table (num_buckets * dim
  /// floats) is materialized at construction; 2^16 buckets * 64 dims is
  /// 16 MB, ample for benchmark-scale vocabularies (fastText itself uses
  /// 2M buckets for web-scale corpora).
  size_t num_buckets = 1 << 16;
  uint64_t seed = 0x5eed0001;

  bool operator==(const SubwordModelOptions&) const = default;
};

/// \brief fastText-style subword-hash embedding (see file comment).
///
/// The vector of word w is the L2-normalized sum of the bucket vectors of
/// all character n-grams of "<w>" (with boundary markers, as in fastText)
/// plus a whole-word bucket vector. Bucket vectors are standard Gaussians
/// derived deterministically from (seed, bucket, component) hashes and
/// materialized once at construction.
class SubwordHashModel : public WordEmbeddingModel {
 public:
  explicit SubwordHashModel(SubwordModelOptions options = {});

  size_t dim() const override { return options_.dim; }
  Vec Embed(std::string_view word) const override;

  const SubwordModelOptions& options() const { return options_; }

 private:
  void AccumulateBucket(uint64_t bucket, Vec* acc) const;

  SubwordModelOptions options_;
  std::vector<float> buckets_;  // [bucket * dim + component]
};

/// \brief Process-wide shared instance of the model for `options`.
///
/// The bucket table is deterministic in the options and immutable after
/// construction, so every engine with equal options can share one instance.
/// That matters for snapshot loads: materializing the table (num_buckets *
/// dim Gaussians) dominates an engine open, and a serving process holds
/// many engines with identical options (shard replicas, reload generations).
/// Backed by a weak registry — models are freed when the last engine using
/// them goes away, and rebuilt on the next request. Thread-safe.
std::shared_ptr<const SubwordHashModel> SharedSubwordModel(
    const SubwordModelOptions& options);

/// \brief Memoizing wrapper: caches vectors of previously embedded words.
class CachingEmbedder {
 public:
  explicit CachingEmbedder(const WordEmbeddingModel* model) : model_(model) {}

  const Vec& Embed(const std::string& word);
  size_t cache_size() const { return cache_.size(); }

 private:
  const WordEmbeddingModel* model_;
  std::unordered_map<std::string, Vec> cache_;
};

}  // namespace d3l
