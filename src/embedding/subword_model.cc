#include "embedding/subword_model.h"

#include <utility>

#include "common/hash.h"
#include "common/thread_annotations.h"

namespace d3l {

Vec WordEmbeddingModel::EmbedAll(const std::vector<std::string>& words) const {
  Vec acc(dim(), 0.0f);
  if (words.empty()) return acc;
  for (const std::string& w : words) {
    AddInPlace(&acc, Embed(w));
  }
  for (float& x : acc) x = static_cast<float>(x / static_cast<double>(words.size()));
  return acc;
}

SubwordHashModel::SubwordHashModel(SubwordModelOptions options)
    : options_(options) {
  buckets_.resize(options_.num_buckets * options_.dim);
  for (size_t b = 0; b < options_.num_buckets; ++b) {
    uint64_t bucket_key = HashCombine(options_.seed, b);
    for (size_t j = 0; j < options_.dim; ++j) {
      buckets_[b * options_.dim + j] =
          static_cast<float>(GaussianFromKey(HashCombine(bucket_key, j)));
    }
  }
}

void SubwordHashModel::AccumulateBucket(uint64_t bucket, Vec* acc) const {
  const float* v = &buckets_[bucket * options_.dim];
  for (size_t j = 0; j < options_.dim; ++j) {
    (*acc)[j] += v[j];
  }
}

Vec SubwordHashModel::Embed(std::string_view word) const {
  Vec acc(options_.dim, 0.0f);
  if (word.empty()) return acc;

  // Boundary-marked word, as fastText does ("<word>").
  std::string marked;
  marked.reserve(word.size() + 2);
  marked += '<';
  marked.append(word);
  marked += '>';

  // Whole-word bucket.
  AccumulateBucket(HashString(marked, options_.seed) % options_.num_buckets, &acc);

  // Character n-gram buckets.
  for (size_t n = options_.min_ngram; n <= options_.max_ngram; ++n) {
    if (marked.size() < n) break;
    for (size_t i = 0; i + n <= marked.size(); ++i) {
      uint64_t h = HashBytes(marked.data() + i, n, options_.seed ^ n);
      AccumulateBucket(h % options_.num_buckets, &acc);
    }
  }
  Normalize(&acc);
  return acc;
}

std::shared_ptr<const SubwordHashModel> SharedSubwordModel(
    const SubwordModelOptions& options) {
  // Models live as long as the process: one per distinct option set, never
  // rebuilt. Construction happens under the lock on purpose — the table
  // build is the expensive part, and racing callers would otherwise each
  // build one.
  struct Registry {
    Mutex mu;
    std::vector<std::pair<SubwordModelOptions, std::shared_ptr<const SubwordHashModel>>>
        entries D3L_GUARDED_BY(mu);
  };
  static Registry registry;

  MutexLock lock(registry.mu);
  for (const auto& [opts, model] : registry.entries) {
    if (opts == options) return model;
  }
  auto model = std::make_shared<const SubwordHashModel>(options);
  registry.entries.emplace_back(options, model);
  return model;
}

const Vec& CachingEmbedder::Embed(const std::string& word) {
  auto it = cache_.find(word);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(word, model_->Embed(word)).first->second;
}

}  // namespace d3l
