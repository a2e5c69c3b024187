#include "data/text_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/prng.h"
#include "data/zipf.h"

namespace bayeslsh {

namespace {

uint32_t SampleDocLength(Xoshiro256StarStar& rng,
                         const TextCorpusConfig& cfg) {
  // Log-normal with the requested mean: mu = log(mean) - sigma^2 / 2.
  const double mu =
      std::log(cfg.avg_doc_len) - 0.5 * cfg.doc_len_sigma * cfg.doc_len_sigma;
  const double len =
      std::exp(mu + cfg.doc_len_sigma * rng.NextGaussian());
  return std::max<uint32_t>(cfg.min_doc_len,
                            static_cast<uint32_t>(std::lround(len)));
}

std::vector<DimId> SampleTokens(Xoshiro256StarStar& rng,
                                const ZipfSampler& zipf, uint32_t len) {
  std::vector<DimId> tokens(len);
  for (auto& t : tokens) t = zipf.Sample(rng);
  return tokens;
}

// Resamples each token independently with probability `rate`.
std::vector<DimId> MutateTokens(Xoshiro256StarStar& rng,
                                const ZipfSampler& zipf,
                                const std::vector<DimId>& base, double rate) {
  std::vector<DimId> out = base;
  for (auto& t : out) {
    if (rng.NextUnit() < rate) t = zipf.Sample(rng);
  }
  return out;
}

void AddBagOfWords(DatasetBuilder& builder, std::vector<DimId> tokens) {
  std::vector<std::pair<DimId, float>> entries;
  entries.reserve(tokens.size());
  for (DimId t : tokens) entries.emplace_back(t, 1.0f);
  builder.AddRow(std::move(entries));  // Builder merges duplicate tokens.
}

}  // namespace

Dataset GenerateTextCorpus(const TextCorpusConfig& config) {
  if (config.cluster_size == 0 ||
      static_cast<uint64_t>(config.num_clusters) * config.cluster_size >
          config.num_docs) {
    throw std::invalid_argument(
        "TextCorpusConfig: cluster_size must be at least 1 and the planted "
        "clusters (num_clusters * cluster_size) must fit in num_docs");
  }
  Xoshiro256StarStar rng(config.seed);
  const ZipfSampler zipf(config.vocab_size, config.zipf_exponent);
  DatasetBuilder builder(config.vocab_size);

  // Planted clusters first.
  for (uint32_t c = 0; c < config.num_clusters; ++c) {
    const uint32_t len = SampleDocLength(rng, config);
    const std::vector<DimId> base = SampleTokens(rng, zipf, len);
    AddBagOfWords(builder, base);
    for (uint32_t d = 1; d < config.cluster_size; ++d) {
      const double rate = rng.NextUniform(config.mutation_min,
                                          config.mutation_max);
      AddBagOfWords(builder, MutateTokens(rng, zipf, base, rate));
    }
  }
  // Background documents.
  while (builder.num_rows() < config.num_docs) {
    AddBagOfWords(builder,
                  SampleTokens(rng, zipf, SampleDocLength(rng, config)));
  }
  return std::move(builder).Build();
}

}  // namespace bayeslsh
