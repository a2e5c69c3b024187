#include "data/graph_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/prng.h"
#include "data/zipf.h"

namespace bayeslsh {

namespace {

uint32_t SampleDegree(Xoshiro256StarStar& rng, const GraphConfig& cfg) {
  const double mu =
      std::log(cfg.avg_degree) - 0.5 * cfg.degree_sigma * cfg.degree_sigma;
  const double deg = std::exp(mu + cfg.degree_sigma * rng.NextGaussian());
  const auto clamped = std::max<uint32_t>(
      cfg.min_degree, static_cast<uint32_t>(std::lround(deg)));
  return std::min(clamped, cfg.num_nodes - 1);
}

// Draws `count` distinct targets (Zipf over a random permutation of node
// ids, so popularity is not correlated with node id).
std::vector<DimId> SampleTargets(Xoshiro256StarStar& rng,
                                 const ZipfSampler& zipf,
                                 const std::vector<uint32_t>& popularity_perm,
                                 uint32_t count) {
  std::vector<DimId> targets;
  targets.reserve(count);
  // Rejection-sample distinct targets; degree << num_nodes so this is fast.
  uint32_t guard = 0;
  while (targets.size() < count && guard < 50u * count + 100u) {
    ++guard;
    const DimId t = popularity_perm[zipf.Sample(rng)];
    if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
      targets.push_back(t);
    }
  }
  return targets;
}

// Pads a (possibly deduplicated) neighbour list up to min_degree with
// uniform-random distinct targets, so rewiring collisions cannot push a
// node below the configured floor.
void EnsureMinDegree(std::vector<DimId>& nbrs, uint32_t min_degree,
                     uint32_t num_nodes, Xoshiro256StarStar& rng) {
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  while (nbrs.size() < min_degree && nbrs.size() < num_nodes) {
    const auto t = static_cast<DimId>(rng.NextBounded(num_nodes));
    if (!std::binary_search(nbrs.begin(), nbrs.end(), t)) {
      nbrs.insert(std::lower_bound(nbrs.begin(), nbrs.end(), t), t);
    }
  }
}

}  // namespace

Dataset GenerateGraphAdjacency(const GraphConfig& config) {
  if (config.community_size == 0 ||
      static_cast<uint64_t>(config.num_communities) *
              config.community_size >
          config.num_nodes) {
    throw std::invalid_argument(
        "GraphConfig: community_size must be at least 1 and the planted "
        "communities (num_communities * community_size) must fit in "
        "num_nodes");
  }
  Xoshiro256StarStar rng(config.seed);
  const ZipfSampler zipf(config.num_nodes, config.target_zipf_exponent);

  // Random popularity ranking of nodes.
  std::vector<uint32_t> perm(config.num_nodes);
  for (uint32_t i = 0; i < config.num_nodes; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);

  DatasetBuilder builder(config.num_nodes);

  // Planted communities.
  for (uint32_t c = 0; c < config.num_communities; ++c) {
    const uint32_t deg = SampleDegree(rng, config);
    std::vector<DimId> pool = SampleTargets(rng, zipf, perm, deg);
    EnsureMinDegree(pool, config.min_degree, config.num_nodes, rng);
    builder.AddSetRow(pool);
    for (uint32_t m = 1; m < config.community_size; ++m) {
      const double rate =
          rng.NextUniform(config.rewire_min, config.rewire_max);
      std::vector<DimId> nbrs = pool;
      for (auto& t : nbrs) {
        if (rng.NextUnit() < rate) t = perm[zipf.Sample(rng)];
      }
      EnsureMinDegree(nbrs, config.min_degree, config.num_nodes, rng);
      builder.AddSetRow(std::move(nbrs));
    }
  }
  // Background nodes.
  while (builder.num_rows() < config.num_nodes) {
    std::vector<DimId> nbrs =
        SampleTargets(rng, zipf, perm, SampleDegree(rng, config));
    EnsureMinDegree(nbrs, config.min_degree, config.num_nodes, rng);
    builder.AddSetRow(std::move(nbrs));
  }
  return std::move(builder).Build();
}

}  // namespace bayeslsh
