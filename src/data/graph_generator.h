// Synthetic graph-adjacency generator: the stand-in for the WikiLinks,
// Orkut and Twitter datasets.
//
// Each node's vector is its out-neighbour set (dimension = target node id,
// num_dims = num_nodes), matching how the paper turns graphs into vectors.
// Degrees follow a log-normal law; targets are drawn Zipf-style so
// in-degrees are heavy-tailed (the "celebrity" effect that makes graph
// datasets short-but-skewed, which is exactly the regime where the paper
// finds AllPairs beating LSH).
//
// Planted *communities* supply the similarity structure: members of a
// community draw most of their neighbours from a shared pool and rewire a
// per-member fraction, sweeping pairwise similarity across bands.

#ifndef BAYESLSH_DATA_GRAPH_GENERATOR_H_
#define BAYESLSH_DATA_GRAPH_GENERATOR_H_

#include <cstdint>

#include "vec/dataset.h"

namespace bayeslsh {

struct GraphConfig {
  uint32_t num_nodes = 10000;
  double avg_degree = 24.0;
  double degree_sigma = 0.8;     // Log-normal degree spread (high variance,
                                 // as in the paper's graph datasets).
  uint32_t min_degree = 3;
  double target_zipf_exponent = 0.85;  // In-degree skew.

  uint32_t num_communities = 200;
  uint32_t community_size = 4;     // Members per community.
  double rewire_min = 0.05;        // Fraction of a member's neighbours...
  double rewire_max = 0.7;         // ...resampled away from the shared pool.

  uint64_t seed = 7;
};

// Returns the adjacency Dataset (binary values; one row per node). Rows
// 0 .. num_communities*community_size-1 are the planted communities.
// Throws std::invalid_argument when community_size is 0 or the planted
// rows exceed num_nodes.
Dataset GenerateGraphAdjacency(const GraphConfig& config);

}  // namespace bayeslsh

#endif  // BAYESLSH_DATA_GRAPH_GENERATOR_H_
