// Top-k all-pairs similarity search: the "top-k most similar pairs"
// variant of the problem named in paper §1 ("the user may be either
// interested in the top-k most similar objects ... or all objects with
// s(x, y) > t"), built on top of the thresholded pipeline.
//
// BayesLSH is intrinsically thresholded — the prune test needs a t — so
// top-k is implemented as an adaptive threshold descent: run the pipeline
// at a high threshold, and while fewer than k pairs survive, lower the
// threshold geometrically toward a user floor. High-threshold runs are
// cheap (few candidates survive generation, pruning kills the rest
// early), so the descent costs little more than the final iteration; the
// iteration count is reported for the curious.
//
// The returned pairs carry *exact* similarities (the k survivors are
// re-verified exactly — k exact computations, negligible), so the ranking
// among returned pairs is exact; completeness is probabilistic, governed
// by the generator's expected false-negative rate and the verifier's ε,
// exactly as for threshold search.

#ifndef BAYESLSH_CORE_TOPK_SEARCH_H_
#define BAYESLSH_CORE_TOPK_SEARCH_H_

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "sim/brute_force.h"
#include "vec/dataset.h"

namespace bayeslsh {

struct TopKConfig {
  Measure measure = Measure::kCosine;
  GeneratorKind generator = GeneratorKind::kAllPairs;
  uint32_t k = 100;

  // The descent starts here and never searches below the floor: pairs less
  // similar than floor_threshold are never reported, even if fewer than k
  // pairs exist above it. (A floor is required — LSH cannot retrieve
  // near-orthogonal pairs efficiently, and a top-k of dissimilar pairs is
  // rarely what anyone wants.)
  double start_threshold = 0.9;
  double floor_threshold = 0.3;

  // Threshold decay per descent step (t <- max(floor, t * decay)).
  double decay = 0.8;

  // Verification knobs, as in PipelineConfig.
  BayesLshParams bayes = {.hashes_per_round = 0, .max_hashes = 0};
  LshBandingParams banding;
  uint64_t seed = 42;

  // Worker threads for the underlying pipeline runs and the final exact
  // re-verification (as in PipelineConfig: 0 = hardware, 1 = sequential).
  uint32_t num_threads = 1;
};

struct TopKStats {
  uint32_t iterations = 0;        // Pipeline runs performed.
  double final_threshold = 0.0;   // Threshold of the last run.
  uint64_t candidates = 0;        // Candidates in the last run.
  double total_seconds = 0.0;
};

// The k most similar pairs with similarity >= floor_threshold, sorted by
// decreasing exact similarity (ties by (a, b)). May return fewer than k
// pairs when fewer exist above the floor (or when the randomized
// generator misses some — same guarantees as threshold search). Throws
// std::invalid_argument for kKernelCosine and kEuclidean, for a
// measure/generator pair RunPipeline refuses, and unless k >= 1,
// 0 < floor_threshold < 1, start_threshold >= floor_threshold and
// 0 < decay < 1.
std::vector<ScoredPair> TopKAllPairs(const Dataset& data,
                                     const TopKConfig& config,
                                     TopKStats* stats = nullptr);

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_TOPK_SEARCH_H_
