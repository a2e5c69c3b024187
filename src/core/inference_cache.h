// The two inference-avoidance optimizations of paper §4.3.
//
//  1. Pre-computed minimum matches. For every hash count n the engine will
//     visit (multiples of the round size k), minMatches(n) is the smallest
//     match count m with Pr[S ≥ t | M(m, n)] ≥ ε. Since that probability is
//     monotone in m, the prune test on line 10 of Algorithm 1 becomes a
//     single integer comparison, with minMatches found once by binary
//     search.
//
//  2. Concentration cache. Whether the estimate after (m, n) is
//     sufficiently concentrated — and what the estimate is — depends only
//     on (m, n), so results are memoized. Only m ≥ minMatches(n) can reach
//     the concentration test, keeping the cache small.

#ifndef BAYESLSH_CORE_INFERENCE_CACHE_H_
#define BAYESLSH_CORE_INFERENCE_CACHE_H_

#include <cstdint>
#include <vector>

#include "core/bbit_posterior.h"
#include "core/cosine_posterior.h"
#include "core/jaccard_posterior.h"
#include "euclidean/distance_posterior.h"

namespace bayeslsh {

struct InferenceCacheStats {
  uint64_t concentration_hits = 0;
  uint64_t concentration_misses = 0;
};

// Model must satisfy the PosteriorModel concept (ProbAboveThreshold /
// Estimate / Concentration); see core/bayes_lsh.h.
template <typename Model>
class InferenceCache {
 public:
  // Rounds visit n = k, 2k, ..., max_hashes.
  InferenceCache(const Model* model, uint32_t hashes_per_round,
                 uint32_t max_hashes, double epsilon, double delta,
                 double gamma);

  // Smallest m with Pr[S >= t | M(m, n)] >= epsilon, or n + 1 if no m <= n
  // qualifies. n must be one of the round sizes.
  uint32_t MinMatches(uint32_t n) const {
    return min_matches_[RoundIndex(n)];
  }

  struct EstimateResult {
    bool concentrated;
    float estimate;
  };

  // Memoized concentration test + MAP estimate at (m, n).
  EstimateResult EstimateAt(uint32_t m, uint32_t n) {
    EstimateResult out;
    EstimateAtBatch(&m, 1, n, &out);
    return out;
  }

  // Batched EstimateAt: evaluates `count` match counts, all at the same
  // hash depth n, in one pass over the round's memo arrays (one round
  // lookup instead of `count`). Exactly equivalent to calling EstimateAt
  // serially for each ms[i] in order — same cached values, same
  // hit/miss stats — which is what tests/batched_posterior_test.cc
  // asserts end to end.
  void EstimateAtBatch(const uint32_t* ms, uint32_t count, uint32_t n,
                       EstimateResult* out);

  const InferenceCacheStats& stats() const { return stats_; }
  uint32_t hashes_per_round() const { return k_; }
  uint32_t max_hashes() const { return max_hashes_; }

 private:
  uint32_t RoundIndex(uint32_t n) const;

  const Model* model_;
  uint32_t k_;
  uint32_t max_hashes_;
  double epsilon_;
  double delta_;
  double gamma_;

  std::vector<uint32_t> min_matches_;  // By round index.
  // state: -1 unknown, 0 not concentrated, 1 concentrated. Indexed
  // [round][m].
  std::vector<std::vector<int8_t>> state_;
  std::vector<std::vector<float>> estimate_;
  InferenceCacheStats stats_;
};

extern template class InferenceCache<JaccardPosterior>;
extern template class InferenceCache<CosinePosterior>;
extern template class InferenceCache<BbitMinwisePosterior>;
extern template class InferenceCache<EuclideanPosterior>;

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_INFERENCE_CACHE_H_
