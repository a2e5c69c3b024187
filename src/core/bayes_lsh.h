// BayesLSH and BayesLSH-Lite (paper Algorithms 1 and 2): candidate pruning
// and similarity estimation by incremental Bayesian inference over LSH
// hash-match counts.
//
// For each candidate pair, hashes are compared k at a time. After each round
// (m matches out of n compared):
//
//   * prune  if Pr[S >= t | M(m, n)] < ε            (early pruning),
//   * accept if Pr[|S − Ŝ| < δ | M(m, n)] >= 1 − γ  (BayesLSH: output Ŝ),
//   * otherwise continue with k more hashes.
//
// BayesLSH-Lite replaces the concentration test with a fixed budget of h
// hashes used only for pruning; survivors get an exact similarity
// computation and an exact threshold filter.
//
// Both engines are generic over a PosteriorModel (JaccardPosterior,
// CosinePosterior — anything exposing ProbAboveThreshold / Estimate /
// Concentration) and a signature Store exposing
// MatchCount(a, b, from, to). This is the paper's portability claim in
// code: a new LSH family only needs a new model class.

#ifndef BAYESLSH_CORE_BAYES_LSH_H_
#define BAYESLSH_CORE_BAYES_LSH_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/bbit_posterior.h"
#include "core/cosine_posterior.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "lsh/bbit_minwise.h"
#include "lsh/signature_store.h"
#include "sim/brute_force.h"

namespace bayeslsh {

struct BayesLshParams {
  double epsilon = 0.03;  // Recall parameter ε.
  double delta = 0.05;    // Accuracy half-width δ.
  double gamma = 0.03;    // Accuracy failure probability γ.

  // Hashes compared per round (k). Must divide max_hashes.
  uint32_t hashes_per_round = 32;

  // Hash budget per pair. A pair still unresolved here is accepted with its
  // current estimate ("forced accept") — counted in VerifyStats; essentially
  // never happens at the paper's parameter settings.
  uint32_t max_hashes = 4096;
};

struct VerifyStats {
  uint64_t pairs_in = 0;
  uint64_t accepted = 0;
  uint64_t pruned = 0;
  uint64_t forced_accepts = 0;
  uint64_t exact_computed = 0;  // BayesLSH-Lite only.
  uint64_t hashes_compared = 0;
  // surviving_after_round[r] = candidates not yet pruned after r rounds
  // (r = 0 is the input size). Accepted pairs keep counting as survivors —
  // this is exactly the Fig. 4 curve.
  std::vector<uint64_t> surviving_after_round;
  InferenceCacheStats cache;
};

// BayesLSH (Algorithm 1): returns surviving pairs with posterior-mode
// similarity estimates. Note the output can legitimately contain pairs whose
// estimate is slightly below the model threshold: the paper's guarantee 1
// keeps every pair whose posterior probability of being a true positive
// exceeds ε.
template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const BayesLshParams& params, VerifyStats* stats = nullptr);

// BayesLSH-Lite (Algorithm 2): prunes with at most `max_prune_hashes`
// hashes, then verifies survivors with `exact_sim` and keeps those with
// exact similarity >= threshold.
template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshLiteVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t max_prune_hashes,
    const std::function<double(uint32_t, uint32_t)>& exact_sim,
    double threshold, const BayesLshParams& params,
    VerifyStats* stats = nullptr);

// Defined in core/bayes_lsh_impl.h; core/bayes_lsh.cc instantiates both
// engines for the built-in (model, store) pairs.

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_BAYES_LSH_H_
