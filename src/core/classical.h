// Classical (non-Bayesian) candidate verification, paper §2-§3:
//
//  * ExactVerify      — compute every candidate's exact similarity; keep
//                       pairs >= threshold ("LSH" / exact baselines).
//  * MLE verification — estimate the similarity from the match fraction
//                       over a *fixed* number of hashes ("LSH Approx");
//                       keep pairs whose estimate >= threshold. The fixed
//                       hash count is the knob §3.1 shows cannot be tuned
//                       well, which is BayesLSH's motivation. One body,
//                       MleVerify, serves every store; the estimator maps
//                       the fraction to the similarity (MleVerifyCosine and
//                       MleVerifyJaccard fix it).

#ifndef BAYESLSH_CORE_CLASSICAL_H_
#define BAYESLSH_CORE_CLASSICAL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "sim/brute_force.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

struct ClassicalStats {
  uint64_t pairs_in = 0;
  uint64_t accepted = 0;
  uint64_t hashes_compared = 0;
};

// All three verifiers shard the candidate list across `pool` when one is
// provided (null = sequential); output is identical either way — pairs are
// verified independently and shard outputs concatenate in input order.

// Exact verification of candidate pairs: keeps the pairs whose
// exact_sim(a, b) reaches the threshold. exact_sim must be safe to call
// concurrently (PairScorer of core/measure_table.h, or ExactSimilarity).
std::vector<ScoredPair> ExactVerify(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, double threshold,
    const std::function<double(uint32_t, uint32_t)>& exact_sim,
    ClassicalStats* stats = nullptr, ThreadPool* pool = nullptr);

// MLE verification: a pair's estimate is estimate(m / n), its match
// fraction over a fixed n = num_hashes hashes mapped to the similarity
// axis. The parallel path pre-hashes every involved row to num_hashes
// (exactly the set and depth the sequential lazy path hashes), then
// compares read-only. Instantiated for the bit and int stores.
template <typename Store>
std::vector<ScoredPair> MleVerify(
    Store* store, const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    double threshold, uint32_t num_hashes, double (*estimate)(double),
    ClassicalStats* stats = nullptr, ThreadPool* pool = nullptr);

// The Jaccard estimate of a minwise match fraction: the fraction itself
// (an SRP collision rate maps to cosine through SrpRToCosine instead).
inline double MinwiseRToJaccard(double r) { return r; }

// MLE verification for cosine: m/n estimates the SRP collision probability
// r, so the similarity estimate is r2c(m/n). Uses `num_hashes` bits per pair.
inline std::vector<ScoredPair> MleVerifyCosine(
    BitSignatureStore* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, double threshold,
    uint32_t num_hashes, ClassicalStats* stats = nullptr,
    ThreadPool* pool = nullptr) {
  return MleVerify(store, pairs, threshold, num_hashes, SrpRToCosine, stats,
                   pool);
}

// MLE verification for Jaccard: the estimate is the match fraction m/n
// itself. Uses `num_hashes` minwise hashes per pair.
inline std::vector<ScoredPair> MleVerifyJaccard(
    IntSignatureStore* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, double threshold,
    uint32_t num_hashes, ClassicalStats* stats = nullptr,
    ThreadPool* pool = nullptr) {
  return MleVerify(store, pairs, threshold, num_hashes, MinwiseRToJaccard,
                   stats, pool);
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_CLASSICAL_H_
