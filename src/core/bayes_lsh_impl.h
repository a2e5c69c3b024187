// Template definitions for the BayesLSH / BayesLSH-Lite engines declared
// in core/bayes_lsh.h.
//
// The engines are generic over (PosteriorModel, Store); translation units
// that pair them with a new model or store type include this header (see
// core/bayes_lsh.cc for the explicit built-in instantiations; the parallel
// verifiers of core/parallel_verify.h instantiate the rest). Keeping the
// definitions out of core/bayes_lsh.h keeps rebuilds of the public header
// cheap.
//
// The per-pair loops live in internal::BayesVerifyPairRange /
// internal::LiteVerifyPairRange, generic over a `match(a, b, from, to)`
// callable, so the sequential engines here and the sharded parallel
// drivers in core/parallel_verify.h run literally the same verification
// code — which is what makes the multi-threaded output bit-identical.

#ifndef BAYESLSH_CORE_BAYES_LSH_IMPL_H_
#define BAYESLSH_CORE_BAYES_LSH_IMPL_H_

#include <cassert>

#include "core/bayes_lsh.h"

namespace bayeslsh {
namespace internal {

// Records a pair's lifetime into the Fig. 4 survival curve: the pair was
// alive for rounds [0, pruned_at_round). Accepted pairs pass
// pruned_at_round = total_rounds + 1 so they count as alive everywhere.
inline void RecordSurvival(std::vector<uint64_t>* curve,
                           uint32_t pruned_at_round) {
  for (uint32_t r = 0; r < curve->size() && r < pruned_at_round; ++r) {
    ++(*curve)[r];
  }
}

// Algorithm 1's inner loop over pairs [begin, end). `stats` must arrive
// with surviving_after_round sized rounds + 1; pairs_in is not touched.
template <typename Model, typename Match>
void BayesVerifyPairRange(
    const Model& model, InferenceCache<Model>& cache, const Match& match,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, size_t begin,
    size_t end, std::vector<ScoredPair>* out, VerifyStats* stats) {
  const uint32_t k = cache.hashes_per_round();
  const uint32_t rounds = cache.max_hashes() / k;
  for (size_t idx = begin; idx < end; ++idx) {
    const auto& [a, b] = pairs[idx];
    uint32_t m = 0, n = 0;
    bool resolved = false;
    for (uint32_t r = 0; r < rounds; ++r) {
      m += match(a, b, n, n + k);
      n += k;
      stats->hashes_compared += k;
      if (m < cache.MinMatches(n)) {
        ++stats->pruned;
        RecordSurvival(&stats->surviving_after_round, r + 1);
        resolved = true;
        break;
      }
      const auto er = cache.EstimateAt(m, n);
      if (er.concentrated) {
        ++stats->accepted;
        out->push_back({a, b, er.estimate});
        RecordSurvival(&stats->surviving_after_round, rounds + 1);
        resolved = true;
        break;
      }
    }
    if (!resolved) {
      // Hash budget exhausted: accept with the current estimate.
      ++stats->forced_accepts;
      ++stats->accepted;
      out->push_back({a, b, model.Estimate(static_cast<int>(m),
                                           static_cast<int>(n))});
      RecordSurvival(&stats->surviving_after_round, rounds + 1);
    }
  }
}

// Algorithm 2's inner loop over pairs [begin, end).
template <typename Model, typename Match, typename ExactFn>
void LiteVerifyPairRange(
    InferenceCache<Model>& cache, const Match& match, const ExactFn& exact_sim,
    double threshold, const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    size_t begin, size_t end, std::vector<ScoredPair>* out,
    VerifyStats* stats) {
  const uint32_t k = cache.hashes_per_round();
  const uint32_t rounds = cache.max_hashes() / k;
  for (size_t idx = begin; idx < end; ++idx) {
    const auto& [a, b] = pairs[idx];
    uint32_t m = 0, n = 0;
    bool pruned = false;
    for (uint32_t r = 0; r < rounds; ++r) {
      m += match(a, b, n, n + k);
      n += k;
      stats->hashes_compared += k;
      if (m < cache.MinMatches(n)) {
        ++stats->pruned;
        RecordSurvival(&stats->surviving_after_round, r + 1);
        pruned = true;
        break;
      }
    }
    if (pruned) continue;
    RecordSurvival(&stats->surviving_after_round, rounds + 1);
    ++stats->exact_computed;
    const double s = exact_sim(a, b);
    if (s >= threshold) {
      ++stats->accepted;
      out->push_back({a, b, s});
    }
  }
}

}  // namespace internal

template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const BayesLshParams& params, VerifyStats* stats) {
  assert(params.hashes_per_round > 0 &&
         params.max_hashes % params.hashes_per_round == 0);
  const uint32_t rounds = params.max_hashes / params.hashes_per_round;

  InferenceCache<Model> cache(&model, params.hashes_per_round,
                              params.max_hashes, params.epsilon, params.delta,
                              params.gamma);
  VerifyStats local;
  local.pairs_in = pairs.size();
  local.surviving_after_round.assign(rounds + 1, 0);

  std::vector<ScoredPair> out;
  internal::BayesVerifyPairRange(
      model, cache,
      [store](uint32_t a, uint32_t b, uint32_t from, uint32_t to) {
        return store->MatchCount(a, b, from, to);
      },
      pairs, 0, pairs.size(), &out, &local);
  local.cache = cache.stats();
  if (stats != nullptr) *stats = local;
  return out;
}

template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshLiteVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t max_prune_hashes,
    const std::function<double(uint32_t, uint32_t)>& exact_sim,
    double threshold, const BayesLshParams& params, VerifyStats* stats) {
  assert(params.hashes_per_round > 0 &&
         max_prune_hashes % params.hashes_per_round == 0);
  const uint32_t rounds = max_prune_hashes / params.hashes_per_round;

  InferenceCache<Model> cache(&model, params.hashes_per_round,
                              max_prune_hashes, params.epsilon,
                              /*delta=*/params.delta, /*gamma=*/params.gamma);
  VerifyStats local;
  local.pairs_in = pairs.size();
  local.surviving_after_round.assign(rounds + 1, 0);

  std::vector<ScoredPair> out;
  internal::LiteVerifyPairRange(
      cache,
      [store](uint32_t a, uint32_t b, uint32_t from, uint32_t to) {
        return store->MatchCount(a, b, from, to);
      },
      exact_sim, threshold, pairs, 0, pairs.size(), &out, &local);
  local.cache = cache.stats();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_BAYES_LSH_IMPL_H_
