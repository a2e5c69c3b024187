// Template definitions for the BayesLSH / BayesLSH-Lite engines declared
// in core/bayes_lsh.h. Callers that pair them with a new model or store
// type include this header (core/bayes_lsh.cc instantiates the built-in
// pairs); keeping the definitions out of core/bayes_lsh.h keeps rebuilds
// of the public header cheap.
//
// internal::VerifyRounds is the only code that runs BayesLSH and
// BayesLSH-Lite rounds: the serial joins here, ShardRounds of
// core/parallel_verify.h and QuerySearcher's serial and batch paths all
// call it, which is what makes their outputs bit-identical.

#ifndef BAYESLSH_CORE_BAYES_LSH_IMPL_H_
#define BAYESLSH_CORE_BAYES_LSH_IMPL_H_

#include <algorithm>
#include <array>
#include <cassert>

#include "core/bayes_lsh.h"

namespace bayeslsh {
namespace internal {

// Records a pair's lifetime into the Fig. 4 survival curve: the pair was
// alive for rounds [0, pruned_at_round). Pairs that are never pruned pass
// the curve's size so they count as alive everywhere. An empty curve
// records nothing.
inline void RecordSurvival(std::vector<uint64_t>* curve,
                           uint32_t pruned_at_round) {
  for (uint32_t r = 0; r < curve->size() && r < pruned_at_round; ++r) {
    ++(*curve)[r];
  }
}

// Candidates a join drives side by side: one. A wider join gives the same
// pairs and stats, but perfbench/blsh_trace.cc replays the join's
// posterior by rebuilding each pair's match count from its consecutive
// MatchCount calls, and a wider block interleaves the calls of its pairs.
// Queries run kVerifyBlock (8) wide (core/query_search.cc): the trace's
// query replay copies their 8-wide EstimateAtBatch rounds.
inline constexpr uint32_t kJoinWidth = 1;

// The rounds of core/bayes_lsh.h over candidates [begin, end), kWidth
// candidates side by side: each round adds an undecided candidate's
// match(i, n, n + k) to its count m and prunes it when m < minMatches(n).
// BayesLSH (a null `exact`) passes the survivors' counts through one
// batched posterior pass (§4.3), accepts δ-concentrated estimates, and
// force-accepts at the MAP estimate whatever the budget leaves undecided;
// BayesLSH-Lite keeps a survivor of the budget whose (*exact)(i) reaches
// `threshold`. Accepted candidates reach emit(i, sim) in candidate order.
//
// The cache sets k and the budget. Fills every counter of *stats but
// pairs_in, adds the cache hits and misses this call causes, and records
// the Fig. 4 curve only when surviving_after_round arrives sized. A
// candidate's (m, n) trajectory depends on no other candidate and the
// cache memo is order-invariant, so output and stats are those of a
// one-at-a-time loop at any width.
template <uint32_t kWidth, typename Model, typename Match, typename Exact,
          typename Emit>
void VerifyRounds(const Model& model, InferenceCache<Model>& cache,
                  size_t begin, size_t end, const Match& match,
                  const Exact* exact, double threshold, const Emit& emit,
                  VerifyStats* stats) {
  const uint32_t k = cache.hashes_per_round();
  const InferenceCacheStats cache_before = cache.stats();
  std::vector<uint64_t>* curve = &stats->surviving_after_round;
  struct Slot {
    size_t i;
    uint32_t m;
    bool done, accepted;
    double sim;
  };
  std::array<Slot, kWidth> slots;
  std::array<uint32_t, kWidth> ms, idx;  // Survivors' counts and slots.
  std::array<typename InferenceCache<Model>::EstimateResult, kWidth> res;
  for (size_t base = begin; base < end; base += kWidth) {
    const auto width =
        static_cast<uint32_t>(std::min<size_t>(kWidth, end - base));
    for (uint32_t s = 0; s < width; ++s) {
      slots[s] = {base + s, 0, false, false, 0.0};
    }
    uint32_t active = width, n = 0, round = 0;
    while (active > 0 && n < cache.max_hashes()) {
      for (uint32_t s = 0; s < width; ++s) {
        if (!slots[s].done) slots[s].m += match(slots[s].i, n, n + k);
      }
      stats->hashes_compared += uint64_t{k} * active;
      n += k;
      ++round;
      const uint32_t min_m = cache.MinMatches(n);
      uint32_t survivors = 0;
      for (uint32_t s = 0; s < width; ++s) {
        Slot& slot = slots[s];
        if (slot.done) continue;
        if (slot.m < min_m) {
          slot.done = true;
          --active;
          ++stats->pruned;
          RecordSurvival(curve, round);
        } else if (exact == nullptr) {
          ms[survivors] = slot.m;
          idx[survivors++] = s;
        }
      }
      if (survivors == 0) continue;
      cache.EstimateAtBatch(ms.data(), survivors, n, res.data());
      for (uint32_t j = 0; j < survivors; ++j) {
        if (!res[j].concentrated) continue;
        Slot& slot = slots[idx[j]];
        slot.done = slot.accepted = true;
        slot.sim = res[j].estimate;
        --active;
      }
    }
    for (uint32_t s = 0; s < width; ++s) {
      Slot& slot = slots[s];
      if (slot.done && !slot.accepted) continue;  // Pruned.
      RecordSurvival(curve, static_cast<uint32_t>(curve->size()));
      if (!slot.done && exact != nullptr) {
        // Budget spent: the still-undecided slots all saw n hashes.
        ++stats->exact_computed;
        slot.sim = (*exact)(slot.i);
        slot.accepted = slot.sim >= threshold;
      } else if (!slot.done) {
        ++stats->forced_accepts;
        slot.sim =
            model.Estimate(static_cast<int>(slot.m), static_cast<int>(n));
        slot.accepted = true;
      }
      if (slot.accepted) {
        ++stats->accepted;
        emit(slot.i, slot.sim);
      }
    }
  }
  const InferenceCacheStats& cache_after = cache.stats();
  stats->cache.concentration_hits +=
      cache_after.concentration_hits - cache_before.concentration_hits;
  stats->cache.concentration_misses +=
      cache_after.concentration_misses - cache_before.concentration_misses;
}

// A join's rounds over pairs[begin, end): matches through `matcher` (the
// store, or a worker's overflow shard), BayesLSH-Lite survivors scored by
// (*exact_sim)(a, b) (null: BayesLSH), accepted pairs appended to *out.
template <typename Model, typename Matcher>
void JoinRounds(const Model& model, InferenceCache<Model>& cache,
                Matcher* matcher,
                const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                size_t begin, size_t end,
                const std::function<double(uint32_t, uint32_t)>* exact_sim,
                double threshold, std::vector<ScoredPair>* out,
                VerifyStats* stats) {
  const auto exact = [&](size_t i) {
    return (*exact_sim)(pairs[i].first, pairs[i].second);
  };
  VerifyRounds<kJoinWidth>(
      model, cache, begin, end,
      [&](size_t i, uint32_t from, uint32_t to) {
        return matcher->MatchCount(pairs[i].first, pairs[i].second, from, to);
      },
      exact_sim != nullptr ? &exact : nullptr, threshold,
      [&](size_t i, double sim) {
        out->push_back({pairs[i].first, pairs[i].second, sim});
      },
      stats);
}

// Stats for a join of `pairs_in` pairs, the Fig. 4 curve sized to
// `budget` hashes in rounds of params.hashes_per_round.
inline VerifyStats JoinStats(uint64_t pairs_in, uint32_t budget,
                             const BayesLshParams& params) {
  assert(params.hashes_per_round > 0 &&
         budget % params.hashes_per_round == 0);
  VerifyStats stats;
  stats.pairs_in = pairs_in;
  stats.surviving_after_round.assign(budget / params.hashes_per_round + 1,
                                     0);
  return stats;
}

// The serial join: both engines, over a fresh inference cache for
// `budget` hashes per pair.
template <typename Model, typename Store>
std::vector<ScoredPair> VerifyJoin(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, uint32_t budget,
    const std::function<double(uint32_t, uint32_t)>* exact_sim,
    double threshold, const BayesLshParams& params, VerifyStats* stats) {
  VerifyStats local = JoinStats(pairs.size(), budget, params);
  InferenceCache<Model> cache(&model, params.hashes_per_round, budget,
                              params.epsilon, params.delta, params.gamma);
  std::vector<ScoredPair> out;
  JoinRounds(model, cache, store, pairs, 0, pairs.size(), exact_sim,
             threshold, &out, &local);
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace internal

template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const BayesLshParams& params, VerifyStats* stats) {
  return internal::VerifyJoin(model, store, pairs, params.max_hashes,
                              nullptr, 0.0, params, stats);
}

template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshLiteVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t max_prune_hashes,
    const std::function<double(uint32_t, uint32_t)>& exact_sim,
    double threshold, const BayesLshParams& params, VerifyStats* stats) {
  return internal::VerifyJoin(model, store, pairs, max_prune_hashes,
                              &exact_sim, threshold, params, stats);
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_BAYES_LSH_IMPL_H_
