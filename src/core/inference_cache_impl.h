// Template definitions for InferenceCache (declared in
// core/inference_cache.h). Translation units pairing the cache with a new
// posterior model include this header and add an explicit instantiation
// (core/inference_cache.cc holds the built-in ones).

#ifndef BAYESLSH_CORE_INFERENCE_CACHE_IMPL_H_
#define BAYESLSH_CORE_INFERENCE_CACHE_IMPL_H_

#include <cassert>

#include "core/inference_cache.h"

namespace bayeslsh {

template <typename Model>
InferenceCache<Model>::InferenceCache(const Model* model,
                                      uint32_t hashes_per_round,
                                      uint32_t max_hashes, double epsilon,
                                      double delta, double gamma)
    : model_(model),
      k_(hashes_per_round),
      max_hashes_(max_hashes),
      epsilon_(epsilon),
      delta_(delta),
      gamma_(gamma) {
  assert(k_ > 0 && max_hashes_ >= k_ && max_hashes_ % k_ == 0);
  const uint32_t rounds = max_hashes_ / k_;
  min_matches_.resize(rounds);
  state_.resize(rounds);
  estimate_.resize(rounds);
  for (uint32_t r = 0; r < rounds; ++r) {
    const uint32_t n = (r + 1) * k_;
    // Binary search the smallest m in [0, n] with P(m) >= epsilon;
    // P is monotone non-decreasing in m.
    uint32_t lo = 0, hi = n + 1;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (model_->ProbAboveThreshold(static_cast<int>(mid),
                                     static_cast<int>(n)) >= epsilon_) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    min_matches_[r] = lo;  // == n + 1 when even m = n fails.
    state_[r].assign(n + 1, -1);
    estimate_[r].assign(n + 1, 0.0f);
  }
}

template <typename Model>
uint32_t InferenceCache<Model>::RoundIndex(uint32_t n) const {
  assert(n >= k_ && n <= max_hashes_ && n % k_ == 0);
  return n / k_ - 1;
}

template <typename Model>
void InferenceCache<Model>::EstimateAtBatch(const uint32_t* ms,
                                            uint32_t count, uint32_t n,
                                            EstimateResult* out) {
  const uint32_t r = RoundIndex(n);
  std::vector<int8_t>& state = state_[r];
  std::vector<float>& estimate = estimate_[r];
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t m = ms[i];
    assert(m <= n);
    int8_t& st = state[m];
    if (st < 0) {
      ++stats_.concentration_misses;
      const double est = model_->Estimate(static_cast<int>(m),
                                          static_cast<int>(n));
      const double conc = model_->Concentration(static_cast<int>(m),
                                                static_cast<int>(n), delta_);
      estimate[m] = static_cast<float>(est);
      st = (conc >= 1.0 - gamma_) ? 1 : 0;
    } else {
      ++stats_.concentration_hits;
    }
    out[i] = {st == 1, estimate[m]};
  }
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_INFERENCE_CACHE_IMPL_H_
