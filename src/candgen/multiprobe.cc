#include "candgen/multiprobe.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <vector>

#include "candgen/banding_index.h"
#include "candgen/lsh_banding.h"
#include "lsh/srp_hasher.h"
#include "stats/special_functions.h"

namespace bayeslsh {

double MultiProbeBandHitProb(double collision_prob, uint32_t k,
                             uint32_t probe_radius) {
  assert(k > 0);
  const double p = std::clamp(collision_prob, 0.0, 1.0);
  double hit = 0.0;
  for (uint32_t i = 0; i <= probe_radius && i <= k; ++i) {
    hit += std::exp(LogChoose(k, i) + (k - i) * std::log(std::max(p, 1e-300)) +
                    i * std::log1p(-std::min(p, 1.0 - 1e-12)));
  }
  return std::min(hit, 1.0);
}

uint32_t DeriveNumBandsMultiProbe(double collision_prob_at_threshold,
                                  uint32_t k, uint32_t probe_radius,
                                  double fn_rate, uint32_t max_bands) {
  return DeriveNumBands(
      // DeriveNumBands expects a per-hash probability and exponentiates;
      // feed it the k-th root of the probed band-hit probability so the
      // band-level math is the multi-probe one.
      std::pow(MultiProbeBandHitProb(collision_prob_at_threshold, k,
                                     probe_radius),
               1.0 / k),
      k, fn_rate, max_bands);
}

namespace {

// All k-bit masks with popcount in [1, probe_radius], built once per call.
std::vector<uint64_t> ProbeMasks(uint32_t k, uint32_t probe_radius) {
  std::vector<uint64_t> masks;
  if (probe_radius == 0) return masks;
  // Enumerate masks by growing popcounts so near probes come first (probe
  // order does not affect the candidate set in the self-join setting, but
  // keeping it deterministic keeps runs reproducible).
  std::vector<uint64_t> frontier = {0};
  for (uint32_t level = 1; level <= probe_radius && level <= k; ++level) {
    std::vector<uint64_t> next;
    for (const uint64_t base : frontier) {
      // Extend by one bit above the highest set bit to avoid duplicates.
      const uint32_t start =
          base == 0 ? 0 : 64 - static_cast<uint32_t>(std::countl_zero(base));
      for (uint32_t b = start; b < k; ++b) {
        next.push_back(base | (1ULL << b));
      }
    }
    masks.insert(masks.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return masks;
}

}  // namespace

CandidateList MultiProbeCosineCandidates(BitSignatureStore* store,
                                         double threshold,
                                         const MultiProbeParams& params,
                                         ThreadPool* pool) {
  const uint32_t k = params.hashes_per_band != 0 ? params.hashes_per_band
                                                 : kDefaultCosineBandBits;
  const uint32_t l =
      params.num_bands != 0
          ? params.num_bands
          : DeriveNumBandsMultiProbe(CosineToSrpR(threshold), k,
                                     params.probe_radius,
                                     params.expected_fn_rate,
                                     params.max_bands);
  CheckBandingShape({.hashes_per_band = k, .num_bands = l});
  return DedupPairKeys(
      BandingIndex::BucketPairs(store, k, l, pool,
                                ProbeMasks(k, params.probe_radius)),
      pool);
}

}  // namespace bayeslsh
