#include "candgen/multiprobe.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <vector>

#include "candgen/lsh_banding.h"
#include "common/bit_ops.h"
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
  assert(k <= 64);
  const double p = CosineToSrpR(threshold);
  const uint32_t l =
      params.num_bands != 0
          ? params.num_bands
          : DeriveNumBandsMultiProbe(p, k, params.probe_radius,
                                     params.expected_fn_rate,
                                     params.max_bands);
  const uint32_t n = store->num_rows();
  // Grow every row to the full banding horizon up front so the band
  // workers only ever read the store (rows are independent, so the growth
  // itself shards by row).
  if (pool != nullptr && pool->num_threads() > 1) {
    ParallelFor(pool, 0, n, [&](uint64_t row) {
      store->EnsureRowUncounted(static_cast<uint32_t>(row), l * k);
    });
  } else {
    store->EnsureAll(l * k);
  }
  const std::vector<uint64_t> masks = ProbeMasks(k, params.probe_radius);

  // One emission buffer per band, filled independently and concatenated
  // in band order: DedupPairKeys sorts anyway, but keeping the merge
  // order fixed makes the determinism argument local to this function.
  std::vector<std::vector<uint64_t>> band_keys(l);
  std::vector<uint64_t> band_raw(l, 0);
  ParallelFor(pool, 0, l, [&](uint64_t band) {
    std::vector<uint64_t>& keys = band_keys[band];
    uint64_t raw = 0;
    std::vector<std::pair<uint64_t, uint32_t>> entries;
    entries.reserve(n);
    for (uint32_t row = 0; row < n; ++row) {
      if (store->data()->RowLength(row) == 0) continue;  // Never candidates.
      entries.emplace_back(
          ExtractBits(store->Signature(row),
                      store->HashesHeld(row) / kBitsPerWord,
                      static_cast<uint32_t>(band) * k, k),
          row);
    }
    std::sort(entries.begin(), entries.end());

    // Distance-0: all intra-bucket pairs, as in plain banding.
    size_t i = 0;
    while (i < entries.size()) {
      size_t j = i + 1;
      while (j < entries.size() && entries[j].first == entries[i].first) ++j;
      for (size_t a = i; a < j; ++a) {
        for (size_t b = a + 1; b < j; ++b) {
          const uint32_t ra = entries[a].second, rb = entries[b].second;
          keys.push_back(ra < rb ? PairKey(ra, rb) : PairKey(rb, ra));
          ++raw;
        }
      }
      i = j;
    }

    // Probes: every row looks up its signature xor each mask; each
    // cross-bucket pair within the Hamming ball is emitted once per band
    // (the row < other filter kills the mirrored probe).
    for (const auto& [sig, row] : entries) {
      for (const uint64_t mask : masks) {
        const uint64_t probe = sig ^ mask;
        auto lo = std::lower_bound(
            entries.begin(), entries.end(), probe,
            [](const std::pair<uint64_t, uint32_t>& e, uint64_t key) {
              return e.first < key;
            });
        for (; lo != entries.end() && lo->first == probe; ++lo) {
          if (row < lo->second) {
            keys.push_back(PairKey(row, lo->second));
            ++raw;
          }
        }
      }
    }
    band_raw[band] = raw;
  });

  std::vector<uint64_t> keys;
  uint64_t raw = 0;
  {
    size_t total = 0;
    for (const auto& bk : band_keys) total += bk.size();
    keys.reserve(total);
  }
  for (uint32_t band = 0; band < l; ++band) {
    keys.insert(keys.end(), band_keys[band].begin(), band_keys[band].end());
    raw += band_raw[band];
  }
  CandidateList out = DedupPairKeys(std::move(keys), pool);
  out.raw_emitted = raw;
  return out;
}

}  // namespace bayeslsh
