#include "candgen/lsh_banding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/bit_ops.h"
#include "common/prng.h"
#include "core/measure_table.h"
#include "euclidean/pstable_hasher.h"
#include "lsh/srp_hasher.h"

namespace bayeslsh {

uint32_t DeriveNumBands(double collision_prob_at_threshold, uint32_t k,
                        double fn_rate, uint32_t max_bands) {
  assert(k > 0);
  assert(fn_rate > 0.0 && fn_rate < 1.0);
  const double p = std::clamp(collision_prob_at_threshold, 0.0, 1.0);
  const double band_hit = std::pow(p, static_cast<double>(k));
  if (band_hit >= 1.0) return 1;
  if (band_hit <= 0.0) return max_bands;
  const double l = std::ceil(std::log(fn_rate) / std::log1p(-band_hit));
  if (l < 1.0) return 1;
  if (l > static_cast<double>(max_bands)) return max_bands;
  return static_cast<uint32_t>(l);
}

BandingShape ResolveBandingShape(Measure measure, double threshold,
                                 const LshBandingParams& params) {
  // Bit-signature measures band SRP-law bits (KLSH included); a distance
  // measure bands p-stable buckets.
  const MeasureTraits& traits = TraitsOf(measure);
  const bool cosine = traits.bit_signatures;
  const bool euclidean = traits.distance;
  BandingShape shape;
  shape.hashes_per_band =
      params.hashes_per_band != 0 ? params.hashes_per_band
      : cosine                    ? kDefaultCosineBandBits
      : euclidean                 ? kDefaultEuclideanBandInts
                                  : kDefaultJaccardBandInts;
  // Per-hash collision probability at the threshold. Jaccard and weighted
  // Jaccard share Pr[collision] = t; Euclidean uses the serving stack's
  // width convention w = 2 * radius, under which p(radius) is a scale-free
  // constant of the w/c ratio.
  const double p = cosine ? CosineToSrpR(threshold)
                   : euclidean
                       ? PstableCollisionProb(threshold, 2.0 * threshold)
                       : threshold;
  shape.num_bands = params.num_bands != 0
                        ? params.num_bands
                        : DeriveNumBands(p, shape.hashes_per_band,
                                         params.expected_fn_rate,
                                         params.max_bands);
  return shape;
}

namespace {

// Concatenates per-shard key vectors in shard order and deduplicates.
CandidateList MergeShardKeys(std::vector<std::vector<uint64_t>>&& shard_keys,
                             ThreadPool* pool) {
  size_t total = 0;
  for (const auto& keys : shard_keys) total += keys.size();
  std::vector<uint64_t> all;
  all.reserve(total);
  for (auto& keys : shard_keys) {
    all.insert(all.end(), keys.begin(), keys.end());
  }
  shard_keys.clear();
  return DedupPairKeys(std::move(all), pool);
}

// Groups (band_key, row) tuples and emits all intra-bucket pairs.
// `entries` is keyed per band; sorted grouping avoids hash-map overhead.
void EmitBucketPairs(std::vector<std::pair<uint64_t, uint32_t>>& entries,
                     std::vector<uint64_t>* keys) {
  std::sort(entries.begin(), entries.end());
  size_t i = 0;
  while (i < entries.size()) {
    size_t j = i + 1;
    while (j < entries.size() && entries[j].first == entries[i].first) ++j;
    for (size_t a = i; a < j; ++a) {
      for (size_t b = a + 1; b < j; ++b) {
        const uint32_t ra = entries[a].second, rb = entries[b].second;
        keys->push_back(ra < rb ? PairKey(ra, rb) : PairKey(rb, ra));
      }
    }
    i = j;
  }
}

}  // namespace

CandidateList CosineLshCandidates(BitSignatureStore* store, double threshold,
                                  const LshBandingParams& params,
                                  ThreadPool* pool) {
  const auto [k, l] = ResolveBandingShape(Measure::kCosine, threshold,
                                          params);
  assert(k <= 64);
  const uint32_t n = store->num_rows();
  if (pool != nullptr && pool->num_threads() > 1) {
    store->AddComputed(ParallelReduce(
        pool, n, uint64_t{0},
        [&](uint32_t, uint64_t b, uint64_t e) {
          uint64_t work = 0;
          for (uint64_t row = b; row < e; ++row) {
            work +=
                store->EnsureRowUncounted(static_cast<uint32_t>(row), l * k);
          }
          return work;
        },
        [](uint64_t x, uint64_t y) { return x + y; }));
  } else {
    store->EnsureAll(l * k);
  }

  const uint32_t num_shards =
      pool != nullptr ? pool->num_threads() : 1u;
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  auto build_bands = [&](uint32_t shard, uint64_t band_begin,
                         uint64_t band_end) {
    std::vector<std::pair<uint64_t, uint32_t>> entries;
    entries.reserve(n);
    auto& keys = shard_keys[shard];
    for (uint64_t band = band_begin; band < band_end; ++band) {
      entries.clear();
      for (uint32_t row = 0; row < n; ++row) {
        // Empty rows have similarity 0 to everything (including each other,
        // by this library's conventions) and are never candidates.
        if (store->data()->RowLength(row) == 0) continue;
        const uint64_t sig = ExtractBits(
            store->Signature(row), store->HashesHeld(row) / kBitsPerWord,
            static_cast<uint32_t>(band) * k, k);
        entries.emplace_back(sig, row);
      }
      EmitBucketPairs(entries, &keys);
    }
  };
  if (pool != nullptr) {
    pool->RunShards(l, build_bands);
  } else {
    build_bands(0, 0, l);
  }
  return MergeShardKeys(std::move(shard_keys), pool);
}

CandidateList JaccardLshCandidates(IntSignatureStore* store, double threshold,
                                   const LshBandingParams& params,
                                   ThreadPool* pool) {
  const auto [k, l] = ResolveBandingShape(Measure::kJaccard, threshold,
                                          params);
  const uint32_t n = store->num_rows();
  if (pool != nullptr && pool->num_threads() > 1) {
    store->AddComputed(ParallelReduce(
        pool, n, uint64_t{0},
        [&](uint32_t, uint64_t b, uint64_t e) {
          uint64_t work = 0;
          for (uint64_t row = b; row < e; ++row) {
            work +=
                store->EnsureRowUncounted(static_cast<uint32_t>(row), l * k);
          }
          return work;
        },
        [](uint64_t x, uint64_t y) { return x + y; }));
  } else {
    store->EnsureAll(l * k);
  }

  const uint32_t num_shards =
      pool != nullptr ? pool->num_threads() : 1u;
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  auto build_bands = [&](uint32_t shard, uint64_t band_begin,
                         uint64_t band_end) {
    std::vector<std::pair<uint64_t, uint32_t>> entries;
    entries.reserve(n);
    auto& keys = shard_keys[shard];
    for (uint64_t band = band_begin; band < band_end; ++band) {
      entries.clear();
      for (uint32_t row = 0; row < n; ++row) {
        if (store->data()->RowLength(row) == 0) continue;  // See above.
        const uint32_t* h = store->Signature(row) + band * k;
        // Collapse the k minhash values into one bucket key.
        uint64_t sig = Mix64(0x5ba3d9be1e4fULL, band);
        for (uint32_t i = 0; i < k; ++i) sig = Mix64(sig, h[i]);
        entries.emplace_back(sig, row);
      }
      EmitBucketPairs(entries, &keys);
    }
  };
  if (pool != nullptr) {
    pool->RunShards(l, build_bands);
  } else {
    build_bands(0, 0, l);
  }
  return MergeShardKeys(std::move(shard_keys), pool);
}

}  // namespace bayeslsh
