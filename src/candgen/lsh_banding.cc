#include "candgen/lsh_banding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "candgen/banding_index.h"
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
  CheckBandingShape(shape);
  return shape;
}

void CheckBandingShape(const BandingShape& shape) {
  if (shape.hashes_per_band == 0 || shape.hashes_per_band > 64 ||
      shape.num_bands == 0) {
    throw std::invalid_argument(
        "banding shape must have 1..64 hashes per band and at least one "
        "band");
  }
}

template <typename Layout>
CandidateList LshCandidates(SignatureStore<Layout>* store, BandingShape shape,
                            ThreadPool* pool) {
  return DedupPairKeys(BandingIndex::BucketPairs(store, shape.hashes_per_band,
                                                 shape.num_bands, pool),
                       pool);
}

template CandidateList LshCandidates(BitSignatureStore*, BandingShape,
                                     ThreadPool*);
template CandidateList LshCandidates(IntSignatureStore*, BandingShape,
                                     ThreadPool*);

CandidateList CosineLshCandidates(BitSignatureStore* store, double threshold,
                                  const LshBandingParams& params,
                                  ThreadPool* pool) {
  return LshCandidates(
      store, ResolveBandingShape(Measure::kCosine, threshold, params), pool);
}

CandidateList JaccardLshCandidates(IntSignatureStore* store, double threshold,
                                   const LshBandingParams& params,
                                   ThreadPool* pool) {
  return LshCandidates(
      store, ResolveBandingShape(Measure::kJaccard, threshold, params), pool);
}

}  // namespace bayeslsh
