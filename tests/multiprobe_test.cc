// Tests for multi-probe LSH candidate generation: the probed band-hit
// probability, band-count derivation, equivalence with plain banding at
// probe radius 0, the Hamming-ball soundness/completeness of the probe
// set, and recall against ground truth with far fewer bands.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/lsh_banding.h"
#include "candgen/multiprobe.h"
#include "common/bit_ops.h"
#include "common/prng.h"
#include "data/text_generator.h"
#include "lsh/gaussian_source.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "sim/brute_force.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Hit probability and band derivation
// ---------------------------------------------------------------------------

TEST(MultiProbeBandHitProbTest, RadiusZeroIsPowK) {
  for (double p : {0.3, 0.6, 0.9}) {
    for (uint32_t k : {4u, 8u, 16u}) {
      EXPECT_NEAR(MultiProbeBandHitProb(p, k, 0), std::pow(p, k), 1e-12);
    }
  }
}

TEST(MultiProbeBandHitProbTest, RadiusKIsOne) {
  // Probing the whole Hamming cube hits with certainty.
  EXPECT_NEAR(MultiProbeBandHitProb(0.42, 8, 8), 1.0, 1e-12);
}

TEST(MultiProbeBandHitProbTest, MonotoneInRadiusAndP) {
  const uint32_t k = 8;
  double prev = 0.0;
  for (uint32_t r = 0; r <= k; ++r) {
    const double hit = MultiProbeBandHitProb(0.7, k, r);
    EXPECT_GE(hit, prev);
    EXPECT_LE(hit, 1.0);
    prev = hit;
  }
  EXPECT_LT(MultiProbeBandHitProb(0.6, k, 1), MultiProbeBandHitProb(0.8, k, 1));
}

TEST(MultiProbeBandHitProbTest, MatchesExplicitBinomialSum) {
  // Hand computation for k = 3, r = 1: p^3 + 3 p^2 (1-p).
  const double p = 0.7;
  EXPECT_NEAR(MultiProbeBandHitProb(p, 3, 1),
              p * p * p + 3 * p * p * (1 - p), 1e-12);
}

TEST(DeriveNumBandsMultiProbeTest, RadiusZeroMatchesPlainDerivation) {
  for (double p : {0.6, 0.75, 0.9}) {
    EXPECT_EQ(DeriveNumBandsMultiProbe(p, 8, 0, 0.03, 4096),
              DeriveNumBands(p, 8, 0.03, 4096));
  }
}

TEST(DeriveNumBandsMultiProbeTest, FewerBandsWithLargerRadius) {
  const double p = CosineToSrpR(0.7);
  uint32_t prev = DeriveNumBandsMultiProbe(p, 8, 0, 0.03, 4096);
  for (uint32_t r = 1; r <= 3; ++r) {
    const uint32_t l = DeriveNumBandsMultiProbe(p, 8, r, 0.03, 4096);
    EXPECT_LE(l, prev);
    prev = l;
  }
  // Radius 2 should cut bands by a large factor at this setting.
  EXPECT_LT(DeriveNumBandsMultiProbe(p, 8, 2, 0.03, 4096),
            DeriveNumBands(p, 8, 0.03, 4096) / 3);
}

// ---------------------------------------------------------------------------
// Candidate generation
// ---------------------------------------------------------------------------

struct Workload {
  Dataset data;
  std::shared_ptr<const GaussianSource> gaussians;
};

Workload MakeCosineWorkload(uint32_t docs, uint64_t seed) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 4000;
  cfg.avg_doc_len = 40;
  cfg.num_clusters = docs / 20;
  cfg.seed = seed;
  Workload w;
  w.data = L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
  w.gaussians = std::make_shared<ImplicitGaussianSource>(seed ^ 0xabc);
  return w;
}

TEST(MultiProbeCandidatesTest, RadiusZeroEqualsPlainBanding) {
  const Workload w = MakeCosineWorkload(400, 11);
  const SrpHasher hasher(w.gaussians.get());

  BitSignatureStore store_a(&w.data, hasher);
  LshBandingParams plain;
  plain.num_bands = 12;
  const CandidateList banding =
      CosineLshCandidates(&store_a, 0.7, plain);

  BitSignatureStore store_b(&w.data, hasher);
  MultiProbeParams mp;
  mp.num_bands = 12;
  mp.probe_radius = 0;
  const CandidateList probed =
      MultiProbeCosineCandidates(&store_b, 0.7, mp);

  EXPECT_EQ(banding.pairs, probed.pairs);
}

TEST(MultiProbeCandidatesTest, SupersetOfPlainBandingAtEqualBands) {
  const Workload w = MakeCosineWorkload(400, 12);
  const SrpHasher hasher(w.gaussians.get());

  BitSignatureStore store_a(&w.data, hasher);
  LshBandingParams plain;
  plain.num_bands = 10;
  const CandidateList banding = CosineLshCandidates(&store_a, 0.7, plain);

  BitSignatureStore store_b(&w.data, hasher);
  MultiProbeParams mp;
  mp.num_bands = 10;
  mp.probe_radius = 1;
  const CandidateList probed = MultiProbeCosineCandidates(&store_b, 0.7, mp);

  const std::set<std::pair<uint32_t, uint32_t>> probed_set(
      probed.pairs.begin(), probed.pairs.end());
  for (const auto& pair : banding.pairs) {
    EXPECT_TRUE(probed_set.count(pair))
        << "(" << pair.first << "," << pair.second << ")";
  }
  EXPECT_GT(probed.pairs.size(), banding.pairs.size());
}

TEST(MultiProbeCandidatesTest, CandidateSetIsExactlyTheHammingBallJoin) {
  // Every generated pair must have band signatures within the probe radius
  // in some band, and every such pair must be generated (soundness +
  // completeness against a brute-force definition).
  const Workload w = MakeCosineWorkload(150, 13);
  const SrpHasher hasher(w.gaussians.get());
  const uint32_t k = 8, l = 6, r = 1;

  BitSignatureStore store(&w.data, hasher);
  MultiProbeParams mp;
  mp.hashes_per_band = k;
  mp.num_bands = l;
  mp.probe_radius = r;
  const CandidateList probed = MultiProbeCosineCandidates(&store, 0.7, mp);
  const std::set<std::pair<uint32_t, uint32_t>> got(probed.pairs.begin(),
                                                    probed.pairs.end());

  std::set<std::pair<uint32_t, uint32_t>> expected;
  const uint32_t n = w.data.num_vectors();
  for (uint32_t a = 0; a < n; ++a) {
    if (w.data.RowLength(a) == 0) continue;
    for (uint32_t b = a + 1; b < n; ++b) {
      if (w.data.RowLength(b) == 0) continue;
      for (uint32_t band = 0; band < l; ++band) {
        const uint64_t sa = ExtractBits(
            store.Signature(a), store.NumBits(a) / kBitsPerWord, band * k, k);
        const uint64_t sb = ExtractBits(
            store.Signature(b), store.NumBits(b) / kBitsPerWord, band * k, k);
        if (static_cast<uint32_t>(std::popcount(sa ^ sb)) <= r) {
          expected.insert({a, b});
          break;
        }
      }
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(MultiProbeCandidatesTest, PairsAreOrderedAndUnique) {
  const Workload w = MakeCosineWorkload(300, 14);
  const SrpHasher hasher(w.gaussians.get());
  BitSignatureStore store(&w.data, hasher);
  MultiProbeParams mp;
  mp.probe_radius = 2;
  mp.num_bands = 4;
  const CandidateList probed = MultiProbeCosineCandidates(&store, 0.7, mp);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const auto& [a, b] : probed.pairs) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(seen.insert({a, b}).second);
  }
  EXPECT_GE(probed.raw_emitted, probed.pairs.size());
}

TEST(MultiProbeCandidatesTest, DerivedBandsReachTargetRecall) {
  // With bands derived for ε = 0.05 at each radius, candidate recall of
  // true pairs must be >= 1 - ε - slack, while the band count shrinks.
  const Workload w = MakeCosineWorkload(800, 15);
  const double t = 0.7;
  const auto truth = InvertedIndexJoin(w.data, t, Measure::kCosine);
  ASSERT_GT(truth.size(), 20u);

  uint32_t prev_bands = 0xffffffff;
  for (const uint32_t r : {0u, 1u, 2u}) {
    const SrpHasher hasher(w.gaussians.get());
    BitSignatureStore store(&w.data, hasher);
    MultiProbeParams mp;
    mp.probe_radius = r;
    mp.expected_fn_rate = 0.05;
    const CandidateList cands = MultiProbeCosineCandidates(&store, t, mp);
    const uint32_t bands_used = store.NumBits(0) / 8;

    const std::set<std::pair<uint32_t, uint32_t>> cand_set(
        cands.pairs.begin(), cands.pairs.end());
    uint32_t found = 0;
    for (const auto& p : truth) found += cand_set.count({p.a, p.b});
    const double recall = static_cast<double>(found) / truth.size();
    EXPECT_GE(recall, 0.9) << "radius " << r;
    EXPECT_LE(bands_used, prev_bands) << "radius " << r;
    prev_bands = bands_used;
  }
}

}  // namespace
}  // namespace bayeslsh
