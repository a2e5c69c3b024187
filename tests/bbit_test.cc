// Tests for b-bit minwise hashing: the packed-group match kernel, the lazy
// b-bit signature store, the collision law Pr = c + (1-c)J, the
// BbitMinwisePosterior model, and the BayesLSH engines running on b-bit
// signatures end to end.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/bayes_lsh.h"
#include "core/bbit_posterior.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "lsh/bbit_minwise.h"
#include "lsh/minwise_hasher.h"
#include "lsh/signature_store.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Group-match kernel
// ---------------------------------------------------------------------------

TEST(BbitKernelTest, ValidWidths) {
  EXPECT_TRUE(IsValidBbitWidth(1));
  EXPECT_TRUE(IsValidBbitWidth(2));
  EXPECT_TRUE(IsValidBbitWidth(4));
  EXPECT_TRUE(IsValidBbitWidth(8));
  EXPECT_TRUE(IsValidBbitWidth(16));
  EXPECT_TRUE(IsValidBbitWidth(32));
  EXPECT_FALSE(IsValidBbitWidth(0));
  EXPECT_FALSE(IsValidBbitWidth(3));
  EXPECT_FALSE(IsValidBbitWidth(12));
  EXPECT_FALSE(IsValidBbitWidth(64));
}

TEST(BbitKernelTest, GroupLsbMask) {
  EXPECT_EQ(BbitGroupLsbMask(1), ~0ULL);
  EXPECT_EQ(BbitGroupLsbMask(4), 0x1111111111111111ULL);
  EXPECT_EQ(BbitGroupLsbMask(8), 0x0101010101010101ULL);
  EXPECT_EQ(BbitGroupLsbMask(32), 0x0000000100000001ULL);
}

TEST(BbitKernelTest, IdenticalSequencesMatchEverywhere) {
  const std::vector<uint64_t> w = {0xDEADBEEFCAFEF00DULL, 0x123456789ULL};
  for (uint32_t b : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const uint32_t total = 128 / b;
    EXPECT_EQ(MatchingBbitGroups(w.data(), w.data(), 0, total, b), total);
  }
}

class BbitKernelWidthTest : public testing::TestWithParam<uint32_t> {};

TEST_P(BbitKernelWidthTest, MatchesNaiveGroupComparison) {
  const uint32_t b = GetParam();
  const uint32_t vpw = 64 / b;
  Xoshiro256StarStar rng(77 + b);
  std::vector<uint64_t> x(4), y(4);
  for (int i = 0; i < 4; ++i) {
    x[i] = rng.Next();
    // Correlate y with x so matches are not vanishingly rare at large b.
    y[i] = rng.NextUnit() < 0.5 ? x[i] : rng.Next();
  }
  auto naive = [&](uint32_t from, uint32_t to) {
    uint32_t matches = 0;
    for (uint32_t j = from; j < to; ++j) {
      const uint64_t mask = (b == 64) ? ~0ULL : (1ULL << b) - 1;
      const uint64_t gx = (x[j / vpw] >> ((j % vpw) * b)) & mask;
      const uint64_t gy = (y[j / vpw] >> ((j % vpw) * b)) & mask;
      matches += (gx == gy);
    }
    return matches;
  };
  const uint32_t total = 4 * vpw;
  for (uint32_t from = 0; from <= total; from += std::max(1u, total / 16)) {
    for (uint32_t to = from; to <= total; to += std::max(1u, total / 16)) {
      EXPECT_EQ(MatchingBbitGroups(x.data(), y.data(), from, to, b),
                naive(from, to))
          << "b=" << b << " from=" << from << " to=" << to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BbitKernelWidthTest,
                         testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------------
// Signature store
// ---------------------------------------------------------------------------

// A small binary dataset with a mix of overlapping sets.
Dataset MakeSmallBinaryData() {
  DatasetBuilder builder(/*num_dims=*/500);
  Xoshiro256StarStar rng(5);
  for (int row = 0; row < 20; ++row) {
    std::vector<DimId> dims;
    for (int i = 0; i < 30; ++i) {
      dims.push_back(static_cast<DimId>(rng.NextBounded(500)));
    }
    builder.AddSetRow(std::move(dims));
  }
  return std::move(builder).Build();
}

TEST(BbitSignatureStoreTest, ValuesAreLowBitsOfMinhash) {
  const Dataset data = MakeSmallBinaryData();
  const MinwiseHasher hasher(99);
  for (uint32_t b : {1u, 4u, 16u, 32u}) {
    BbitSignatureStore store(&data, hasher, b);
    store.EnsureHashes(3, 64);
    uint32_t raw[kMinhashChunkInts];
    for (uint32_t chunk = 0; chunk < 64 / kMinhashChunkInts; ++chunk) {
      hasher.HashChunk(data.Row(3), chunk, raw);
      for (uint32_t i = 0; i < kMinhashChunkInts; ++i) {
        const uint32_t j = chunk * kMinhashChunkInts + i;
        const uint32_t mask =
            (b == 32) ? 0xffffffffu : ((1u << b) - 1);
        EXPECT_EQ(store.HashValue(3, j), raw[i] & mask)
            << "b=" << b << " hash=" << j;
      }
    }
  }
}

TEST(BbitSignatureStoreTest, MatchCountAgreesWithPerValueComparison) {
  const Dataset data = MakeSmallBinaryData();
  for (uint32_t b : {1u, 2u, 8u}) {
    BbitSignatureStore store(&data, MinwiseHasher(7), b);
    const uint32_t n = 192;
    const uint32_t count = store.MatchCount(0, 1, 0, n);
    uint32_t naive = 0;
    for (uint32_t j = 0; j < n; ++j) {
      naive += store.HashValue(0, j) == store.HashValue(1, j);
    }
    EXPECT_EQ(count, naive) << "b=" << b;
  }
}

TEST(BbitSignatureStoreTest, GrowthIsChunkedAndMonotone) {
  const Dataset data = MakeSmallBinaryData();
  BbitSignatureStore store(&data, MinwiseHasher(7), 4);
  EXPECT_EQ(store.NumHashes(0), 0u);
  store.EnsureHashes(0, 1);
  EXPECT_EQ(store.NumHashes(0), store.chunk_hashes());
  const uint64_t after_first = store.hashes_computed();
  store.EnsureHashes(0, store.chunk_hashes());  // Already there.
  EXPECT_EQ(store.hashes_computed(), after_first);
  store.EnsureHashes(0, store.chunk_hashes() + 1);
  EXPECT_EQ(store.NumHashes(0), 2 * store.chunk_hashes());
}

TEST(BbitSignatureStoreTest, BbitMatchesAreSupersetOfFullMatches) {
  // Wherever the full 32-bit minhashes agree, the b-bit truncations agree
  // too, so the b-bit match count dominates the full-width one.
  const Dataset data = MakeSmallBinaryData();
  const uint64_t seed = 31337;
  IntSignatureStore full(&data, MinwiseHasher(seed));
  for (uint32_t b : {1u, 2u, 4u, 8u}) {
    BbitSignatureStore truncated(&data, MinwiseHasher(seed), b);
    for (uint32_t a = 0; a < 6; ++a) {
      for (uint32_t c = a + 1; c < 6; ++c) {
        EXPECT_GE(truncated.MatchCount(a, c, 0, 128),
                  full.MatchCount(a, c, 0, 128))
            << "b=" << b << " pair=(" << a << "," << c << ")";
      }
    }
  }
}

TEST(BbitSignatureStoreTest, SignatureBytesReflectWidth) {
  const Dataset data = MakeSmallBinaryData();
  BbitSignatureStore narrow(&data, MinwiseHasher(7), 2);
  BbitSignatureStore wide(&data, MinwiseHasher(7), 16);
  narrow.EnsureAll(128);
  wide.EnsureAll(128);
  // 128 hashes: 2-bit → 4 words/row, 16-bit → 32 words/row.
  EXPECT_EQ(narrow.signature_bytes(), 20u * 4 * 8);
  EXPECT_EQ(wide.signature_bytes(), 20u * 32 * 8);
}

// ---------------------------------------------------------------------------
// Collision law: Pr[collision] = c + (1 - c) J
// ---------------------------------------------------------------------------

// Builds a two-row dataset whose rows have Jaccard similarity exactly
// overlap / (2 * kSetSize - overlap).
Dataset MakeControlledPair(uint32_t overlap) {
  constexpr uint32_t kSetSize = 100;
  DatasetBuilder builder(/*num_dims=*/100000);
  std::vector<DimId> x, y;
  for (uint32_t i = 0; i < kSetSize; ++i) x.push_back(i);
  for (uint32_t i = 0; i < overlap; ++i) y.push_back(i);
  for (uint32_t i = overlap; i < kSetSize; ++i) y.push_back(50000 + i);
  builder.AddSetRow(std::move(x));
  builder.AddSetRow(std::move(y));
  return std::move(builder).Build();
}

class BbitCollisionLawTest : public testing::TestWithParam<uint32_t> {};

TEST_P(BbitCollisionLawTest, EmpiricalRateMatchesAffineLaw) {
  const uint32_t b = GetParam();
  const double c = std::ldexp(1.0, -static_cast<int>(b));
  for (uint32_t overlap : {20u, 60u, 90u}) {
    const Dataset data = MakeControlledPair(overlap);
    const double jaccard = JaccardSimilarity(data.Row(0), data.Row(1));
    BbitSignatureStore store(&data, MinwiseHasher(4242), b);
    const uint32_t n = 8192;
    const uint32_t m = store.MatchCount(0, 1, 0, n);
    const double expected = c + (1.0 - c) * jaccard;
    // Binomial std-dev at n = 8192 is < 0.006; allow 4 sigma.
    EXPECT_NEAR(static_cast<double>(m) / n, expected, 0.025)
        << "b=" << b << " J=" << jaccard;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BbitCollisionLawTest,
                         testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------------
// BbitMinwisePosterior
// ---------------------------------------------------------------------------

TEST(BbitPosteriorTest, CollisionFloor) {
  EXPECT_DOUBLE_EQ(BbitMinwisePosterior(0.5, 1).collision_floor(), 0.5);
  EXPECT_DOUBLE_EQ(BbitMinwisePosterior(0.5, 2).collision_floor(), 0.25);
  EXPECT_DOUBLE_EQ(BbitMinwisePosterior(0.5, 8).collision_floor(),
                   1.0 / 256.0);
}

TEST(BbitPosteriorTest, ProbAboveThresholdIsAProbabilityAndMonotoneInM) {
  for (uint32_t b : {1u, 2u, 4u, 8u}) {
    const BbitMinwisePosterior model(0.5, b);
    for (int n : {32, 128, 512}) {
      double prev = -1.0;
      for (int m = 0; m <= n; m += n / 16) {
        const double p = model.ProbAboveThreshold(m, n);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_GE(p, prev - 1e-12) << "b=" << b << " m=" << m << " n=" << n;
        prev = p;
      }
    }
  }
}

TEST(BbitPosteriorTest, EstimateInvertsAffineLaw) {
  const BbitMinwisePosterior model(0.5, 2);  // c = 0.25.
  // Match fraction exactly at the floor → similarity 0.
  EXPECT_DOUBLE_EQ(model.Estimate(32, 128), 0.0);
  // Below the floor clamps to 0.
  EXPECT_DOUBLE_EQ(model.Estimate(10, 128), 0.0);
  // All matches → similarity 1.
  EXPECT_DOUBLE_EQ(model.Estimate(128, 128), 1.0);
  // u = 0.25 + 0.75 * 0.6 = 0.7 → s = 0.6.
  EXPECT_NEAR(model.Estimate(70, 100), 0.6, 1e-12);
}

TEST(BbitPosteriorTest, WideWidthMatchesPlainJaccardPosterior) {
  // At b = 32 the floor 2^-32 is negligible: the model must agree with the
  // uniform-prior Jaccard posterior to high accuracy.
  const BbitMinwisePosterior bbit(0.6, 32);
  const JaccardPosterior plain(0.6);
  for (int n : {32, 128, 512}) {
    for (int m = 0; m <= n; m += n / 8) {
      EXPECT_NEAR(bbit.ProbAboveThreshold(m, n), plain.ProbAboveThreshold(m, n),
                  1e-6)
          << "m=" << m << " n=" << n;
      EXPECT_NEAR(bbit.Estimate(m, n), plain.Estimate(m, n), 1e-6);
      EXPECT_NEAR(bbit.Concentration(m, n, 0.05),
                  plain.Concentration(m, n, 0.05), 1e-5);
    }
  }
}

TEST(BbitPosteriorTest, ConcentrationIsAProbabilityMonotoneInDelta) {
  const BbitMinwisePosterior model(0.4, 4);
  for (int n : {64, 256}) {
    const int m = n / 2;
    double prev = 0.0;
    for (double delta : {0.01, 0.02, 0.05, 0.1, 0.2}) {
      const double conc = model.Concentration(m, n, delta);
      EXPECT_GE(conc, 0.0);
      EXPECT_LE(conc, 1.0);
      EXPECT_GE(conc, prev - 1e-12);
      prev = conc;
    }
  }
}

TEST(BbitPosteriorTest, ConcentrationSharpensWithMoreHashes) {
  const BbitMinwisePosterior model(0.4, 4);
  // Same match fraction, growing n: the posterior tightens.
  const double c64 = model.Concentration(40, 64, 0.05);
  const double c256 = model.Concentration(160, 256, 0.05);
  const double c1024 = model.Concentration(640, 1024, 0.05);
  EXPECT_LT(c64, c256);
  EXPECT_LT(c256, c1024);
}

TEST(BbitPosteriorTest, NarrowWidthNeedsMoreHashesToConcentrate) {
  // Each 1-bit hash carries less information than an 8-bit hash, so at the
  // same (m/n, n) the 1-bit posterior over S is wider.
  const BbitMinwisePosterior narrow(0.4, 1);
  const BbitMinwisePosterior wide(0.4, 8);
  // Observed match fractions corresponding to S = 0.5 under each law.
  const int n = 256;
  const int m_narrow = static_cast<int>((0.5 + 0.5 * 0.5) * n);   // u = 0.75.
  const int m_wide = static_cast<int>((1.0 / 256 + (1 - 1.0 / 256) * 0.5) * n);
  EXPECT_LT(narrow.Concentration(m_narrow, n, 0.05),
            wide.Concentration(m_wide, n, 0.05));
}

// Cross-validation against numerical integration of the truncated
// posterior density u^m (1-u)^(n-m) on [c, 1] (mirrors the cosine
// quadrature test in core_test.cc).
class BbitPosteriorQuadratureTest
    : public testing::TestWithParam<std::tuple<uint32_t, int, int>> {};

TEST_P(BbitPosteriorQuadratureTest, MatchesDirectIntegration) {
  const auto [b, m, n] = GetParam();
  const double t = 0.55;
  const BbitMinwisePosterior model(t, b);
  const double c = model.collision_floor();
  const double tu = c + (1.0 - c) * t;

  auto logf = [&, m = m, n = n](double u) {
    if (u <= 0.0 || u >= 1.0) {
      if (u >= 1.0) return m == n ? 0.0 : -1e300;
      return m == 0 ? 0.0 : -1e300;
    }
    return m * std::log(u) + (n - m) * std::log1p(-u);
  };
  const double mode = std::clamp(static_cast<double>(m) / n, c, 1.0);
  const double mx = logf(mode);
  auto integrate = [&](double lo, double hi) {
    const int steps = 20000;
    const double h = (hi - lo) / steps;
    double acc = 0.0;
    for (int i = 0; i <= steps; ++i) {
      const double w = (i == 0 || i == steps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
      acc += w * std::exp(logf(lo + i * h) - mx);
    }
    return acc * h / 3.0;
  };

  const double numerator = integrate(tu, 1.0);
  const double denominator = integrate(c, 1.0);
  ASSERT_GT(denominator, 0.0);
  EXPECT_NEAR(model.ProbAboveThreshold(m, n), numerator / denominator, 1e-5)
      << "b=" << b << " m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BbitPosteriorQuadratureTest,
    testing::Values(std::tuple{1u, 48, 64}, std::tuple{1u, 33, 64},
                    std::tuple{2u, 40, 64}, std::tuple{2u, 100, 128},
                    std::tuple{4u, 20, 64}, std::tuple{8u, 8, 64}));

TEST(BbitPosteriorTest, InferenceCacheMinMatchesMonotoneInN) {
  const BbitMinwisePosterior model(0.5, 2);
  InferenceCache<BbitMinwisePosterior> cache(&model, 32, 512, 0.03, 0.05,
                                             0.03);
  // The required match *fraction* to stay alive grows with n (the posterior
  // tightens), so minMatches grows at least linearly.
  uint32_t prev = 0;
  for (uint32_t n = 32; n <= 512; n += 32) {
    const uint32_t mm = cache.MinMatches(n);
    EXPECT_GE(mm, prev);
    EXPECT_LE(mm, n + 1);
    prev = mm;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: BayesLSH over b-bit signatures
// ---------------------------------------------------------------------------

// Dataset of base sets plus perturbed copies spanning a range of Jaccard
// similarities; returns all (i < j) pairs as the candidate list.
struct PlantedData {
  Dataset data;
  std::vector<std::pair<uint32_t, uint32_t>> all_pairs;
};

PlantedData MakePlantedJaccardData() {
  constexpr uint32_t kBases = 40;
  constexpr uint32_t kSetSize = 80;
  DatasetBuilder builder(/*num_dims=*/200000);
  Xoshiro256StarStar rng(2024);
  for (uint32_t base = 0; base < kBases; ++base) {
    std::vector<DimId> dims;
    while (dims.size() < kSetSize) {
      dims.push_back(static_cast<DimId>(rng.NextBounded(200000)));
    }
    builder.AddSetRow(std::vector<DimId>(dims));
    // A copy sharing `keep` of the base elements (high-similarity partner).
    const uint32_t keep = 40 + static_cast<uint32_t>(rng.NextBounded(40));
    std::vector<DimId> copy(dims.begin(), dims.begin() + keep);
    while (copy.size() < kSetSize) {
      copy.push_back(static_cast<DimId>(100000 + rng.NextBounded(100000)));
    }
    builder.AddSetRow(std::move(copy));
  }
  PlantedData out;
  out.data = std::move(builder).Build();
  for (uint32_t i = 0; i < out.data.num_vectors(); ++i) {
    for (uint32_t j = i + 1; j < out.data.num_vectors(); ++j) {
      out.all_pairs.push_back({i, j});
    }
  }
  return out;
}

TEST(BbitEndToEndTest, BayesLshRecallAndAccuracy) {
  const PlantedData planted = MakePlantedJaccardData();
  const double t = 0.4;
  // Ground truth.
  std::vector<ScoredPair> truth;
  for (const auto& [i, j] : planted.all_pairs) {
    const double s =
        JaccardSimilarity(planted.data.Row(i), planted.data.Row(j));
    if (s >= t) truth.push_back({i, j, s});
  }
  ASSERT_GT(truth.size(), 10u);

  const BbitMinwisePosterior model(t, 4);
  BbitSignatureStore store(&planted.data, MinwiseHasher(7), 4);
  BayesLshParams params;
  params.hashes_per_round = 64;
  params.max_hashes = 4096;
  VerifyStats stats;
  const auto result =
      BayesLshVerify(model, &store, planted.all_pairs, params, &stats);

  // The vast majority of the ~3000 non-pairs must be pruned.
  EXPECT_GT(stats.pruned, planted.all_pairs.size() / 2);

  // Recall over the true pairs.
  uint32_t found = 0;
  double worst_error = 0.0;
  for (const auto& tp : truth) {
    for (const auto& rp : result) {
      if (rp.a == tp.a && rp.b == tp.b) {
        ++found;
        worst_error = std::max(worst_error, std::abs(rp.sim - tp.sim));
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(found) / truth.size(), 0.9);
  // δ = 0.05, γ = 0.03: most estimates within δ; allow a loose cap on the
  // worst case since this is one seed.
  EXPECT_LT(worst_error, 0.2);
}

TEST(BbitEndToEndTest, LiteVariantOutputsExactSimilaritiesOnly) {
  const PlantedData planted = MakePlantedJaccardData();
  const double t = 0.4;
  const BbitMinwisePosterior model(t, 2);
  BbitSignatureStore store(&planted.data, MinwiseHasher(13), 2);
  BayesLshParams params;
  params.hashes_per_round = 64;
  auto exact = [&](uint32_t a, uint32_t b) {
    return JaccardSimilarity(planted.data.Row(a), planted.data.Row(b));
  };
  VerifyStats stats;
  const auto result = BayesLshLiteVerify<BbitMinwisePosterior,
                                         BbitSignatureStore>(
      model, &store, planted.all_pairs, /*max_prune_hashes=*/256, exact, t,
      params, &stats);
  EXPECT_GT(stats.pruned, 0u);
  EXPECT_EQ(stats.exact_computed + stats.pruned, planted.all_pairs.size());
  for (const auto& p : result) {
    EXPECT_GE(p.sim, t);
    EXPECT_NEAR(p.sim, exact(p.a, p.b), 1e-12);
  }
}

}  // namespace
}  // namespace bayeslsh
