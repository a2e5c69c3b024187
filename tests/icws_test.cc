// Tests for weighted-Jaccard support: the exact generalized Jaccard
// kernel, the ICWS hash family's collision law, ICWS signatures in the
// lazy integer store, banding candidate generation, and end-to-end
// BayesLSH over weighted vectors.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/lsh_banding.h"
#include "common/prng.h"
#include "core/bayes_lsh.h"
#include "lsh/icws_hasher.h"
#include "lsh/signature_store.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Exact weighted Jaccard
// ---------------------------------------------------------------------------

Dataset MakeWeightedRows(
    const std::vector<std::vector<std::pair<DimId, float>>>& rows,
    uint32_t dims) {
  DatasetBuilder builder(dims);
  for (const auto& r : rows) {
    builder.AddRow(std::vector<std::pair<DimId, float>>(r));
  }
  return std::move(builder).Build();
}

// A lazily grown store of ICWS signatures.
IntSignatureStore IcwsStore(const Dataset* data, uint64_t seed) {
  return IntSignatureStore(
      data, std::make_shared<IcwsChunkHasher>(IcwsHasher(seed)));
}

TEST(WeightedJaccardTest, HandComputedCases) {
  const Dataset data = MakeWeightedRows(
      {{{0, 2.0f}, {1, 1.0f}}, {{0, 1.0f}, {2, 3.0f}}, {{0, 2.0f}, {1, 1.0f}}},
      10);
  // min: dim0 1; max: dim0 2 + dim1 1 + dim2 3 = 6.
  EXPECT_NEAR(WeightedJaccardSimilarity(data.Row(0), data.Row(1)), 1.0 / 6.0,
              1e-12);
  // Identical vectors: 1.
  EXPECT_DOUBLE_EQ(WeightedJaccardSimilarity(data.Row(0), data.Row(2)), 1.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(WeightedJaccardSimilarity(data.Row(0), data.Row(1)),
                   WeightedJaccardSimilarity(data.Row(1), data.Row(0)));
}

TEST(WeightedJaccardTest, ReducesToPlainJaccardOnBinaryWeights) {
  Xoshiro256StarStar rng(4);
  DatasetBuilder builder(500);
  for (int row = 0; row < 10; ++row) {
    std::vector<DimId> dims;
    for (int i = 0; i < 40; ++i) {
      dims.push_back(static_cast<DimId>(rng.NextBounded(500)));
    }
    builder.AddSetRow(std::move(dims));
  }
  const Dataset data = std::move(builder).Build();
  for (uint32_t a = 0; a < 10; ++a) {
    for (uint32_t b = a; b < 10; ++b) {
      EXPECT_NEAR(WeightedJaccardSimilarity(data.Row(a), data.Row(b)),
                  JaccardSimilarity(data.Row(a), data.Row(b)), 1e-12);
    }
  }
}

TEST(WeightedJaccardTest, ScaleSensitivity) {
  // Doubling one vector's weights halves the similarity of identical
  // supports: min/max = 1/2.
  const Dataset data =
      MakeWeightedRows({{{0, 1.0f}, {1, 1.0f}}, {{0, 2.0f}, {1, 2.0f}}}, 5);
  EXPECT_NEAR(WeightedJaccardSimilarity(data.Row(0), data.Row(1)), 0.5,
              1e-12);
}

// ---------------------------------------------------------------------------
// ICWS collision law
// ---------------------------------------------------------------------------

TEST(IcwsHasherTest, DeterministicForFixedSeed) {
  const Dataset data =
      MakeWeightedRows({{{0, 1.5f}, {3, 0.25f}, {7, 4.0f}}}, 10);
  const IcwsHasher hasher(77);
  uint32_t a[kIcwsChunkInts], b[kIcwsChunkInts];
  hasher.HashChunk(data.Row(0), 2, a);
  hasher.HashChunk(data.Row(0), 2, b);
  for (uint32_t i = 0; i < kIcwsChunkInts; ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(IcwsHasherTest, IdenticalVectorsAlwaysCollide) {
  const Dataset data = MakeWeightedRows(
      {{{1, 0.5f}, {4, 2.5f}}, {{1, 0.5f}, {4, 2.5f}}}, 10);
  IntSignatureStore store = IcwsStore(&data, 5);
  EXPECT_EQ(store.MatchCount(0, 1, 0, 512), 512u);
}

TEST(IcwsHasherTest, ScaleInvarianceOfWinningDimension) {
  // ICWS is *not* scale invariant in the pair sense (J_w of x vs 2x is
  // 0.5); but a single vector's hash is a function of the weights, so two
  // different-scale copies must collide at rate ~J_w = 0.5, strictly
  // between the rates for J_w ~ 0.2 and J_w ~ 0.8 pairs.
  const Dataset data = MakeWeightedRows(
      {{{0, 1.0f}, {1, 2.0f}, {2, 0.5f}}, {{0, 2.0f}, {1, 4.0f}, {2, 1.0f}}},
      10);
  IntSignatureStore store = IcwsStore(&data, 6);
  const uint32_t n = 4096;
  const double rate =
      static_cast<double>(store.MatchCount(0, 1, 0, n)) / n;
  EXPECT_NEAR(rate, 0.5, 0.035);
}

class IcwsCollisionLawTest : public testing::TestWithParam<int> {};

TEST_P(IcwsCollisionLawTest, EmpiricalRateMatchesWeightedJaccard) {
  // Random non-negative weighted pairs with shared and private dimensions;
  // empirical collision rate over 8192 hashes must match J_w.
  const int variant = GetParam();
  Xoshiro256StarStar rng(900 + variant);
  std::vector<std::pair<DimId, float>> x, y;
  for (DimId d = 0; d < 30; ++d) {
    const double mode = rng.NextUnit();
    const float wx = static_cast<float>(0.1 + 3.0 * rng.NextUnit());
    const float wy = static_cast<float>(0.1 + 3.0 * rng.NextUnit());
    if (mode < 0.5) {  // Shared dimension.
      x.emplace_back(d, wx);
      y.emplace_back(d, wy);
    } else if (mode < 0.75) {
      x.emplace_back(d, wx);
    } else {
      y.emplace_back(d, wy);
    }
  }
  const Dataset data = MakeWeightedRows({x, y}, 30);
  const double jw = WeightedJaccardSimilarity(data.Row(0), data.Row(1));
  IntSignatureStore store = IcwsStore(&data, 901 + variant);
  const uint32_t n = 8192;
  const uint32_t m = store.MatchCount(0, 1, 0, n);
  // Binomial 4-sigma at n = 8192 is < 0.023.
  EXPECT_NEAR(static_cast<double>(m) / n, jw, 0.025) << "J_w=" << jw;
}

INSTANTIATE_TEST_SUITE_P(Variants, IcwsCollisionLawTest,
                         testing::Values(0, 1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Store + banding + end-to-end
// ---------------------------------------------------------------------------

TEST(IcwsStoreTest, LazyChunkedGrowth) {
  const Dataset data = MakeWeightedRows({{{0, 1.0f}}, {{1, 2.0f}}}, 5);
  IntSignatureStore store = IcwsStore(&data, 12);
  EXPECT_EQ(store.NumHashes(0), 0u);
  store.EnsureHashes(0, 5);
  EXPECT_EQ(store.NumHashes(0), kIcwsChunkInts);
  const uint64_t computed = store.hashes_computed();
  store.EnsureHashes(0, kIcwsChunkInts);
  EXPECT_EQ(store.hashes_computed(), computed);
}

// A weighted corpus with planted near-duplicate pairs.
struct WeightedWorkload {
  Dataset data;
  std::vector<std::pair<uint32_t, uint32_t>> all_pairs;
};

WeightedWorkload MakeWeightedWorkload(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  DatasetBuilder builder(50000);
  constexpr uint32_t kBases = 50;
  for (uint32_t base = 0; base < kBases; ++base) {
    std::vector<std::pair<DimId, float>> row;
    for (int e = 0; e < 50; ++e) {
      row.emplace_back(static_cast<DimId>(rng.NextBounded(50000)),
                       static_cast<float>(0.2 + 2.0 * rng.NextUnit()));
    }
    builder.AddRow(std::vector<std::pair<DimId, float>>(row));
    // Partner: same weights, lightly perturbed; a high-J_w pair.
    std::vector<std::pair<DimId, float>> partner = row;
    for (auto& [d, w] : partner) {
      w *= static_cast<float>(0.8 + 0.4 * rng.NextUnit());
    }
    builder.AddRow(std::move(partner));
  }
  WeightedWorkload w;
  w.data = std::move(builder).Build();
  for (uint32_t i = 0; i < w.data.num_vectors(); ++i) {
    for (uint32_t j = i + 1; j < w.data.num_vectors(); ++j) {
      w.all_pairs.push_back({i, j});
    }
  }
  return w;
}

TEST(IcwsEndToEndTest, BayesLshOverWeightedJaccard) {
  const WeightedWorkload w = MakeWeightedWorkload(321);
  const double t = 0.6;
  std::vector<ScoredPair> truth;
  for (const auto& [i, j] : w.all_pairs) {
    const double s = WeightedJaccardSimilarity(w.data.Row(i), w.data.Row(j));
    if (s >= t) truth.push_back({i, j, s});
  }
  ASSERT_GT(truth.size(), 20u);

  const JaccardPosterior model(t);
  IntSignatureStore store = IcwsStore(&w.data, 13);
  BayesLshParams params;
  params.hashes_per_round = 16;
  params.max_hashes = 2048;
  VerifyStats stats;
  const auto out =
      BayesLshVerify(model, &store, w.all_pairs, params, &stats);

  EXPECT_GT(stats.pruned, w.all_pairs.size() / 2);
  uint32_t found = 0;
  double max_err = 0.0;
  for (const auto& tp : truth) {
    for (const auto& rp : out) {
      if (rp.a == tp.a && rp.b == tp.b) {
        ++found;
        max_err = std::max(max_err, std::abs(rp.sim - tp.sim));
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(found) / truth.size(), 0.9);
  EXPECT_LT(max_err, 0.2);
}

TEST(IcwsEndToEndTest, BandingCandidatesReachTargetRecall) {
  const WeightedWorkload w = MakeWeightedWorkload(322);
  const double t = 0.6;
  IntSignatureStore store = IcwsStore(&w.data, 14);
  LshBandingParams banding;
  const CandidateList cands = JaccardLshCandidates(&store, t, banding);

  std::set<std::pair<uint32_t, uint32_t>> cand_set(cands.pairs.begin(),
                                                   cands.pairs.end());
  uint32_t truths = 0, found = 0;
  for (const auto& [i, j] : w.all_pairs) {
    if (WeightedJaccardSimilarity(w.data.Row(i), w.data.Row(j)) >= t) {
      ++truths;
      found += cand_set.count({i, j});
    }
  }
  ASSERT_GT(truths, 20u);
  EXPECT_GE(static_cast<double>(found) / truths, 0.9);
  // And the candidate set is far smaller than the full pair count.
  EXPECT_LT(cands.size(), w.all_pairs.size() / 4);
}

TEST(IcwsEndToEndTest, LiteVariantExactWeightedJaccard) {
  const WeightedWorkload w = MakeWeightedWorkload(323);
  const double t = 0.6;
  const JaccardPosterior model(t);
  IntSignatureStore store = IcwsStore(&w.data, 15);
  BayesLshParams params;
  params.hashes_per_round = 16;
  auto exact = [&](uint32_t a, uint32_t b) {
    return WeightedJaccardSimilarity(w.data.Row(a), w.data.Row(b));
  };
  const auto out = BayesLshLiteVerify<JaccardPosterior, IntSignatureStore>(
      model, &store, w.all_pairs, /*max_prune_hashes=*/64, exact, t, params,
      nullptr);
  for (const auto& p : out) {
    EXPECT_GE(p.sim, t);
    EXPECT_NEAR(p.sim, exact(p.a, p.b), 1e-12);
  }
}

}  // namespace
}  // namespace bayeslsh
