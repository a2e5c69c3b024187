// Statistical calibration of the paper's probabilistic guarantees, on
// controlled-similarity pair populations (no candidate generator, no
// synthetic-corpus noise — similarities are exact by construction):
//
//   Guarantee 1 (recall): pruning loses true pairs at a rate governed by
//     ε. Empirically (paper Table 5) the false-negative rate stays below ε
//     itself; we assert FN <= ε + slack and monotone response to ε.
//
//   Guarantee 2 (accuracy): among output pairs, the fraction whose
//     estimate errs by more than δ is governed by γ (Table 5 again:
//     fraction <= γ); we assert <= γ + slack and monotone response to γ.
//
// Each posterior family is calibrated through the real engine
// (BayesLshVerify) over ~1000 independent pairs per setting. Pairs use
// disjoint dimension ranges, so their hash outcomes are independent under
// the shared counter-based hash streams.

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_lsh.h"
#include "core/inference_cache.h"
#include "euclidean/distance_posterior.h"
#include "euclidean/pstable_hasher.h"
#include "lsh/gaussian_source.h"
#include "lsh/signature_store.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Controlled-pair builders
// ---------------------------------------------------------------------------

struct PairPopulation {
  Dataset data;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // (2i, 2i+1).
  std::vector<double> sims;                          // Exact similarity.
};

// Jaccard pairs: rows (2i, 2i+1) are sets of size kSetSize sharing exactly
// the overlap that realizes sims[i % sims.size()]; disjoint universes per
// pair.
PairPopulation MakeJaccardPairs(const std::vector<double>& sims,
                                uint32_t count) {
  constexpr uint32_t kSetSize = 60;
  PairPopulation out;
  DatasetBuilder builder(count * 2000);
  for (uint32_t i = 0; i < count; ++i) {
    const double s = sims[i % sims.size()];
    const uint32_t overlap = static_cast<uint32_t>(
        std::lround(2.0 * kSetSize * s / (1.0 + s)));
    const DimId base = i * 2000;
    std::vector<DimId> x, y;
    for (uint32_t e = 0; e < kSetSize; ++e) x.push_back(base + e);
    for (uint32_t e = 0; e < overlap; ++e) y.push_back(base + e);
    for (uint32_t e = overlap; e < kSetSize; ++e) y.push_back(base + 1000 + e);
    builder.AddSetRow(std::move(x));
    builder.AddSetRow(std::move(y));
    out.pairs.push_back({2 * i, 2 * i + 1});
  }
  out.data = std::move(builder).Build();
  for (uint32_t i = 0; i < count; ++i) {
    out.sims.push_back(JaccardSimilarity(out.data.Row(2 * i),
                                         out.data.Row(2 * i + 1)));
  }
  return out;
}

// Cosine pairs: rows (2i, 2i+1) are unit vectors in a private 2-D plane
// (dims 2i, 2i+1) at exactly the requested angle.
PairPopulation MakeCosinePairs(const std::vector<double>& sims,
                               uint32_t count) {
  PairPopulation out;
  DatasetBuilder builder(count * 2);
  for (uint32_t i = 0; i < count; ++i) {
    const double c = sims[i % sims.size()];
    const DimId d0 = 2 * i, d1 = 2 * i + 1;
    builder.AddRow({{d0, 1.0f}});
    builder.AddRow({{d0, static_cast<float>(c)},
                    {d1, static_cast<float>(std::sqrt(1.0 - c * c))}});
    out.pairs.push_back({2 * i, 2 * i + 1});
  }
  out.data = std::move(builder).Build();
  for (uint32_t i = 0; i < count; ++i) {
    out.sims.push_back(CosineSimilarity(out.data.Row(2 * i),
                                        out.data.Row(2 * i + 1)));
  }
  return out;
}

// False-negative rate among pairs with sim >= t.
double FalseNegativeRate(const PairPopulation& pop,
                         const std::vector<ScoredPair>& output, double t) {
  std::vector<bool> in_output(pop.data.num_vectors(), false);
  for (const auto& p : output) in_output[p.a] = true;  // a = 2i is unique.
  uint32_t truths = 0, missed = 0;
  for (size_t i = 0; i < pop.pairs.size(); ++i) {
    if (pop.sims[i] >= t) {
      ++truths;
      if (!in_output[pop.pairs[i].first]) ++missed;
    }
  }
  return truths == 0 ? 0.0 : static_cast<double>(missed) / truths;
}

// Fraction of output pairs with |estimate - exact| > delta.
double BadEstimateRate(const PairPopulation& pop,
                       const std::vector<ScoredPair>& output, double delta) {
  if (output.empty()) return 0.0;
  uint32_t bad = 0;
  for (const auto& p : output) {
    const double exact = pop.sims[p.a / 2];
    if (std::abs(p.sim - exact) > delta) ++bad;
  }
  return static_cast<double>(bad) / output.size();
}

// ---------------------------------------------------------------------------
// Jaccard calibration
// ---------------------------------------------------------------------------

class JaccardEpsilonCalibration : public testing::TestWithParam<double> {};

TEST_P(JaccardEpsilonCalibration, FalseNegativesBoundedByEpsilon) {
  const double epsilon = GetParam();
  const double t = 0.5;
  // True pairs across the band above the threshold (the hardest live just
  // above it).
  const PairPopulation pop =
      MakeJaccardPairs({0.52, 0.56, 0.60, 0.70, 0.85}, 1000);
  const JaccardPosterior model(t);
  IntSignatureStore store(&pop.data, MinwiseHasher(555));
  BayesLshParams params;
  params.epsilon = epsilon;
  params.hashes_per_round = 16;
  params.max_hashes = 512;
  const auto out = BayesLshVerify(model, &store, pop.pairs, params, nullptr);
  const double fn = FalseNegativeRate(pop, out, t);
  // Paper Table 5: FN rate stays below ε itself; allow binomial noise.
  EXPECT_LE(fn, epsilon + 0.03) << "epsilon=" << epsilon;
}

INSTANTIATE_TEST_SUITE_P(Epsilons, JaccardEpsilonCalibration,
                         testing::Values(0.01, 0.03, 0.09));

TEST(JaccardCalibration, FalseNegativesRespondMonotonicallyToEpsilon) {
  const double t = 0.5;
  const PairPopulation pop = MakeJaccardPairs({0.52, 0.55, 0.58}, 1200);
  const JaccardPosterior model(t);
  double fn_low = 0, fn_high = 0;
  for (const double epsilon : {0.01, 0.25}) {
    IntSignatureStore store(&pop.data, MinwiseHasher(556));
    BayesLshParams params;
    params.epsilon = epsilon;
    params.hashes_per_round = 16;
    params.max_hashes = 512;
    const auto out =
        BayesLshVerify(model, &store, pop.pairs, params, nullptr);
    (epsilon < 0.1 ? fn_low : fn_high) = FalseNegativeRate(pop, out, t);
  }
  EXPECT_LE(fn_low, fn_high + 0.01);
}

class JaccardGammaCalibration : public testing::TestWithParam<double> {};

TEST_P(JaccardGammaCalibration, EstimateErrorsBoundedByGamma) {
  const double gamma = GetParam();
  const double t = 0.4, delta = 0.05;
  // Population spanning the output range, as in Table 5's setup.
  const PairPopulation pop =
      MakeJaccardPairs({0.45, 0.55, 0.65, 0.75, 0.9}, 1000);
  const JaccardPosterior model(t);
  IntSignatureStore store(&pop.data, MinwiseHasher(557));
  BayesLshParams params;
  params.gamma = gamma;
  params.delta = delta;
  params.hashes_per_round = 16;
  params.max_hashes = 2048;
  const auto out = BayesLshVerify(model, &store, pop.pairs, params, nullptr);
  ASSERT_GT(out.size(), 500u);
  EXPECT_LE(BadEstimateRate(pop, out, delta), gamma + 0.03)
      << "gamma=" << gamma;
}

INSTANTIATE_TEST_SUITE_P(Gammas, JaccardGammaCalibration,
                         testing::Values(0.01, 0.05, 0.09));

TEST(JaccardCalibration, SmallerDeltaShrinksMeanError) {
  const double t = 0.4;
  const PairPopulation pop = MakeJaccardPairs({0.5, 0.7, 0.9}, 600);
  const JaccardPosterior model(t);
  double mean_err[2] = {0, 0};
  int idx = 0;
  for (const double delta : {0.1, 0.02}) {
    IntSignatureStore store(&pop.data, MinwiseHasher(558));
    BayesLshParams params;
    params.delta = delta;
    params.hashes_per_round = 16;
    params.max_hashes = 4096;
    const auto out =
        BayesLshVerify(model, &store, pop.pairs, params, nullptr);
    double acc = 0;
    for (const auto& p : out) acc += std::abs(p.sim - pop.sims[p.a / 2]);
    mean_err[idx++] = out.empty() ? 0.0 : acc / out.size();
  }
  EXPECT_LT(mean_err[1], mean_err[0]);
}

// ---------------------------------------------------------------------------
// Cosine calibration
// ---------------------------------------------------------------------------

TEST(CosineCalibration, FalseNegativesBoundedByEpsilon) {
  const double t = 0.7, epsilon = 0.03;
  const PairPopulation pop =
      MakeCosinePairs({0.72, 0.75, 0.8, 0.88, 0.95}, 1000);
  const CosinePosterior model(t);
  const ImplicitGaussianSource gaussians(808);
  BitSignatureStore store(&pop.data, SrpHasher(&gaussians));
  BayesLshParams params;
  params.epsilon = epsilon;
  params.hashes_per_round = 32;
  params.max_hashes = 4096;
  const auto out = BayesLshVerify(model, &store, pop.pairs, params, nullptr);
  EXPECT_LE(FalseNegativeRate(pop, out, t), epsilon + 0.03);
}

TEST(CosineCalibration, EstimateErrorsBoundedByGamma) {
  const double t = 0.5, delta = 0.05, gamma = 0.05;
  const PairPopulation pop =
      MakeCosinePairs({0.55, 0.65, 0.75, 0.85, 0.93}, 1000);
  const CosinePosterior model(t);
  const ImplicitGaussianSource gaussians(809);
  BitSignatureStore store(&pop.data, SrpHasher(&gaussians));
  BayesLshParams params;
  params.gamma = gamma;
  params.delta = delta;
  params.hashes_per_round = 32;
  params.max_hashes = 4096;
  const auto out = BayesLshVerify(model, &store, pop.pairs, params, nullptr);
  ASSERT_GT(out.size(), 500u);
  EXPECT_LE(BadEstimateRate(pop, out, delta), gamma + 0.03);
}

// ---------------------------------------------------------------------------
// b-bit minwise calibration
// ---------------------------------------------------------------------------

TEST(BbitCalibration, GuaranteesHoldUnderTruncatedHashes) {
  const double t = 0.5, epsilon = 0.03, delta = 0.05, gamma = 0.05;
  const PairPopulation pop =
      MakeJaccardPairs({0.55, 0.6, 0.7, 0.8, 0.9}, 1000);
  const BbitMinwisePosterior model(t, 2);
  BbitSignatureStore store(&pop.data, MinwiseHasher(810), 2);
  BayesLshParams params;
  params.epsilon = epsilon;
  params.delta = delta;
  params.gamma = gamma;
  params.hashes_per_round = 64;
  params.max_hashes = 4096;
  const auto out = BayesLshVerify(model, &store, pop.pairs, params, nullptr);
  EXPECT_LE(FalseNegativeRate(pop, out, t), epsilon + 0.03);
  EXPECT_LE(BadEstimateRate(pop, out, delta), gamma + 0.03);
}

// ---------------------------------------------------------------------------
// Euclidean pruning calibration
// ---------------------------------------------------------------------------

TEST(EuclideanCalibration, TrueNeighboursSurvivePruning) {
  // Pairs at distances below the radius, each in a private dimension pair;
  // the pruning pass (the BayesLSH-Lite loop Euclidean verification runs,
  // with banding made trivial) must keep ~all of them.
  const double radius = 1.0;
  constexpr uint32_t kCount = 800;
  DatasetBuilder builder(kCount * 2);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const std::vector<double> dists = {0.3, 0.5, 0.7, 0.9};
  for (uint32_t i = 0; i < kCount; ++i) {
    const double d = dists[i % dists.size()];
    builder.AddRow({{2 * i, 5.0f}});
    builder.AddRow({{2 * i, 5.0f}, {2 * i + 1, static_cast<float>(d)}});
    pairs.push_back({2 * i, 2 * i + 1});
  }
  const Dataset data = std::move(builder).Build();

  const double width = 2.0 * radius;
  const EuclideanPosterior model =
      EuclideanPosterior::MakeForRadius(radius, width);
  InferenceCache<EuclideanPosterior> cache(&model, 32, 128, 0.03, 0.05,
                                           0.05);
  IntSignatureStore store(
      &data, std::make_shared<PstableChunkHasher>(PstableHasher(4141, width)));
  uint32_t missed = 0;
  for (const auto& [a, b] : pairs) {
    uint32_t m = 0, n = 0;
    bool pruned = false;
    for (uint32_t round = 0; round < 4; ++round) {
      m += store.MatchCount(a, b, n, n + 32);
      n += 32;
      if (m < cache.MinMatches(n)) {
        pruned = true;
        break;
      }
    }
    if (pruned) ++missed;
  }
  EXPECT_LE(static_cast<double>(missed) / pairs.size(), 0.03 + 0.03);
}

TEST(EuclideanCalibration, FarPairsArePruned) {
  // Distances of 3x-6x the radius must be pruned almost always.
  const double radius = 1.0;
  constexpr uint32_t kCount = 400;
  DatasetBuilder builder(kCount * 2);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < kCount; ++i) {
    const double d = 3.0 + 3.0 * (i % 2);
    builder.AddRow({{2 * i, 5.0f}});
    builder.AddRow({{2 * i, 5.0f}, {2 * i + 1, static_cast<float>(d)}});
    pairs.push_back({2 * i, 2 * i + 1});
  }
  const Dataset data = std::move(builder).Build();

  const double width = 2.0 * radius;
  const EuclideanPosterior model =
      EuclideanPosterior::MakeForRadius(radius, width);
  InferenceCache<EuclideanPosterior> cache(&model, 32, 128, 0.03, 0.05,
                                           0.05);
  IntSignatureStore store(
      &data, std::make_shared<PstableChunkHasher>(PstableHasher(4242, width)));
  uint32_t pruned = 0;
  for (const auto& [a, b] : pairs) {
    uint32_t m = 0, n = 0;
    for (uint32_t round = 0; round < 4; ++round) {
      m += store.MatchCount(a, b, n, n + 32);
      n += 32;
      if (m < cache.MinMatches(n)) {
        ++pruned;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(pruned) / pairs.size(), 0.95);
}

}  // namespace
}  // namespace bayeslsh
