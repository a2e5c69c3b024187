// Tests for the BayesLSH core: posterior models, the inference cache, the
// BayesLSH / BayesLSH-Lite engines, classical verifiers and quality metrics.

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "core/bayes_lsh.h"
#include "core/classical.h"
#include "core/cosine_posterior.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "core/metrics.h"
#include "lsh/gaussian_source.h"
#include "stats/special_functions.h"
#include "vec/dataset.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// JaccardPosterior
// ---------------------------------------------------------------------------

TEST(JaccardPosteriorTest, UniformPriorProbAboveThresholdClosedForm) {
  // With Beta(1,1): Pr[S >= t | M(m,n)] = 1 - I_t(m+1, n-m+1).
  const JaccardPosterior model(0.6);
  for (int n : {8, 32, 128}) {
    for (int m = 0; m <= n; m += n / 4) {
      EXPECT_NEAR(model.ProbAboveThreshold(m, n),
                  1.0 - RegularizedIncompleteBeta(m + 1, n - m + 1, 0.6),
                  1e-12);
    }
  }
}

TEST(JaccardPosteriorTest, UniformPriorModeIsMatchFraction) {
  // Posterior Beta(m+1, n-m+1) has mode m/n.
  const JaccardPosterior model(0.5);
  EXPECT_NEAR(model.Estimate(7, 10), 0.7, 1e-12);
  EXPECT_NEAR(model.Estimate(0, 10), 0.0, 1e-12);
  EXPECT_NEAR(model.Estimate(10, 10), 1.0, 1e-12);
}

TEST(JaccardPosteriorTest, InformativePriorShiftsEstimate) {
  // A prior centered at 0.2 pulls the estimate below m/n.
  const JaccardPosterior model(0.5, BetaDistribution(4, 16));
  const double est = model.Estimate(8, 10);
  EXPECT_LT(est, 0.8);
  EXPECT_GT(est, 0.2);
}

TEST(JaccardPosteriorTest, ProbAboveThresholdMonotoneInMatches) {
  const JaccardPosterior model(0.7);
  for (int n : {16, 64, 256}) {
    double prev = -1.0;
    for (int m = 0; m <= n; ++m) {
      const double p = model.ProbAboveThreshold(m, n);
      EXPECT_GE(p, prev - 1e-12);
      prev = p;
    }
  }
}

TEST(JaccardPosteriorTest, MoreDataSharpensAroundTruth) {
  const JaccardPosterior model(0.5);
  // True similarity 0.9: probability of exceeding 0.5 grows toward 1.
  EXPECT_GT(model.ProbAboveThreshold(90, 100),
            model.ProbAboveThreshold(9, 10));
  // True similarity 0.1: probability shrinks toward 0.
  EXPECT_LT(model.ProbAboveThreshold(10, 100),
            model.ProbAboveThreshold(1, 10));
}

TEST(JaccardPosteriorTest, ConcentrationIncreasesWithEvidence) {
  const JaccardPosterior model(0.5);
  const double c_small = model.Concentration(16, 32, 0.05);
  const double c_large = model.Concentration(256, 512, 0.05);
  EXPECT_GT(c_large, c_small);
  EXPECT_GT(c_large, 0.97);
}

TEST(JaccardPosteriorTest, ConcentrationIsAPosteriorMass) {
  const JaccardPosterior model(0.5);
  for (int m : {0, 10, 20}) {
    const double c = model.Concentration(m, 20, 0.05);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  // delta wide enough to cover (0,1) entirely: mass ~ 1.
  EXPECT_NEAR(model.Concentration(10, 20, 1.0), 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// CosinePosterior
// ---------------------------------------------------------------------------

TEST(CosinePosteriorTest, EstimateMapsMatchFractionThroughR2C) {
  const CosinePosterior model(0.7);
  // m/n = 0.75 -> cos(pi * 0.25) = sqrt(2)/2.
  EXPECT_NEAR(model.Estimate(75, 100), std::sqrt(2.0) / 2.0, 1e-12);
  // m = n -> similarity 1.
  EXPECT_NEAR(model.Estimate(64, 64), 1.0, 1e-12);
  // m/n below 0.5 clamps to r = 0.5 -> cosine 0.
  EXPECT_NEAR(model.Estimate(10, 100), 0.0, 1e-12);
}

TEST(CosinePosteriorTest, ProbAboveThresholdMonotoneInMatches) {
  const CosinePosterior model(0.6);
  for (int n : {32, 128, 512}) {
    double prev = -1.0;
    for (int m = 0; m <= n; m += 4) {
      const double p = model.ProbAboveThreshold(m, n);
      EXPECT_GE(p, prev - 1e-12) << "m=" << m << " n=" << n;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
  }
}

TEST(CosinePosteriorTest, HighMatchFractionConvergesToOne) {
  const CosinePosterior model(0.7);
  // r(0.7) ~ 0.747; a pair matching at 90% of hashes is clearly above.
  EXPECT_GT(model.ProbAboveThreshold(461, 512), 0.999);
}

TEST(CosinePosteriorTest, LowMatchFractionConvergesToZero) {
  const CosinePosterior model(0.7);
  EXPECT_LT(model.ProbAboveThreshold(280, 512), 1e-6);  // ~55% matches.
}

TEST(CosinePosteriorTest, StableWhenAllMassBelowHalf) {
  // m << n/2: the untruncated posterior sits almost entirely below r = 0.5.
  const CosinePosterior model(0.7);
  const double p = model.ProbAboveThreshold(50, 512);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1e-12);
  EXPECT_FALSE(std::isnan(p));
  const double c = model.Concentration(50, 512, 0.05);
  EXPECT_FALSE(std::isnan(c));
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

TEST(CosinePosteriorTest, ProbAtRHalfIsTotalMass) {
  // Integrating over the entire support must give 1 (via the threshold at
  // cosine ~ 0 <=> r = 0.5).
  const CosinePosterior model(1e-9);
  EXPECT_NEAR(model.ProbAboveThreshold(96, 128), 1.0, 1e-9);
}

TEST(CosinePosteriorTest, ConcentrationNearCertaintyForLargeN) {
  const CosinePosterior model(0.7);
  // 2048 hashes at 75% matches: posterior sd of r ~ 0.0096; delta = 0.05 on
  // the cosine maps to ~0.0225 on r (~2.35 sigma) -> mass ~ 0.98.
  EXPECT_GT(model.Concentration(1536, 2048, 0.05), 0.95);
  // 32 hashes: not concentrated at delta = 0.05.
  EXPECT_LT(model.Concentration(24, 32, 0.05), 0.9);
}

TEST(CosinePosteriorTest, ConcentrationHandlesEstimateNearOne) {
  const CosinePosterior model(0.9);
  // All hashes match: estimate 1, interval clamps at the domain edge.
  const double c = model.Concentration(512, 512, 0.05);
  EXPECT_GT(c, 0.9);
  EXPECT_LE(c, 1.0);
}

// Cross-validation against numerical integration of the truncated
// posterior density.
class CosinePosteriorQuadratureTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CosinePosteriorQuadratureTest, MatchesDirectIntegration) {
  const auto [m, n] = GetParam();
  const double t = 0.65;
  const CosinePosterior model(t);
  const double tr = 1.0 - std::acos(t) / std::numbers::pi;

  // Simpson integration of r^m (1-r)^(n-m) over [lo, hi], in log space for
  // stability. All integrals share one reference scale `mx` so their ratio
  // is meaningful.
  auto logf = [&](double r) {
    if (r <= 0.0 || r >= 1.0) {
      // Endpoint values: only matter when m or n-m is 0.
      if (r >= 1.0) return m == n ? 0.0 : -1e300;
      return m == 0 ? 0.0 : -1e300;
    }
    return m * std::log(r) + (n - m) * std::log1p(-r);
  };
  // Global maximum of the integrand over the support [0.5, 1].
  const double mode = std::clamp(static_cast<double>(m) / n, 0.5, 1.0);
  const double mx = logf(mode);
  auto integrate = [&](double lo, double hi) {
    const int steps = 20000;
    const double h = (hi - lo) / steps;
    double acc = 0.0;
    for (int i = 0; i <= steps; ++i) {
      const double w = (i == 0 || i == steps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
      acc += w * std::exp(logf(lo + i * h) - mx);
    }
    return acc * h / 3.0;  // Scaled by e^-mx (cancels in ratios).
  };

  const double numerator = integrate(tr, 1.0);
  const double denominator = integrate(0.5, 1.0);
  ASSERT_GT(denominator, 0.0);
  EXPECT_NEAR(model.ProbAboveThreshold(m, n), numerator / denominator, 1e-5)
      << "m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(MatchCounts, CosinePosteriorQuadratureTest,
                         ::testing::Values(std::pair{24, 32},
                                           std::pair{30, 32},
                                           std::pair{80, 128},
                                           std::pair{100, 128},
                                           std::pair{60, 64}));

// ---------------------------------------------------------------------------
// InferenceCache
// ---------------------------------------------------------------------------

TEST(InferenceCacheTest, MinMatchesAgreesWithDirectSearch) {
  const JaccardPosterior model(0.6);
  InferenceCache<JaccardPosterior> cache(&model, 16, 128, 0.03, 0.05, 0.03);
  for (uint32_t n = 16; n <= 128; n += 16) {
    uint32_t direct = n + 1;
    for (uint32_t m = 0; m <= n; ++m) {
      if (model.ProbAboveThreshold(m, n) >= 0.03) {
        direct = m;
        break;
      }
    }
    EXPECT_EQ(cache.MinMatches(n), direct) << "n=" << n;
  }
}

TEST(InferenceCacheTest, MinMatchesGrowsWithN) {
  const CosinePosterior model(0.7);
  InferenceCache<CosinePosterior> cache(&model, 32, 512, 0.03, 0.05, 0.03);
  uint32_t prev = 0;
  for (uint32_t n = 32; n <= 512; n += 32) {
    const uint32_t mm = cache.MinMatches(n);
    EXPECT_GE(mm, prev);
    prev = mm;
  }
  // The prune bar sits between the trivial extremes.
  EXPECT_GT(cache.MinMatches(512), 256u);
  EXPECT_LT(cache.MinMatches(512), 512u);
}

TEST(InferenceCacheTest, EstimateMemoization) {
  const JaccardPosterior model(0.5);
  InferenceCache<JaccardPosterior> cache(&model, 16, 64, 0.03, 0.05, 0.03);
  const auto r1 = cache.EstimateAt(12, 16);
  EXPECT_EQ(cache.stats().concentration_misses, 1u);
  EXPECT_EQ(cache.stats().concentration_hits, 0u);
  const auto r2 = cache.EstimateAt(12, 16);
  EXPECT_EQ(cache.stats().concentration_hits, 1u);
  EXPECT_EQ(r1.concentrated, r2.concentrated);
  EXPECT_EQ(r1.estimate, r2.estimate);
}

TEST(InferenceCacheTest, EstimateMatchesModel) {
  const CosinePosterior model(0.6);
  InferenceCache<CosinePosterior> cache(&model, 32, 256, 0.03, 0.05, 0.03);
  const auto r = cache.EstimateAt(200, 256);
  EXPECT_NEAR(r.estimate, model.Estimate(200, 256), 1e-6);
  EXPECT_EQ(r.concentrated,
            model.Concentration(200, 256, 0.05) >= 1.0 - 0.03);
}

// ---------------------------------------------------------------------------
// BayesLSH engines on controlled signatures
// ---------------------------------------------------------------------------

// Builds a binary dataset of `pairs` pairs, each with Jaccard exactly
// `target` (up to rounding): sets of size `size` overlapping in o elements.
Dataset PairsWithJaccard(int num_pairs, double target, int size = 64) {
  DatasetBuilder b;
  const int o =
      static_cast<int>(std::lround(2 * size * target / (1 + target)));
  DimId base = 0;
  for (int p = 0; p < num_pairs; ++p) {
    std::vector<DimId> x, y;
    for (int i = 0; i < size; ++i) x.push_back(base + i);
    for (int i = 0; i < size; ++i) y.push_back(base + size - o + i);
    b.AddSetRow(x);
    b.AddSetRow(y);
    base += 2 * size + 10;  // Disjoint universes per pair.
  }
  return std::move(b).Build();
}

TEST(BayesLshVerifyTest, AcceptsIdenticalPairsWithEstimateOne) {
  const Dataset d = PairsWithJaccard(5, 1.0);
  IntSignatureStore store(&d, MinwiseHasher(3));
  const JaccardPosterior model(0.5);
  BayesLshParams params;
  params.hashes_per_round = 16;
  params.max_hashes = 512;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  VerifyStats stats;
  const auto out = BayesLshVerify(model, &store, pairs, params, &stats);
  ASSERT_EQ(out.size(), 5u);
  for (const auto& p : out) EXPECT_GT(p.sim, 0.93);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.accepted, 5u);
}

TEST(BayesLshVerifyTest, PrunesClearlyDissimilarPairsEarly) {
  const Dataset d = PairsWithJaccard(50, 0.05);
  IntSignatureStore store(&d, MinwiseHasher(4));
  const JaccardPosterior model(0.7);
  BayesLshParams params;
  params.hashes_per_round = 16;
  params.max_hashes = 512;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  VerifyStats stats;
  const auto out = BayesLshVerify(model, &store, pairs, params, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.pruned, 50u);
  // Early pruning: far fewer hash comparisons than the 512 budget.
  EXPECT_LT(stats.hashes_compared, 50u * 64u);
  // Survival curve starts at 50 and collapses.
  EXPECT_EQ(stats.surviving_after_round[0], 50u);
  EXPECT_EQ(stats.surviving_after_round.back(), 0u);
}

TEST(BayesLshVerifyTest, SurvivalCurveIsMonotoneNonIncreasing) {
  const Dataset d = PairsWithJaccard(30, 0.5);
  IntSignatureStore store(&d, MinwiseHasher(5));
  const JaccardPosterior model(0.6);
  BayesLshParams params;
  params.hashes_per_round = 16;
  params.max_hashes = 256;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  VerifyStats stats;
  BayesLshVerify(model, &store, pairs, params, &stats);
  for (size_t r = 1; r < stats.surviving_after_round.size(); ++r) {
    EXPECT_LE(stats.surviving_after_round[r],
              stats.surviving_after_round[r - 1]);
  }
}

TEST(BayesLshVerifyTest, RecallOfNearThresholdTruePairs) {
  // Pairs at similarity 0.8 against threshold 0.7 with epsilon 0.03:
  // expected miss rate <= ~epsilon (plus minhash noise).
  const int kPairs = 200;
  const Dataset d = PairsWithJaccard(kPairs, 0.8, 100);
  IntSignatureStore store(&d, MinwiseHasher(6));
  const JaccardPosterior model(0.7);
  BayesLshParams params;
  params.epsilon = 0.03;
  params.hashes_per_round = 16;
  params.max_hashes = 512;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  const auto out = BayesLshVerify(model, &store, pairs, params);
  EXPECT_GE(static_cast<double>(out.size()) / kPairs, 0.93);
}

TEST(BayesLshVerifyTest, EstimatesAreDeltaAccurate) {
  // Guarantee 2: estimates within delta of truth with prob >= 1 - gamma.
  const int kPairs = 200;
  const double true_sim = 0.75;
  const Dataset d = PairsWithJaccard(kPairs, true_sim, 120);
  IntSignatureStore store(&d, MinwiseHasher(7));
  const double actual = ExactSimilarity(d, 0, 1, Measure::kJaccard);
  const JaccardPosterior model(0.5);
  BayesLshParams params;
  params.delta = 0.05;
  params.gamma = 0.03;
  params.hashes_per_round = 16;
  params.max_hashes = 1024;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  const auto out = BayesLshVerify(model, &store, pairs, params);
  ASSERT_GT(out.size(), 150u);
  int bad = 0;
  for (const auto& p : out) {
    if (std::abs(p.sim - actual) >= params.delta) ++bad;
  }
  // Expect ~gamma fraction; allow generous sampling slack (3x).
  EXPECT_LE(static_cast<double>(bad) / out.size(), 3 * params.gamma + 0.02);
}

TEST(BayesLshVerifyTest, ForcedAcceptOnTinyBudget) {
  // A near-threshold pair with a microscopic hash budget cannot converge:
  // it must be force-accepted, not lost.
  const Dataset d = PairsWithJaccard(10, 0.62, 200);
  IntSignatureStore store(&d, MinwiseHasher(8));
  const JaccardPosterior model(0.6);
  BayesLshParams params;
  params.hashes_per_round = 16;
  params.max_hashes = 16;  // One round only.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  VerifyStats stats;
  const auto out = BayesLshVerify(model, &store, pairs, params, &stats);
  EXPECT_EQ(stats.pruned + stats.accepted, 10u);
  EXPECT_GT(stats.forced_accepts, 0u);
  EXPECT_EQ(out.size(), stats.accepted);
}

TEST(BayesLshLiteTest, SurvivorsGetExactSimilarities) {
  const Dataset d = PairsWithJaccard(20, 0.8, 100);
  IntSignatureStore store(&d, MinwiseHasher(9));
  const JaccardPosterior model(0.7);
  BayesLshParams params;
  params.hashes_per_round = 16;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  auto exact = [&](uint32_t a, uint32_t b) {
    return ExactSimilarity(d, a, b, Measure::kJaccard);
  };
  VerifyStats stats;
  const auto out = BayesLshLiteVerify(model, &store, pairs, 64, exact, 0.7,
                                      params, &stats);
  for (const auto& p : out) {
    EXPECT_DOUBLE_EQ(p.sim, exact(p.a, p.b));  // Exact, not estimated.
    EXPECT_GE(p.sim, 0.7);                     // Thresholded.
  }
  EXPECT_GE(stats.exact_computed, out.size());
  EXPECT_LE(stats.hashes_compared, 20u * 64u);  // Budget respected.
}

TEST(BayesLshLiteTest, PrunesDissimilarWithoutExactComputation) {
  const Dataset d = PairsWithJaccard(40, 0.05);
  IntSignatureStore store(&d, MinwiseHasher(10));
  const JaccardPosterior model(0.7);
  BayesLshParams params;
  params.hashes_per_round = 16;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  int exact_calls = 0;
  auto exact = [&](uint32_t a, uint32_t b) {
    ++exact_calls;
    return ExactSimilarity(d, a, b, Measure::kJaccard);
  };
  VerifyStats stats;
  const auto out =
      BayesLshLiteVerify(model, &store, pairs, 64, exact, 0.7, params, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(exact_calls, 0);
  EXPECT_EQ(stats.pruned, 40u);
}

TEST(BayesLshLiteTest, BorderlineSurvivorBelowThresholdIsFiltered) {
  // Pairs at 0.65 vs threshold 0.7: pruning may or may not kill them within
  // h hashes, but any survivor must be filtered by the exact check.
  const Dataset d = PairsWithJaccard(50, 0.65, 100);
  IntSignatureStore store(&d, MinwiseHasher(11));
  const JaccardPosterior model(0.7);
  BayesLshParams params;
  params.hashes_per_round = 16;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  auto exact = [&](uint32_t a, uint32_t b) {
    return ExactSimilarity(d, a, b, Measure::kJaccard);
  };
  const auto out =
      BayesLshLiteVerify(model, &store, pairs, 64, exact, 0.7, params);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Classical verifiers
// ---------------------------------------------------------------------------

TEST(ExactVerifyTest, FiltersByThreshold) {
  const Dataset d = PairsWithJaccard(1, 0.5, 40);
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {{0, 1}};
  const auto jaccard = [&d](uint32_t a, uint32_t b) {
    return ExactSimilarity(d, a, b, Measure::kJaccard);
  };
  const auto keep = ExactVerify(pairs, 0.4, jaccard);
  ASSERT_EQ(keep.size(), 1u);
  const auto drop = ExactVerify(pairs, 0.9, jaccard);
  EXPECT_TRUE(drop.empty());
}

TEST(MleVerifyJaccardTest, EstimateIsMatchFraction) {
  const Dataset d = PairsWithJaccard(100, 0.8, 100);
  IntSignatureStore store(&d, MinwiseHasher(12));
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < d.num_vectors(); i += 2) pairs.push_back({i, i + 1});
  ClassicalStats stats;
  const auto out = MleVerifyJaccard(&store, pairs, 0.5, 360, &stats);
  EXPECT_EQ(stats.hashes_compared, 100u * 360u);
  const double actual = ExactSimilarity(d, 0, 1, Measure::kJaccard);
  ASSERT_GT(out.size(), 90u);
  for (const auto& p : out) EXPECT_NEAR(p.sim, actual, 0.12);
}

TEST(MleVerifyCosineTest, PerfectMatchesEstimateOne) {
  DatasetBuilder b;
  b.AddRow({{0, 0.6f}, {1, 0.8f}});
  b.AddRow({{0, 0.6f}, {1, 0.8f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource src(44);
  BitSignatureStore store(&d, SrpHasher(&src));
  const auto out = MleVerifyCosine(&store, {{0, 1}}, 0.9, 2048);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].sim, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, RecallBasics) {
  const std::vector<ScoredPair> truth = {{0, 1, 0.9}, {2, 3, 0.8},
                                         {4, 5, 0.7}, {6, 7, 0.75}};
  const std::vector<ScoredPair> output = {{0, 1, 0.88}, {4, 5, 0.71},
                                          {8, 9, 0.9}};
  EXPECT_DOUBLE_EQ(Recall(output, truth), 0.5);
  EXPECT_DOUBLE_EQ(FalseNegativeRate(output, truth), 0.5);
  EXPECT_DOUBLE_EQ(Recall(output, {}), 1.0);
  EXPECT_DOUBLE_EQ(Recall({}, truth), 0.0);
}

TEST(MetricsTest, EstimateErrorsAgainstExact) {
  const Dataset d = PairsWithJaccard(1, 0.5, 40);
  const double actual = ExactSimilarity(d, 0, 1, Measure::kJaccard);
  const std::vector<ScoredPair> output = {
      {0, 1, actual + 0.02},  // Small error.
  };
  const ErrorStats s1 = EstimateErrors(d, Measure::kJaccard, output);
  EXPECT_EQ(s1.pairs, 1u);
  EXPECT_NEAR(s1.mean_abs_error, 0.02, 1e-9);
  EXPECT_DOUBLE_EQ(s1.frac_error_gt_005, 0.0);

  const std::vector<ScoredPair> bad = {{0, 1, actual + 0.2}};
  const ErrorStats s2 = EstimateErrors(d, Measure::kJaccard, bad, 0.1);
  EXPECT_DOUBLE_EQ(s2.frac_error_gt_005, 1.0);
  EXPECT_DOUBLE_EQ(s2.frac_error_gt_custom, 1.0);
  EXPECT_NEAR(s2.max_abs_error, 0.2, 1e-9);
}

TEST(MetricsTest, EmptyOutputErrors) {
  const Dataset d = PairsWithJaccard(1, 0.5, 40);
  const ErrorStats s = EstimateErrors(d, Measure::kJaccard, {});
  EXPECT_EQ(s.pairs, 0u);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 0.0);
}

}  // namespace
}  // namespace bayeslsh
