// Tests for the Euclidean retrieval stack: the p-stable collision law,
// p-stable signatures in the lazy integer store, the grid distance
// posterior, the radius join (RunPipeline) and radius queries
// (QuerySearcher) — all against brute force.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/inference_cache.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "euclidean/distance_posterior.h"
#include "euclidean/pstable_hasher.h"
#include "lsh/signature_store.h"
#include "sim/brute_force.h"
#include "vec/dataset.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Sparse Euclidean distance (substrate kernel added for this module)
// ---------------------------------------------------------------------------

Dataset MakeDenseRows(const std::vector<std::vector<double>>& rows) {
  const uint32_t dim =
      rows.empty() ? 0 : static_cast<uint32_t>(rows.front().size());
  DatasetBuilder builder(dim);
  for (const auto& r : rows) {
    std::vector<std::pair<DimId, float>> entries;
    for (uint32_t d = 0; d < r.size(); ++d) {
      if (r[d] != 0.0) entries.emplace_back(d, static_cast<float>(r[d]));
    }
    builder.AddRow(std::move(entries));
  }
  return std::move(builder).Build();
}

// A lazily grown store of p-stable signatures.
IntSignatureStore PstableStore(const Dataset* data, uint64_t seed,
                               double width) {
  return IntSignatureStore(
      data, std::make_shared<PstableChunkHasher>(PstableHasher(seed, width)));
}

TEST(SparseEuclideanDistanceTest, HandComputedCases) {
  const Dataset data = MakeDenseRows({{0, 0, 0}, {3, 4, 0}, {1, 1, 1}});
  EXPECT_DOUBLE_EQ(SparseEuclideanDistance(data.Row(0), data.Row(1)), 5.0);
  EXPECT_NEAR(SparseEuclideanDistance(data.Row(0), data.Row(2)),
              std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(SparseEuclideanDistance(data.Row(1), data.Row(1)), 0.0);
}

TEST(SparseEuclideanDistanceTest, DisjointSupports) {
  // {1 at dim 0} vs {1 at dim 5}: distance sqrt(2).
  DatasetBuilder builder(10);
  builder.AddRow({{0, 1.0f}});
  builder.AddRow({{5, 1.0f}});
  const Dataset data = std::move(builder).Build();
  EXPECT_NEAR(SparseEuclideanDistance(data.Row(0), data.Row(1)),
              std::sqrt(2.0), 1e-12);
}

TEST(SparseEuclideanDistanceTest, SymmetricAndTriangle) {
  Xoshiro256StarStar rng(3);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> r(7);
    for (auto& x : r) x = rng.NextGaussian();
    rows.push_back(std::move(r));
  }
  const Dataset data = MakeDenseRows(rows);
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 5; ++j) {
      const double dij = SparseEuclideanDistance(data.Row(i), data.Row(j));
      EXPECT_NEAR(dij, SparseEuclideanDistance(data.Row(j), data.Row(i)),
                  1e-12);
      for (uint32_t k = 0; k < 5; ++k) {
        const double dik = SparseEuclideanDistance(data.Row(i), data.Row(k));
        const double dkj = SparseEuclideanDistance(data.Row(k), data.Row(j));
        EXPECT_LE(dij, dik + dkj + 1e-9);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// p-stable collision law
// ---------------------------------------------------------------------------

TEST(PstableCollisionProbTest, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(PstableCollisionProb(0.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(PstableCollisionProb(-1.0, 4.0), 1.0);
  // Very close: probability near 1.
  EXPECT_GT(PstableCollisionProb(0.01, 4.0), 0.99);
  // Very far: probability near 0.
  EXPECT_LT(PstableCollisionProb(400.0, 4.0), 0.01);
}

TEST(PstableCollisionProbTest, MonotoneInDistanceAndWidth) {
  double prev = 1.1;
  for (double c : {0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    const double p = PstableCollisionProb(c, 4.0);
    EXPECT_LT(p, prev);
    EXPECT_GE(p, 0.0);
    prev = p;
  }
  // Wider buckets collide more.
  EXPECT_LT(PstableCollisionProb(1.0, 2.0), PstableCollisionProb(1.0, 4.0));
}

TEST(PstableCollisionProbTest, MatchesMonteCarloOneDimensional) {
  // By 2-stability the projection difference is N(0, c^2); collide iff
  // floor((u + b)/w) == floor((u + t + b)/w) with t ~ N(0, c^2), b ~ U[0,w).
  Xoshiro256StarStar rng(99);
  for (const double c : {0.5, 1.0, 2.0, 4.0}) {
    const double w = 4.0;
    const int trials = 200000;
    int collisions = 0;
    for (int i = 0; i < trials; ++i) {
      const double t = c * rng.NextGaussian();
      const double b = w * rng.NextUnit();
      // First point projects to 0 wlog.
      collisions += std::floor(b / w) == std::floor((t + b) / w);
    }
    EXPECT_NEAR(static_cast<double>(collisions) / trials,
                PstableCollisionProb(c, w), 0.005)
        << "c=" << c;
  }
}

// ---------------------------------------------------------------------------
// Hasher and store
// ---------------------------------------------------------------------------

TEST(PstableHasherTest, DeterministicAndChunked) {
  const Dataset data = MakeDenseRows({{1.0, -2.0, 0.5}});
  const PstableHasher h(7, 4.0);
  int32_t a[kPstableChunkHashes], b[kPstableChunkHashes];
  h.HashChunk(data.Row(0), 0, a);
  h.HashChunk(data.Row(0), 0, b);
  for (uint32_t i = 0; i < kPstableChunkHashes; ++i) EXPECT_EQ(a[i], b[i]);
  // Different chunk produces (overwhelmingly) different values somewhere.
  h.HashChunk(data.Row(0), 1, b);
  bool any_diff = false;
  for (uint32_t i = 0; i < kPstableChunkHashes; ++i) {
    any_diff |= (a[i] != b[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(PstableHasherTest, IdenticalVectorsAlwaysCollide) {
  const Dataset data = MakeDenseRows({{1.0, 2.0}, {1.0, 2.0}});
  IntSignatureStore store = PstableStore(&data, 11, 4.0);
  EXPECT_EQ(store.MatchCount(0, 1, 0, 256), 256u);
}

TEST(PstableStoreTest, LazyGrowthAccounting) {
  const Dataset data = MakeDenseRows({{1.0, 0.0}, {0.0, 1.0}});
  IntSignatureStore store = PstableStore(&data, 5, 4.0);
  EXPECT_EQ(store.NumHashes(0), 0u);
  store.EnsureHashes(0, 10);
  EXPECT_EQ(store.NumHashes(0), kPstableChunkHashes);
  EXPECT_EQ(store.hashes_computed(), kPstableChunkHashes);
  store.EnsureHashes(0, kPstableChunkHashes);
  EXPECT_EQ(store.hashes_computed(), kPstableChunkHashes);  // No rework.
  store.MatchCount(0, 1, 0, 128);
  EXPECT_EQ(store.hashes_computed(), 128u + 128u - kPstableChunkHashes +
                                         kPstableChunkHashes);
}

class PstableEmpiricalLawTest : public testing::TestWithParam<double> {};

TEST_P(PstableEmpiricalLawTest, StoreCollisionRateMatchesTheory) {
  const double c = GetParam();
  // Two points at distance exactly c along one axis.
  const Dataset data = MakeDenseRows({{0.0, 1.0}, {c, 1.0}});
  const double w = 4.0;
  IntSignatureStore store = PstableStore(&data, 1234, w);
  const uint32_t n = 16384;
  const uint32_t m = store.MatchCount(0, 1, 0, n);
  // Binomial 4-sigma at n=16384 is <= 0.016.
  EXPECT_NEAR(static_cast<double>(m) / n, PstableCollisionProb(c, w), 0.02)
      << "c=" << c;
}

INSTANTIATE_TEST_SUITE_P(Distances, PstableEmpiricalLawTest,
                         testing::Values(0.25, 1.0, 2.0, 4.0, 8.0));

// ---------------------------------------------------------------------------
// Distance posterior
// ---------------------------------------------------------------------------

TEST(EuclideanPosteriorTest, ProbMonotoneInMatchesAndIsAProbability) {
  const EuclideanPosterior model = EuclideanPosterior::MakeForRadius(1.0, 2.0);
  for (int n : {32, 128, 512}) {
    double prev = -1.0;
    for (int m = 0; m <= n; m += n / 16) {
      const double p = model.ProbAboveThreshold(m, n);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      EXPECT_GE(p, prev - 1e-9) << "m=" << m << " n=" << n;
      prev = p;
    }
    // All matches: almost certainly within the radius.
    EXPECT_GT(model.ProbAboveThreshold(n, n), 0.99);
    // No matches: almost certainly far outside.
    EXPECT_LT(model.ProbAboveThreshold(0, n), 0.01);
  }
}

TEST(EuclideanPosteriorTest, MapEstimateInvertsCollisionLaw) {
  const double radius = 1.0, w = 2.0;
  const EuclideanPosterior model = EuclideanPosterior::MakeForRadius(radius, w);
  // If the observed match rate equals p(c*), the MAP distance is ~c*.
  for (const double c_true : {0.5, 1.0, 2.0, 4.0}) {
    const int n = 1024;
    const int m = static_cast<int>(PstableCollisionProb(c_true, w) * n);
    EXPECT_NEAR(model.Estimate(m, n), c_true, 0.15) << "c*=" << c_true;
  }
}

TEST(EuclideanPosteriorTest, ConcentrationSharpensWithHashes) {
  const EuclideanPosterior model = EuclideanPosterior::MakeForRadius(1.0, 2.0);
  const double rate = PstableCollisionProb(1.5, 2.0);
  const double c64 =
      model.Concentration(static_cast<int>(rate * 64), 64, 0.25);
  const double c1024 =
      model.Concentration(static_cast<int>(rate * 1024), 1024, 0.25);
  EXPECT_LT(c64, c1024);
  EXPECT_LE(c1024, 1.0);
}

TEST(EuclideanPosteriorTest, GridPosteriorMatchesFineQuadrature) {
  // The production model integrates on a 512-cell grid; validate against
  // an independent 40x finer Simpson quadrature of the same integrand.
  const double radius = 1.0, w = 2.0, cmax = 8.0;
  const EuclideanPosterior model(radius, w, cmax);
  for (const auto& [m, n] : {std::pair<int, int>{50, 64},
                             {32, 64},
                             {10, 64},
                             {120, 256}}) {
    auto logf = [&, m = m, n = n](double c) {
      const double p =
          std::clamp(PstableCollisionProb(c, w), 1e-12, 1.0 - 1e-12);
      return m * std::log(p) + (n - m) * std::log1p(-p);
    };
    const int steps = 20000;
    const double h = cmax / steps;
    double below = 0.0, total = 0.0;
    // Reference scale at the coarse-grid MAP keeps exponents tame.
    const double mx = logf(model.Estimate(m, n));
    for (int i = 0; i <= steps; ++i) {
      const double c = i * h;
      const double weight =
          (i == 0 || i == steps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
      const double v = weight * std::exp(logf(c) - mx);
      total += v;
      if (c <= radius) below += v;
    }
    ASSERT_GT(total, 0.0);
    EXPECT_NEAR(model.ProbAboveThreshold(m, n), below / total, 5e-3)
        << "m=" << m << " n=" << n;
  }
}

TEST(EuclideanPosteriorTest, MinMatchesPrecomputationWorks) {
  const EuclideanPosterior model = EuclideanPosterior::MakeForRadius(1.0, 2.0);
  InferenceCache<EuclideanPosterior> cache(&model, 32, 256, 0.03, 0.1, 0.05);
  uint32_t prev = 0;
  for (uint32_t n = 32; n <= 256; n += 32) {
    const uint32_t mm = cache.MinMatches(n);
    // Boundary property of the binary search.
    if (mm <= n) {
      EXPECT_GE(model.ProbAboveThreshold(static_cast<int>(mm),
                                         static_cast<int>(n)),
                0.03);
    }
    if (mm > 0) {
      EXPECT_LT(model.ProbAboveThreshold(static_cast<int>(mm - 1),
                                         static_cast<int>(n)),
                0.03);
    }
    EXPECT_GE(mm, prev);
    prev = mm;
  }
}

// ---------------------------------------------------------------------------
// Radius join and query searcher vs brute force
// ---------------------------------------------------------------------------

// Gaussian clusters: intra-cluster distances ~ noise * sqrt(2 * dim),
// inter-cluster far. With dim = 8 and noise = 0.25 intra distances
// concentrate near 1.0.
Dataset MakeClusteredPoints(uint32_t clusters, uint32_t per_cluster,
                            uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<std::vector<double>> rows;
  for (uint32_t c = 0; c < clusters; ++c) {
    std::vector<double> center(8);
    for (auto& x : center) x = 6.0 * rng.NextGaussian();
    for (uint32_t i = 0; i < per_cluster; ++i) {
      std::vector<double> r = center;
      for (auto& x : r) x += 0.25 * rng.NextGaussian();
      rows.push_back(std::move(r));
    }
  }
  return MakeDenseRows(rows);
}

// The Euclidean radius join: LSH banding + BayesLSH-Lite pruning + exact
// distances. ScoredPair::sim holds the negated distance.
PipelineResult RadiusJoin(const Dataset& data, double radius,
                          VerifierKind verifier = VerifierKind::kBayesLshLite) {
  PipelineConfig cfg;
  cfg.measure = Measure::kEuclidean;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = verifier;
  cfg.threshold = radius;
  return RunPipeline(data, cfg);
}

QuerySearchConfig RadiusSearch(double radius) {
  QuerySearchConfig cfg;
  cfg.measure = Measure::kEuclidean;
  cfg.threshold = radius;
  return cfg;
}

TEST(EuclideanJoinTest, RecallAndExactness) {
  const Dataset data = MakeClusteredPoints(15, 12, 808);
  const double radius = 1.5;
  const auto truth = BruteForceJoin(data, -radius, Measure::kEuclidean);
  ASSERT_GT(truth.size(), 100u);

  const PipelineResult result = RadiusJoin(data, radius);

  // No false positives (distances are exact) and distances are correct.
  std::set<std::pair<uint32_t, uint32_t>> truth_keys;
  for (const auto& p : truth) truth_keys.insert({p.a, p.b});
  for (const auto& p : result.pairs) {
    EXPECT_TRUE(truth_keys.count({p.a, p.b}))
        << "(" << p.a << "," << p.b << ")";
    EXPECT_NEAR(
        -p.sim, SparseEuclideanDistance(data.Row(p.a), data.Row(p.b)), 1e-9);
    EXPECT_LE(-p.sim, radius);
  }
  // Recall within banding fn-rate + pruning epsilon (plus randomness).
  EXPECT_GE(static_cast<double>(result.pairs.size()) / truth.size(), 0.9);
  EXPECT_GT(result.vstats.pruned, 0u);
  EXPECT_EQ(result.vstats.pruned + result.vstats.exact_computed,
            result.candidates);
}

TEST(EuclideanJoinTest, PruningDoesRealWork) {
  // Clusters are far apart: banding still emits some cross-cluster
  // candidates, and pruning must remove most candidates that are not
  // within the radius without touching exact distances for them.
  const Dataset data = MakeClusteredPoints(10, 15, 809);
  const PipelineResult result = RadiusJoin(data, 1.5);
  // Exact distances computed only for a small multiple of the result size.
  EXPECT_LT(result.vstats.exact_computed,
            std::max<uint64_t>(1, 4 * result.pairs.size() + 50));
}

TEST(EuclideanJoinTest, BayesLshVerifierRunsAsLite) {
  // Euclidean has no hash-only distance estimate: BayesLSH verification
  // runs as BayesLSH-Lite, and MLE is refused.
  const Dataset data = MakeClusteredPoints(6, 8, 814);
  const PipelineResult lite = RadiusJoin(data, 1.5);
  const PipelineResult bayes = RadiusJoin(data, 1.5, VerifierKind::kBayesLsh);
  EXPECT_EQ(bayes.algorithm, "LSH+BayesLSH-Lite");
  EXPECT_EQ(bayes.pairs, lite.pairs);
  EXPECT_THROW(RadiusJoin(data, 1.5, VerifierKind::kMle),
               std::invalid_argument);
}

TEST(EuclideanQuerySearcherTest, RadiusQueryMatchesBruteForce) {
  const Dataset data = MakeClusteredPoints(12, 10, 810);
  const double radius = 1.5;
  const QuerySearcher searcher(&data, RadiusSearch(radius));

  Xoshiro256StarStar rng(4242);
  uint32_t truth_total = 0, found_total = 0;
  for (int q = 0; q < 20; ++q) {
    // Query: a perturbed copy of a random data point (in-distribution).
    const uint32_t base = static_cast<uint32_t>(
        rng.NextBounded(data.num_vectors()));
    std::vector<std::pair<DimId, float>> entries;
    const SparseVectorView row = data.Row(base);
    for (uint32_t e = 0; e < row.size(); ++e) {
      entries.emplace_back(
          row.indices[e],
          row.values[e] + static_cast<float>(0.2 * rng.NextGaussian()));
    }
    DatasetBuilder qb(data.num_dims());
    qb.AddRow(std::move(entries));
    const Dataset qd = std::move(qb).Build();
    const SparseVectorView query = qd.Row(0);

    // Brute-force truth for this query.
    std::vector<uint32_t> truth;
    for (uint32_t i = 0; i < data.num_vectors(); ++i) {
      if (SparseEuclideanDistance(query, data.Row(i)) <= radius) {
        truth.push_back(i);
      }
    }
    // Matches carry negated distances, sorted by decreasing score.
    const auto matches = searcher.Query(query);
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_NEAR(-matches[i].sim,
                  SparseEuclideanDistance(query, data.Row(matches[i].id)),
                  1e-9);
      EXPECT_LE(-matches[i].sim, radius);
      if (i > 0) {
        EXPECT_LE(matches[i].sim, matches[i - 1].sim);
      }
    }
    truth_total += truth.size();
    for (const uint32_t id : truth) {
      for (const auto& m : matches) {
        if (m.id == id) {
          ++found_total;
          break;
        }
      }
    }
  }
  ASSERT_GT(truth_total, 50u);
  EXPECT_GE(static_cast<double>(found_total) / truth_total, 0.9);
}

TEST(EuclideanQuerySearcherTest, TopKReturnsClosestOfRadiusSet) {
  const Dataset data = MakeClusteredPoints(8, 12, 811);
  const QuerySearcher searcher(&data, RadiusSearch(2.0));
  const SparseVectorView query = data.Row(3);  // A member point.
  const auto all = searcher.Query(query);
  const auto top3 = searcher.Query(query, nullptr, 3);
  ASSERT_GE(all.size(), 3u);
  ASSERT_EQ(top3.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(top3[i], all[i]);
  // The query point itself is in the index at distance 0.
  EXPECT_EQ(top3[0].id, 3u);
  EXPECT_DOUBLE_EQ(-top3[0].sim, 0.0);
}

TEST(EuclideanJoinTest, ExactVerifierSkipsPruning) {
  // The exact verifier is the classical E2LSH pipeline. Same candidates,
  // same exactness, recall at least as high (pruning can only remove),
  // more exact work: one distance per candidate.
  const Dataset data = MakeClusteredPoints(8, 10, 813);
  const PipelineResult pruned_run = RadiusJoin(data, 1.5);
  const PipelineResult plain_run =
      RadiusJoin(data, 1.5, VerifierKind::kExact);
  EXPECT_EQ(plain_run.candidates, pruned_run.candidates);
  EXPECT_GE(plain_run.pairs.size(), pruned_run.pairs.size());
  EXPECT_LT(pruned_run.vstats.exact_computed, plain_run.candidates);
}

TEST(EuclideanQuerySearcherTest, BandingShapeDerivedFromRadius) {
  const Dataset data = MakeClusteredPoints(4, 4, 812);
  const QuerySearcher searcher(&data, RadiusSearch(1.0));
  EXPECT_EQ(searcher.hashes_per_band(), 4u);
  EXPECT_GE(searcher.num_bands(), 1u);
}

}  // namespace
}  // namespace bayeslsh
