// Tests for the kernelized similarity search stack: dense symmetric linear
// algebra (Jacobi eigensolver, inverse square root), kernel functions, the
// KLSH hasher and its collision law, KLSH bits in the lazy bit store, and
// the kernel-cosine join (RunPipeline) and queries (QuerySearcher) end to
// end against the exact kernel join.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "kernel/dense_matrix.h"
#include "kernel/kernels.h"
#include "kernel/klsh.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "vec/dataset.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Dense matrix basics
// ---------------------------------------------------------------------------

TEST(DenseMatrixTest, IdentityAndAccess) {
  const DenseMatrix eye = DenseMatrix::Identity(3);
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye.at(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrixTest, MatVec) {
  DenseMatrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  const std::vector<double> y = MatVec(a, {1.0, 0.0, -1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(DenseMatrixTest, MatMulAgainstHandComputation) {
  DenseMatrix a(2, 2), b(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 0; b.at(0, 1) = 1; b.at(1, 0) = 1; b.at(1, 1) = 0;
  const DenseMatrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 3.0);
}

// ---------------------------------------------------------------------------
// Jacobi eigensolver
// ---------------------------------------------------------------------------

TEST(SymmetricEigenTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2; a.at(0, 1) = 1; a.at(1, 0) = 1; a.at(1, 1) = 2;
  const SymmetricEigenResult eig = SymmetricEigen(a);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

// Random symmetric matrix for property tests.
DenseMatrix RandomSymmetric(uint32_t n, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  DenseMatrix a(n, n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i; j < n; ++j) {
      const double v = rng.NextUniform(-1.0, 1.0);
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  return a;
}

class SymmetricEigenSizeTest : public testing::TestWithParam<uint32_t> {};

TEST_P(SymmetricEigenSizeTest, ReconstructsInput) {
  const uint32_t n = GetParam();
  const DenseMatrix a = RandomSymmetric(n, 1000 + n);
  const SymmetricEigenResult eig = SymmetricEigen(a);
  // A_ij == sum_k lambda_k V_ik V_jk.
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (uint32_t k = 0; k < n; ++k) {
        acc += eig.values[k] * eig.vectors.at(i, k) * eig.vectors.at(j, k);
      }
      EXPECT_NEAR(acc, a.at(i, j), 1e-9) << "i=" << i << " j=" << j;
    }
  }
}

TEST_P(SymmetricEigenSizeTest, EigenvectorsOrthonormal) {
  const uint32_t n = GetParam();
  const DenseMatrix a = RandomSymmetric(n, 2000 + n);
  const SymmetricEigenResult eig = SymmetricEigen(a);
  for (uint32_t p = 0; p < n; ++p) {
    for (uint32_t q = p; q < n; ++q) {
      double dot = 0.0;
      for (uint32_t i = 0; i < n; ++i) {
        dot += eig.vectors.at(i, p) * eig.vectors.at(i, q);
      }
      EXPECT_NEAR(dot, p == q ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST_P(SymmetricEigenSizeTest, EigenvaluesSortedDescending) {
  const uint32_t n = GetParam();
  const SymmetricEigenResult eig =
      SymmetricEigen(RandomSymmetric(n, 3000 + n));
  for (uint32_t k = 1; k < n; ++k) {
    EXPECT_GE(eig.values[k - 1], eig.values[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSizeTest,
                         testing::Values(2u, 5u, 16u, 64u));

TEST(SymmetricInverseSqrtTest, InvertsSquareRootOfSpd) {
  // SPD matrix via G Gᵀ + I.
  const uint32_t n = 12;
  const DenseMatrix g = RandomSymmetric(n, 42);
  DenseMatrix spd = MatMul(g, g);  // G symmetric → G G = G Gᵀ, PSD.
  for (uint32_t i = 0; i < n; ++i) spd.at(i, i) += 1.0;

  const DenseMatrix b = SymmetricInverseSqrt(spd);
  const DenseMatrix bab = MatMul(MatMul(b, spd), b);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      EXPECT_NEAR(bab.at(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(SymmetricInverseSqrtTest, RankDeficientYieldsProjector) {
  // Rank-1 PSD matrix v vᵀ: B A B must be the projector onto v, and B must
  // contain no NaNs despite the zero eigenvalues.
  const uint32_t n = 5;
  std::vector<double> v = {1.0, 2.0, 0.0, -1.0, 0.5};
  DenseMatrix a(n, n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) a.at(i, j) = v[i] * v[j];
  }
  const DenseMatrix b = SymmetricInverseSqrt(a);
  for (double x : b.data()) EXPECT_TRUE(std::isfinite(x));
  const DenseMatrix bab = MatMul(MatMul(b, a), b);
  // Projector check: (BAB)^2 == BAB and trace == rank == 1.
  const DenseMatrix sq = MatMul(bab, bab);
  double trace = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    trace += bab.at(i, i);
    for (uint32_t j = 0; j < n; ++j) {
      EXPECT_NEAR(sq.at(i, j), bab.at(i, j), 1e-9);
    }
  }
  EXPECT_NEAR(trace, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

// Dense rows in a small dimension, as a Dataset.
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

// A lazily grown store of KLSH bits over `hasher`, which must outlive it,
// with anchor kernel rows cached in `cache`.
BitSignatureStore KlshStore(
    const Dataset* data, const KlshHasher* hasher,
    std::shared_ptr<KlshRowCache> cache = std::make_shared<KlshRowCache>()) {
  return BitSignatureStore(
      data, std::make_shared<KlshChunkHasher>(
                std::shared_ptr<const KlshHasher>(
                    std::shared_ptr<const KlshHasher>(), hasher),
                std::move(cache), data));
}

TEST(KernelsTest, LinearKernelIsDotProduct) {
  const Dataset data = MakeDenseRows({{1, 2, 3}, {4, -5, 6}});
  const LinearKernel k;
  EXPECT_DOUBLE_EQ(k.Evaluate(data.Row(0), data.Row(1)), 4 - 10 + 18);
}

TEST(KernelsTest, RbfKernelProperties) {
  const Dataset data = MakeDenseRows({{0, 0}, {1, 0}, {3, 4}});
  const RbfKernel k(0.5);
  // Self-kernel is exactly 1.
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(k.Evaluate(data.Row(i), data.Row(i)), 1.0);
  }
  // exp(-gamma d^2) with d^2 = 1 and 25.
  EXPECT_NEAR(k.Evaluate(data.Row(0), data.Row(1)), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k.Evaluate(data.Row(0), data.Row(2)), std::exp(-12.5), 1e-12);
  // Symmetry.
  EXPECT_DOUBLE_EQ(k.Evaluate(data.Row(1), data.Row(2)),
                   k.Evaluate(data.Row(2), data.Row(1)));
}

TEST(KernelsTest, ChiSquareKernelProperties) {
  // Normalized histograms.
  const Dataset data = MakeDenseRows(
      {{0.5, 0.5, 0.0}, {0.5, 0.5, 0.0}, {0.25, 0.25, 0.5}, {0.0, 0.0, 1.0}});
  const ChiSquareKernel k(0.5);
  // Identical histograms: chi2 = 0 -> kernel 1.
  EXPECT_DOUBLE_EQ(k.Evaluate(data.Row(0), data.Row(1)), 1.0);
  EXPECT_DOUBLE_EQ(k.Evaluate(data.Row(2), data.Row(2)), 1.0);
  // Hand computation for rows 0 vs 2:
  // (0.5-0.25)^2/0.75 * 2 + 0.5 = 1/6 + 0.5.
  EXPECT_NEAR(k.Evaluate(data.Row(0), data.Row(2)),
              std::exp(-0.5 * (2 * 0.0625 / 0.75 + 0.5)), 1e-7);
  // Disjoint supports: chi2 = sum of all mass = 2 for unit histograms.
  EXPECT_NEAR(k.Evaluate(data.Row(0), data.Row(3)), std::exp(-0.5 * 2.0),
              1e-7);
  // Symmetry and bounds.
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 4; ++b) {
      const double v = k.Evaluate(data.Row(a), data.Row(b));
      EXPECT_DOUBLE_EQ(v, k.Evaluate(data.Row(b), data.Row(a)));
      EXPECT_GT(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(KernelsTest, ChiSquareKlshCollisionsTrackKernel) {
  // Histogram-like rows: cluster prototypes with multiplicative noise,
  // normalized to unit mass. KLSH collisions over the chi2 kernel must be
  // monotone in the kernel value (the vision use-case of [12]).
  Xoshiro256StarStar rng(71);
  std::vector<std::vector<double>> rows;
  std::vector<double> proto(12);
  for (auto& v : proto) v = rng.NextUnit();
  for (double noise : {0.02, 0.2, 0.6, 2.0}) {
    std::vector<double> r = proto;
    double total = 0.0;
    for (auto& v : r) {
      v *= 1.0 + noise * rng.NextUnit();
      total += v;
    }
    for (auto& v : r) v /= total;
    rows.push_back(std::move(r));
  }
  {
    double total = 0.0;
    for (double v : proto) total += v;
    for (auto& v : proto) v /= total;
  }
  rows.insert(rows.begin(), proto);
  for (int f = 0; f < 40; ++f) {  // Filler rows for the anchor pool.
    std::vector<double> r(12);
    double total = 0.0;
    for (auto& v : r) {
      v = rng.NextUnit();
      total += v;
    }
    for (auto& v : r) v /= total;
    rows.push_back(std::move(r));
  }
  const Dataset data = MakeDenseRows(rows);
  const ChiSquareKernel k(2.0);
  KlshParams params;
  params.num_anchors = 40;
  const KlshHasher hasher(data, &k, params);
  BitSignatureStore store = KlshStore(&data, &hasher);
  const uint32_t n = 4096;
  double prev_sim = 1.1, prev_rate = 1.1;
  for (uint32_t partner = 1; partner <= 4; ++partner) {
    const double sim = KernelCosine(k, data.Row(0), data.Row(partner));
    const double rate =
        static_cast<double>(store.MatchCount(0, partner, 0, n)) / n;
    EXPECT_LT(sim, prev_sim);
    EXPECT_LT(rate, prev_rate + 0.03);
    prev_sim = sim;
    prev_rate = rate;
  }
}

TEST(KernelsTest, PolynomialKernel) {
  const Dataset data = MakeDenseRows({{1, 1}, {2, 0}});
  const PolynomialKernel k(/*scale=*/0.5, /*offset=*/1.0, /*degree=*/3);
  // (0.5 * 2 + 1)^3 = 8.
  EXPECT_NEAR(k.Evaluate(data.Row(0), data.Row(1)), 8.0, 1e-12);
}

TEST(KernelsTest, KernelCosineBoundsAndSelf) {
  const Dataset data = MakeDenseRows({{1, 2, 3}, {-3, 1, 2}, {2, 4, 6}});
  const LinearKernel lin;
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(KernelCosine(lin, data.Row(i), data.Row(i)), 1.0, 1e-12);
    for (uint32_t j = 0; j < 3; ++j) {
      const double s = KernelCosine(lin, data.Row(i), data.Row(j));
      EXPECT_GE(s, -1.0);
      EXPECT_LE(s, 1.0);
    }
  }
  // Parallel vectors have kernel cosine 1.
  EXPECT_NEAR(KernelCosine(lin, data.Row(0), data.Row(2)), 1.0, 1e-12);
}

TEST(KernelsTest, LinearKernelCosineMatchesPlainCosine) {
  Xoshiro256StarStar rng(9);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 6; ++i) {
    std::vector<double> r(5);
    for (auto& x : r) x = rng.NextUniform(-1.0, 1.0);
    rows.push_back(std::move(r));
  }
  const Dataset data = MakeDenseRows(rows);
  const LinearKernel lin;
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = i + 1; j < 6; ++j) {
      const double dot = SparseDot(data.Row(i), data.Row(j));
      const double ni = SparseNorm2(data.Row(i)), nj = SparseNorm2(data.Row(j));
      EXPECT_NEAR(KernelCosine(lin, data.Row(i), data.Row(j)),
                  dot / (ni * nj), 1e-9);
    }
  }
}

TEST(KernelsTest, KernelRowEvaluatesAgainstEveryAnchor) {
  const Dataset anchors = MakeDenseRows({{1, 0}, {0, 1}, {1, 1}});
  const Dataset probe = MakeDenseRows({{2, 3}});
  const LinearKernel lin;
  const std::vector<double> row = KernelRow(lin, probe.Row(0), anchors);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 2.0);
  EXPECT_DOUBLE_EQ(row[1], 3.0);
  EXPECT_DOUBLE_EQ(row[2], 5.0);
}

TEST(KernelsTest, BruteForceJoinFindsExactlyThresholdedPairs) {
  const Dataset data =
      MakeDenseRows({{1, 0}, {0.9, 0.1}, {0, 1}, {-1, 0}});
  const RbfKernel k(1.0);
  const auto pairs = KernelBruteForceJoin(data, k, 0.5);
  // Only rows 0 and 1 are close (d^2 = 0.02): k = exp(-0.02) ~ 0.98.
  // Tolerance is float-level: dataset weights are stored as float.
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
  EXPECT_NEAR(pairs[0].sim, std::exp(-0.02), 1e-6);
}

// ---------------------------------------------------------------------------
// KLSH hasher and collision law
// ---------------------------------------------------------------------------

// Random dense unit-ish vectors in a low dimension, so that a moderate
// anchor count spans the whole (linear-kernel) feature space.
Dataset MakeRandomDenseData(uint32_t rows, uint32_t dim, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<std::vector<double>> out;
  for (uint32_t i = 0; i < rows; ++i) {
    std::vector<double> r(dim);
    for (auto& x : r) x = rng.NextGaussian();
    out.push_back(std::move(r));
  }
  return MakeDenseRows(out);
}

TEST(KlshHasherTest, DeterministicForFixedSeed) {
  const Dataset data = MakeRandomDenseData(40, 8, 7);
  const LinearKernel lin;
  KlshParams params;
  params.num_anchors = 32;
  params.seed = 99;
  const KlshHasher h1(data, &lin, params);
  const KlshHasher h2(data, &lin, params);
  const auto row = h1.AnchorKernelRow(data.Row(5));
  EXPECT_EQ(h1.HashChunk(row, 0), h2.HashChunk(h2.AnchorKernelRow(data.Row(5)), 0));
  EXPECT_EQ(h1.HashChunk(row, 3), h2.HashChunk(h2.AnchorKernelRow(data.Row(5)), 3));
}

TEST(KlshHasherTest, AnchorCountClampsToDatasetSize) {
  const Dataset data = MakeRandomDenseData(10, 4, 3);
  const LinearKernel lin;
  KlshParams params;
  params.num_anchors = 1000;
  const KlshHasher hasher(data, &lin, params);
  EXPECT_EQ(hasher.num_anchors(), 10u);
}

// The central property: with anchors spanning the feature space (linear
// kernel, anchors >> dim), the KLSH collision rate for a pair must match
// the SRP law 1 - theta/pi of the kernel cosine.
TEST(KlshHasherTest, GaussianDirectionCollisionLawMatchesSrp) {
  const uint32_t dim = 6;
  const Dataset data = MakeRandomDenseData(60, dim, 21);
  const LinearKernel lin;
  KlshParams params;
  params.num_anchors = 48;  // >> dim: span is the whole space w.h.p.
  params.seed = 11;
  const KlshHasher hasher(data, &lin, params);
  BitSignatureStore store = KlshStore(&data, &hasher);
  const uint32_t n = 8192;
  for (const auto& [a, b] : {std::pair<uint32_t, uint32_t>{0, 1},
                             {2, 3},
                             {10, 40},
                             {25, 26}}) {
    const double s = KernelCosine(lin, data.Row(a), data.Row(b));
    const double expected = CosineToSrpR(s);
    const uint32_t m = store.MatchCount(a, b, 0, n);
    // 4-sigma binomial tolerance at n = 8192 is ~0.022.
    EXPECT_NEAR(static_cast<double>(m) / n, expected, 0.03)
        << "pair (" << a << "," << b << ") kernel cosine " << s;
  }
}

TEST(KlshHasherTest, RbfCollisionRateIncreasesWithKernelCosine) {
  // For a non-linear kernel the span is only approximate; assert the
  // weaker, still essential property: collision rate is monotone in the
  // kernel cosine, and high-similarity pairs collide far above 50%.
  Xoshiro256StarStar rng(5);
  std::vector<std::vector<double>> rows;
  std::vector<double> base(6);
  for (auto& x : base) x = rng.NextGaussian();
  rows.push_back(base);
  for (double noise : {0.1, 0.4, 1.0, 3.0}) {
    std::vector<double> r = base;
    for (auto& x : r) x += noise * rng.NextGaussian();
    rows.push_back(std::move(r));
  }
  // Filler rows so anchors exist beyond the probe family.
  for (int i = 0; i < 60; ++i) {
    std::vector<double> r(6);
    for (auto& x : r) x = rng.NextGaussian();
    rows.push_back(std::move(r));
  }
  const Dataset data = MakeDenseRows(rows);
  const RbfKernel k(0.15);
  KlshParams params;
  params.num_anchors = 64;
  const KlshHasher hasher(data, &k, params);
  BitSignatureStore store = KlshStore(&data, &hasher);
  const uint32_t n = 4096;
  double prev_rate = 1.1;
  double prev_sim = 1.1;
  for (uint32_t partner = 1; partner <= 4; ++partner) {
    const double sim = KernelCosine(k, data.Row(0), data.Row(partner));
    const double rate =
        static_cast<double>(store.MatchCount(0, partner, 0, n)) / n;
    EXPECT_LT(sim, prev_sim);  // Noise ladder is ordered.
    EXPECT_LT(rate, prev_rate + 0.02);
    prev_rate = rate;
    prev_sim = sim;
  }
  // Closest pair: kernel cosine ~exp(-0.15*small) is high; rate >> 0.5.
  EXPECT_GT(static_cast<double>(store.MatchCount(0, 1, 0, n)) / n, 0.8);
}

TEST(KlshHasherTest, SubsetCltDirectionStillOrdersPairs) {
  const Dataset data = MakeRandomDenseData(80, 6, 31);
  const LinearKernel lin;
  KlshParams params;
  params.num_anchors = 48;
  params.subset_size = 16;
  params.direction = KlshDirection::kSubsetClt;
  const KlshHasher hasher(data, &lin, params);
  BitSignatureStore store = KlshStore(&data, &hasher);
  const uint32_t n = 4096;
  // Collect (kernel cosine, collision rate) for several pairs; Spearman-ish
  // check: rates must increase with similarity across the extremes.
  std::vector<std::pair<double, double>> points;
  for (uint32_t a = 0; a < 10; ++a) {
    for (uint32_t b = a + 1; b < 10; ++b) {
      const double s = KernelCosine(lin, data.Row(a), data.Row(b));
      const double rate =
          static_cast<double>(store.MatchCount(a, b, 0, n)) / n;
      points.push_back({s, rate});
    }
  }
  std::sort(points.begin(), points.end());
  EXPECT_LT(points.front().second, points.back().second);
}

// ---------------------------------------------------------------------------
// KLSH bits in the lazy bit store
// ---------------------------------------------------------------------------

TEST(KlshStoreTest, KernelRowComputedOncePerRow) {
  const Dataset data = MakeRandomDenseData(20, 5, 77);
  const LinearKernel lin;
  KlshParams params;
  params.num_anchors = 16;
  const KlshHasher hasher(data, &lin, params);
  const auto cache = std::make_shared<KlshRowCache>();
  BitSignatureStore store = KlshStore(&data, &hasher, cache);
  EXPECT_EQ(cache->kernel_evals(), 0u);
  store.EnsureBits(3, 64);
  EXPECT_EQ(cache->kernel_evals(), 16u);
  store.EnsureBits(3, 256);  // Deeper hashes: no new kernel evaluations.
  EXPECT_EQ(cache->kernel_evals(), 16u);
  store.EnsureBits(4, 64);
  EXPECT_EQ(cache->kernel_evals(), 32u);
  EXPECT_EQ(store.bits_computed(), 256u + 64u);
}

TEST(KlshStoreTest, MatchCountConsistentWithWords) {
  const Dataset data = MakeRandomDenseData(10, 5, 78);
  const LinearKernel lin;
  KlshParams params;
  params.num_anchors = 16;
  const KlshHasher hasher(data, &lin, params);
  BitSignatureStore store = KlshStore(&data, &hasher);
  const uint32_t count = store.MatchCount(0, 1, 17, 150);
  uint32_t naive = 0;
  for (uint32_t i = 17; i < 150; ++i) {
    const uint64_t wa = store.Signature(0)[i / 64] >> (i % 64);
    const uint64_t wb = store.Signature(1)[i / 64] >> (i % 64);
    naive += ((wa ^ wb) & 1) == 0;
  }
  EXPECT_EQ(count, naive);
}

// ---------------------------------------------------------------------------
// End to end: the kernel-cosine join vs the exact kernel join
// ---------------------------------------------------------------------------

// Clustered dense data: every intra-cluster pair is an RBF near-neighbour.
struct KernelWorkload {
  Dataset data;
  RbfKernel kernel{0.4};
};

KernelWorkload MakeClusteredWorkload(uint32_t clusters, uint32_t per_cluster,
                                     uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<std::vector<double>> rows;
  for (uint32_t c = 0; c < clusters; ++c) {
    std::vector<double> center(8);
    for (auto& x : center) x = 4.0 * rng.NextGaussian();
    for (uint32_t i = 0; i < per_cluster; ++i) {
      std::vector<double> r = center;
      for (auto& x : r) x += 0.3 * rng.NextGaussian();
      rows.push_back(std::move(r));
    }
  }
  KernelWorkload w{MakeDenseRows(rows)};
  return w;
}

// The workload's kernel, as the serving configs spell it.
constexpr KernelSpec kWorkloadKernel{.tag = KernelTag::kRbf, .gamma = 0.4};

PipelineResult KernelJoin(const Dataset& data, double t, VerifierKind verifier,
                          uint32_t anchors) {
  PipelineConfig cfg;
  cfg.measure = Measure::kKernelCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = verifier;
  cfg.threshold = t;
  cfg.kernel = kWorkloadKernel;
  cfg.klsh.num_anchors = anchors;
  return RunPipeline(data, cfg);
}

QuerySearchConfig KernelSearch(double t, uint32_t anchors, bool exact) {
  QuerySearchConfig cfg;
  cfg.measure = Measure::kKernelCosine;
  cfg.threshold = t;
  cfg.exact_verification = exact;
  cfg.kernel = kWorkloadKernel;
  cfg.klsh.num_anchors = anchors;
  return cfg;
}

TEST(KlshJoinTest, BayesLshRecallAgainstExactJoin) {
  const KernelWorkload w = MakeClusteredWorkload(12, 10, 555);
  const double t = 0.6;
  const auto truth = KernelBruteForceJoin(w.data, w.kernel, t);
  ASSERT_GT(truth.size(), 100u);

  const PipelineResult result =
      KernelJoin(w.data, t, VerifierKind::kBayesLsh, 96);

  uint32_t found = 0;
  for (const auto& tp : truth) {
    for (const auto& rp : result.pairs) {
      if (rp.a == tp.a && rp.b == tp.b) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(found) / truth.size(), 0.85);
  // Estimates track the exact kernel cosine loosely (KLSH span error plus
  // delta-accuracy), and pruning does real work.
  EXPECT_GT(result.vstats.pruned, 0u);
  EXPECT_GT(result.candidates, truth.size() / 2);
}

TEST(KlshJoinTest, LiteVariantReportsExactKernelCosines) {
  const KernelWorkload w = MakeClusteredWorkload(8, 8, 556);
  const double t = 0.6;
  const PipelineResult result =
      KernelJoin(w.data, t, VerifierKind::kBayesLshLite, 64);
  for (const auto& p : result.pairs) {
    const double exact = KernelCosine(w.kernel, w.data.Row(p.a),
                                      w.data.Row(p.b));
    EXPECT_GE(p.sim, t);
    EXPECT_NEAR(p.sim, exact, 1e-9);
  }
  EXPECT_GT(result.vstats.exact_computed, 0u);
}

TEST(KlshJoinTest, ExactVerifierMatchesTruthOnCandidates) {
  const KernelWorkload w = MakeClusteredWorkload(8, 8, 557);
  const double t = 0.6;
  const PipelineResult result =
      KernelJoin(w.data, t, VerifierKind::kExact, 64);
  // Every reported pair is a true pair (the verifier is exact); order is
  // lexicographic.
  const auto truth = KernelBruteForceJoin(w.data, w.kernel, t);
  for (const auto& p : result.pairs) {
    EXPECT_TRUE(std::find(truth.begin(), truth.end(), p) != truth.end())
        << "(" << p.a << "," << p.b << ")";
  }
  for (size_t i = 1; i < result.pairs.size(); ++i) {
    const auto& prev = result.pairs[i - 1];
    const auto& cur = result.pairs[i];
    EXPECT_TRUE(prev.a < cur.a || (prev.a == cur.a && prev.b < cur.b));
  }
}

// ---------------------------------------------------------------------------
// Kernel-cosine queries
// ---------------------------------------------------------------------------

TEST(KlshQueryTest, ThresholdQueryMatchesBruteForce) {
  const KernelWorkload w = MakeClusteredWorkload(10, 10, 600);
  const double t = 0.6;
  const QuerySearcher searcher(&w.data, KernelSearch(t, 80, true));

  uint32_t truth_total = 0, found_total = 0;
  for (const uint32_t probe : {0u, 15u, 37u, 62u, 99u}) {
    const SparseVectorView q = w.data.Row(probe);
    std::vector<uint32_t> truth;
    for (uint32_t i = 0; i < w.data.num_vectors(); ++i) {
      if (KernelCosine(w.kernel, q, w.data.Row(i)) >= t) truth.push_back(i);
    }
    const auto matches = searcher.Query(q);
    // Exact verification: every reported sim is the exact kernel cosine
    // and meets the threshold; results are sorted by decreasing sim.
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_NEAR(matches[i].sim,
                  KernelCosine(w.kernel, q, w.data.Row(matches[i].id)),
                  1e-9);
      EXPECT_GE(matches[i].sim, t);
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
  ASSERT_GT(truth_total, 20u);
  EXPECT_GE(static_cast<double>(found_total) / truth_total, 0.85);
}

TEST(KlshQueryTest, TopKTruncatesThresholdResults) {
  const KernelWorkload w = MakeClusteredWorkload(6, 10, 601);
  const QuerySearcher searcher(&w.data, KernelSearch(0.5, 60, true));
  const SparseVectorView q = w.data.Row(7);
  const auto all = searcher.Query(q);
  const auto top3 = searcher.Query(q, nullptr, 3);
  ASSERT_GE(all.size(), 3u);
  ASSERT_EQ(top3.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(top3[i], all[i]);
  // The probe itself is in the collection at similarity 1.
  EXPECT_EQ(top3[0].id, 7u);
  EXPECT_NEAR(top3[0].sim, 1.0, 1e-9);
}

TEST(KlshQueryTest, EstimateModeSkipsExactKernelWork) {
  const KernelWorkload w = MakeClusteredWorkload(6, 10, 602);
  const QuerySearcher exact_searcher(&w.data, KernelSearch(0.6, 60, true));
  const QuerySearcher est_searcher(&w.data, KernelSearch(0.6, 60, false));

  const SparseVectorView q = w.data.Row(11);
  const auto exact_matches = exact_searcher.Query(q);
  const auto est_matches = est_searcher.Query(q);
  ASSERT_FALSE(exact_matches.empty());
  ASSERT_FALSE(est_matches.empty());
  // Estimates are hash-derived: close to exact for same-cluster rows but
  // not identical; allow the KLSH span bias.
  for (const auto& m : est_matches) {
    const double exact = KernelCosine(w.kernel, q, w.data.Row(m.id));
    EXPECT_GT(m.sim, exact - 0.3);
  }
}

}  // namespace
}  // namespace bayeslsh
