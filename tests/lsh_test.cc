// Tests for the hashing substrate: bit ops, inverse normal CDF, Gaussian
// sources (incl. the 2-byte quantized store), SRP and minwise hashers, and
// the lazy signature stores (the one store template's contract is checked
// for every row layout by the typed SignatureStoreContract suite). The LSH
// collision-probability laws — the foundation every posterior in core/
// rests on — are verified statistically.

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_ops.h"
#include "common/prng.h"
#include "euclidean/pstable_hasher.h"
#include "lsh/bbit_minwise.h"
#include "lsh/gaussian_source.h"
#include "lsh/inverse_normal_cdf.h"
#include "lsh/minwise_hasher.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "sim/similarity.h"
#include "vec/dataset.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Bit ops
// ---------------------------------------------------------------------------

TEST(BitOpsTest, MatchingBitsIdenticalWords) {
  const std::vector<uint64_t> a = {0xDEADBEEFCAFEF00DULL, 0x123456789ULL};
  EXPECT_EQ(MatchingBits(a.data(), a.data(), 0, 128), 128u);
  EXPECT_EQ(MatchingBits(a.data(), a.data(), 5, 77), 72u);
}

TEST(BitOpsTest, MatchingBitsComplementWords) {
  const std::vector<uint64_t> a = {0xFFFFFFFFFFFFFFFFULL};
  const std::vector<uint64_t> b = {0x0ULL};
  EXPECT_EQ(MatchingBits(a.data(), b.data(), 0, 64), 0u);
  EXPECT_EQ(MatchingBits(a.data(), b.data(), 10, 20), 0u);
}

TEST(BitOpsTest, MatchingBitsSubRangesAgainstNaive) {
  Xoshiro256StarStar rng(11);
  std::vector<uint64_t> a(4), b(4);
  for (int i = 0; i < 4; ++i) {
    a[i] = rng.Next();
    b[i] = rng.Next();
  }
  auto naive = [&](uint32_t from, uint32_t to) {
    uint32_t m = 0;
    for (uint32_t i = from; i < to; ++i) {
      const uint64_t ba = (a[i / 64] >> (i % 64)) & 1;
      const uint64_t bb = (b[i / 64] >> (i % 64)) & 1;
      m += (ba == bb);
    }
    return m;
  };
  for (uint32_t from : {0u, 1u, 31u, 63u, 64u, 100u}) {
    for (uint32_t to : {from, from + 1, from + 32, from + 64, 200u, 256u}) {
      if (to < from || to > 256) continue;
      EXPECT_EQ(MatchingBits(a.data(), b.data(), from, to), naive(from, to))
          << "from=" << from << " to=" << to;
    }
  }
}

TEST(BitOpsTest, MatchingBitsWordAlignedFastPath) {
  // Word-aligned ranges take the mask-free unrolled path; cover word counts
  // below, at, and above the 4-word unroll, against the masked reference.
  Xoshiro256StarStar rng(12);
  std::vector<uint64_t> a(16), b(16);
  for (int i = 0; i < 16; ++i) {
    a[i] = rng.Next();
    b[i] = rng.Next();
  }
  auto naive = [&](uint32_t from, uint32_t to) {
    uint32_t m = 0;
    for (uint32_t i = from; i < to; ++i) {
      const uint64_t ba = (a[i / 64] >> (i % 64)) & 1;
      const uint64_t bb = (b[i / 64] >> (i % 64)) & 1;
      m += (ba == bb);
    }
    return m;
  };
  for (uint32_t from_word : {0u, 1u, 3u, 4u}) {
    for (uint32_t words : {0u, 1u, 3u, 4u, 5u, 8u, 12u}) {
      const uint32_t from = from_word * 64, to = (from_word + words) * 64;
      if (to > 16 * 64) continue;
      EXPECT_EQ(MatchingBits(a.data(), b.data(), from, to), naive(from, to))
          << "from=" << from << " to=" << to;
    }
  }
}

TEST(BitOpsTest, ExtractBitsWithinWord) {
  const std::vector<uint64_t> w = {0xABCD1234ULL};
  const auto n = static_cast<uint32_t>(w.size());
  EXPECT_EQ(ExtractBits(w.data(), n, 0, 16), 0x1234ULL);
  EXPECT_EQ(ExtractBits(w.data(), n, 16, 16), 0xABCDULL);
  EXPECT_EQ(ExtractBits(w.data(), n, 4, 8), 0x23ULL);
}

TEST(BitOpsTest, ExtractBitsAcrossWordBoundary) {
  const std::vector<uint64_t> w = {0xF000000000000000ULL, 0x0000000000000001ULL};
  const auto n = static_cast<uint32_t>(w.size());
  // Bits 60..68: 1111 (end of word 0) then 1 at bit 64, zeros after.
  EXPECT_EQ(ExtractBits(w.data(), n, 60, 8), 0b00011111ULL);
}

TEST(BitOpsTest, ExtractFullWord) {
  const std::vector<uint64_t> w = {0x0123456789ABCDEFULL, 0xFULL};
  const auto n = static_cast<uint32_t>(w.size());
  EXPECT_EQ(ExtractBits(w.data(), n, 0, 64), 0x0123456789ABCDEFULL);
}

TEST(BitOpsTest, ExtractBitsBoundaryCoverage) {
  // Extractions that end exactly at the slab boundary are in-contract; the
  // array-coverage precondition is WordsForBits(from + count) <= num_words.
  const std::vector<uint64_t> w = {~0ULL, 0x5ULL};
  const auto n = static_cast<uint32_t>(w.size());
  EXPECT_EQ(ExtractBits(w.data(), n, 64, 64), 0x5ULL);
  EXPECT_EQ(ExtractBits(w.data(), n, 127, 1), 0x0ULL);
  EXPECT_EQ(ExtractBits(w.data(), n, 63, 4), 0b1011ULL);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(BitOpsDeathTest, ExtractBitsPastSlabAsserts) {
  const std::vector<uint64_t> w = {~0ULL, 0x5ULL};
  // from + count spills past num_words: must fail the coverage assert in
  // Debug builds rather than read bits from a neighboring row.
  EXPECT_DEATH(ExtractBits(w.data(), 1, 64, 1), "WordsForBits");
  EXPECT_DEATH(ExtractBits(w.data(), 2, 120, 16), "WordsForBits");
}
#endif

TEST(BitOpsTest, PairKeyOrdering) {
  EXPECT_EQ(PairKey(1, 2), (1ULL << 32) | 2ULL);
  EXPECT_NE(PairKey(1, 2), PairKey(2, 1));
}

TEST(BitOpsTest, WordsForBits) {
  EXPECT_EQ(WordsForBits(0), 0u);
  EXPECT_EQ(WordsForBits(1), 1u);
  EXPECT_EQ(WordsForBits(64), 1u);
  EXPECT_EQ(WordsForBits(65), 2u);
}

// ---------------------------------------------------------------------------
// PRNG primitives
// ---------------------------------------------------------------------------

TEST(PrngTest, Mix64Deterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  EXPECT_NE(Mix64(1, 2), Mix64(2, 1));
  EXPECT_NE(Mix64(1, 2, 3), Mix64(1, 3, 2));
}

TEST(PrngTest, UnitUniformRange) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PrngTest, NextBoundedIsUnbiasedish) {
  Xoshiro256StarStar rng(3);
  std::vector<int> counts(7, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) ++counts[rng.NextBounded(7)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 7.0, 5.0 * std::sqrt(trials / 7.0));
  }
}

TEST(PrngTest, GaussianMomentsAreStandard) {
  Xoshiro256StarStar rng(5);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(PrngTest, SameSeedSameStream) {
  Xoshiro256StarStar a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// ---------------------------------------------------------------------------
// Inverse normal CDF
// ---------------------------------------------------------------------------

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.8413447460685429), 1.0, 1e-6);
}

TEST(InverseNormalCdfTest, RoundTripsThroughNormalCdf) {
  for (double p = 0.0005; p < 1.0; p += 0.0125) {
    EXPECT_NEAR(NormalCdf(InverseNormalCdf(p)), p, 2e-9) << "p=" << p;
  }
}

TEST(InverseNormalCdfTest, TailsAreSymmetricAndFinite) {
  for (double p : {1e-12, 1e-9, 1e-6, 1e-3}) {
    const double lo = InverseNormalCdf(p);
    const double hi = InverseNormalCdf(1.0 - p);
    EXPECT_NEAR(lo, -hi, 1e-6 * std::abs(hi));
    EXPECT_TRUE(std::isfinite(lo));
    EXPECT_LT(lo, -2.0);
  }
}

// ---------------------------------------------------------------------------
// Gaussian sources
// ---------------------------------------------------------------------------

TEST(GaussianSourceTest, ImplicitIsDeterministicAndSeedSensitive) {
  const ImplicitGaussianSource s1(99), s2(99), s3(100);
  EXPECT_DOUBLE_EQ(s1.Component(5, 17), s2.Component(5, 17));
  EXPECT_NE(s1.Component(5, 17), s3.Component(5, 17));
  EXPECT_NE(s1.Component(5, 17), s1.Component(6, 17));
  EXPECT_NE(s1.Component(5, 17), s1.Component(5, 18));
}

TEST(GaussianSourceTest, ImplicitComponentsAreStandardNormal) {
  const ImplicitGaussianSource src(4);
  double sum = 0, sum_sq = 0;
  const int dims = 2000;
  double buf[kSrpChunkBits];
  for (DimId d = 0; d < dims; ++d) {
    src.FillChunk(d, 0, buf);
    for (double g : buf) {
      sum += g;
      sum_sq += g * g;
    }
  }
  const double n = dims * kSrpChunkBits;
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(QuantizedGaussianTest, EncodingErrorWithinHalfStep) {
  // Paper §4.3 quantization; we round to nearest so max error is 2^-13.
  for (double x : {-7.99, -3.2, -0.5, 0.0, 0.1, 1.0, 4.4, 7.9}) {
    const uint16_t q = QuantizedGaussianStore::Quantize(x);
    EXPECT_NEAR(QuantizedGaussianStore::Dequantize(q), x, 1.0 / 8192.0 + 1e-12)
        << "x=" << x;
  }
}

TEST(QuantizedGaussianTest, ClampsOutOfRange) {
  const uint16_t lo = QuantizedGaussianStore::Quantize(-100.0);
  const uint16_t hi = QuantizedGaussianStore::Quantize(100.0);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 65535);
}

TEST(QuantizedGaussianTest, StoreMatchesImplicitUpToQuantization) {
  const uint64_t seed = 31337;
  const ImplicitGaussianSource implicit(seed);
  const QuantizedGaussianStore store(seed, /*num_dims=*/64,
                                     /*stored_hashes=*/128);
  double gi[kSrpChunkBits], gq[kSrpChunkBits];
  for (DimId d = 0; d < 64; d += 7) {
    for (uint32_t chunk : {0u, 1u}) {
      implicit.FillChunk(d, chunk, gi);
      store.FillChunk(d, chunk, gq);
      for (uint32_t j = 0; j < kSrpChunkBits; ++j) {
        EXPECT_NEAR(gq[j], gi[j], 1.0 / 8192.0 + 1e-12);
      }
    }
  }
}

TEST(QuantizedGaussianTest, FallsBackToImplicitBeyondStoredRange) {
  const uint64_t seed = 8;
  const ImplicitGaussianSource implicit(seed);
  const QuantizedGaussianStore store(seed, 16, /*stored_hashes=*/64);
  double gi[kSrpChunkBits], gq[kSrpChunkBits];
  implicit.FillChunk(3, /*chunk=*/5, gi);
  store.FillChunk(3, /*chunk=*/5, gq);
  for (uint32_t j = 0; j < kSrpChunkBits; ++j) {
    EXPECT_DOUBLE_EQ(gq[j], gi[j]);  // Bit-exact: same code path.
  }
}

TEST(QuantizedGaussianTest, SlabsAreLazy) {
  QuantizedGaussianStore store(1, /*num_dims=*/1000, /*stored_hashes=*/256);
  EXPECT_EQ(store.table_bytes(), 0u);
  double g[kSrpChunkBits];
  store.FillChunk(0, 0, g);
  EXPECT_EQ(store.table_bytes(), 1000ull * kSrpChunkBits * 2);
  store.FillChunk(5, 0, g);  // Same slab; no growth.
  EXPECT_EQ(store.table_bytes(), 1000ull * kSrpChunkBits * 2);
}

TEST(GaussianSourceCacheTest, SharesPerSeedInstances) {
  GaussianSourceCache cache(100, 64);
  const auto a = cache.Get(1);
  const auto b = cache.Get(1);
  const auto c = cache.Get(2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

// ---------------------------------------------------------------------------
// SRP hashing: collision law Pr[h(x) == h(y)] = 1 - theta/pi
// ---------------------------------------------------------------------------

TEST(SrpMappingTest, RAndCosineBijections) {
  EXPECT_NEAR(CosineToSrpR(1.0), 1.0, 1e-12);
  EXPECT_NEAR(CosineToSrpR(0.0), 0.5, 1e-12);
  EXPECT_NEAR(CosineToSrpR(-1.0), 0.0, 1e-12);
  for (double c : {-0.9, -0.3, 0.0, 0.4, 0.7, 0.99}) {
    EXPECT_NEAR(SrpRToCosine(CosineToSrpR(c)), c, 1e-10);
  }
  for (double r : {0.5, 0.6, 0.75, 0.9, 1.0}) {
    EXPECT_NEAR(CosineToSrpR(SrpRToCosine(r)), r, 1e-10);
  }
}

TEST(SrpHasherTest, DeterministicPerSourceSeed) {
  DatasetBuilder b;
  b.AddRow({{0, 0.5f}, {3, 1.0f}, {7, -0.25f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource s1(5), s2(5), s3(6);
  EXPECT_EQ(SrpHasher(&s1).HashChunk(d.Row(0), 0),
            SrpHasher(&s2).HashChunk(d.Row(0), 0));
  EXPECT_NE(SrpHasher(&s1).HashChunk(d.Row(0), 0),
            SrpHasher(&s3).HashChunk(d.Row(0), 0));
}

TEST(SrpHasherTest, ScaleInvariance) {
  // SRP depends only on direction: x and 10x hash identically.
  DatasetBuilder b;
  b.AddRow({{1, 0.3f}, {4, 0.8f}, {9, 0.1f}});
  b.AddRow({{1, 3.0f}, {4, 8.0f}, {9, 1.0f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource src(17);
  const SrpHasher h(&src);
  for (uint32_t chunk = 0; chunk < 4; ++chunk) {
    EXPECT_EQ(h.HashChunk(d.Row(0), chunk), h.HashChunk(d.Row(1), chunk));
  }
}

TEST(SrpHasherTest, IdenticalVectorsAlwaysCollide) {
  DatasetBuilder b;
  b.AddRow({{2, 1.5f}, {5, 2.5f}});
  b.AddRow({{2, 1.5f}, {5, 2.5f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource src(1);
  BitSignatureStore store(&d, SrpHasher(&src));
  EXPECT_EQ(store.MatchCount(0, 1, 0, 512), 512u);
}

// Statistical check of the SRP law across several similarity levels.
class SrpCollisionLawTest : public ::testing::TestWithParam<double> {};

TEST_P(SrpCollisionLawTest, MatchFractionApproximatesR) {
  const double target_cos = GetParam();
  // Two 2-d dense vectors with exactly the target cosine, embedded sparsely.
  const double angle = std::acos(target_cos);
  DatasetBuilder b;
  b.AddRow({{10, 1.0f}, {20, 0.0f}, {30, 0.0f}});  // Zero dropped by builder.
  b.AddRow({{10, static_cast<float>(std::cos(angle))},
            {20, static_cast<float>(std::sin(angle))}});
  // Row 0 reduces to a single dim; rebuild cleanly.
  DatasetBuilder b2;
  b2.AddRow({{10, 1.0f}});
  b2.AddRow({{10, static_cast<float>(std::cos(angle))},
             {20, static_cast<float>(std::sin(angle))}});
  const Dataset d = std::move(b2).Build();

  const ImplicitGaussianSource src(1234);
  BitSignatureStore store(&d, SrpHasher(&src));
  const uint32_t n = 16384;
  const uint32_t m = store.MatchCount(0, 1, 0, n);
  const double expected_r = CosineToSrpR(target_cos);
  // 4-sigma band for a binomial with n trials.
  const double sigma = std::sqrt(expected_r * (1 - expected_r) / n);
  EXPECT_NEAR(static_cast<double>(m) / n, expected_r, 4.0 * sigma + 1e-4)
      << "cos=" << target_cos;
}

INSTANTIATE_TEST_SUITE_P(CosineSweep, SrpCollisionLawTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.7, 0.8, 0.9,
                                           0.95));

// ---------------------------------------------------------------------------
// Minwise hashing: collision law Pr[h(x) == h(y)] = Jaccard(x, y)
// ---------------------------------------------------------------------------

TEST(MinwiseHasherTest, DeterministicAndSeedSensitive) {
  DatasetBuilder b;
  b.AddSetRow({1, 5, 9, 12});
  const Dataset d = std::move(b).Build();
  uint32_t h1[kMinhashChunkInts], h2[kMinhashChunkInts],
      h3[kMinhashChunkInts];
  MinwiseHasher(7).HashChunk(d.Row(0), 0, h1);
  MinwiseHasher(7).HashChunk(d.Row(0), 0, h2);
  MinwiseHasher(8).HashChunk(d.Row(0), 0, h3);
  bool any_diff = false;
  for (uint32_t i = 0; i < kMinhashChunkInts; ++i) {
    EXPECT_EQ(h1[i], h2[i]);
    any_diff |= (h1[i] != h3[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(MinwiseHasherTest, IdenticalSetsAlwaysCollide) {
  DatasetBuilder b;
  b.AddSetRow({3, 6, 9});
  b.AddSetRow({9, 3, 6});
  const Dataset d = std::move(b).Build();
  IntSignatureStore store(&d, MinwiseHasher(2));
  EXPECT_EQ(store.MatchCount(0, 1, 0, 256), 256u);
}

TEST(MinwiseHasherTest, DisjointSetsRarelyCollide) {
  DatasetBuilder b;
  b.AddSetRow({1, 2, 3, 4, 5});
  b.AddSetRow({100, 200, 300, 400, 500});
  const Dataset d = std::move(b).Build();
  IntSignatureStore store(&d, MinwiseHasher(2));
  // 32-bit truncation collisions only: expect ~0 of 512.
  EXPECT_LE(store.MatchCount(0, 1, 0, 512), 1u);
}

class MinhashCollisionLawTest : public ::testing::TestWithParam<double> {};

TEST_P(MinhashCollisionLawTest, MatchFractionApproximatesJaccard) {
  const double target = GetParam();
  // Sets A = [0, 100), B = [k, k + 100) with overlap o: J = o / (200 - o);
  // choose o for the target J: o = 200 J / (1 + J).
  const int size = 100;
  const int o = static_cast<int>(std::lround(2 * size * target / (1 + target)));
  std::vector<DimId> a(size), bset(size);
  for (int i = 0; i < size; ++i) a[i] = i;
  for (int i = 0; i < size; ++i) bset[i] = size - o + i;
  DatasetBuilder builder;
  builder.AddSetRow(a);
  builder.AddSetRow(bset);
  const Dataset d = std::move(builder).Build();
  const double true_j = JaccardSimilarity(d.Row(0), d.Row(1));

  IntSignatureStore store(&d, MinwiseHasher(77));
  const uint32_t n = 8192;
  const uint32_t m = store.MatchCount(0, 1, 0, n);
  const double sigma = std::sqrt(true_j * (1 - true_j) / n);
  EXPECT_NEAR(static_cast<double>(m) / n, true_j, 4.0 * sigma + 2e-3);
}

INSTANTIATE_TEST_SUITE_P(JaccardSweep, MinhashCollisionLawTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

// ---------------------------------------------------------------------------
// Signature stores: lazy growth and instrumentation
// ---------------------------------------------------------------------------

TEST(BitSignatureStoreTest, GrowsLazilyByChunks) {
  DatasetBuilder b;
  b.AddRow({{0, 1.0f}});
  b.AddRow({{1, 1.0f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource src(3);
  BitSignatureStore store(&d, SrpHasher(&src));
  EXPECT_EQ(store.NumBits(0), 0u);
  EXPECT_EQ(store.bits_computed(), 0u);
  store.EnsureBits(0, 65);  // Rounds to 2 chunks.
  EXPECT_EQ(store.NumBits(0), 128u);
  EXPECT_EQ(store.NumBits(1), 0u);  // Other rows untouched.
  EXPECT_EQ(store.bits_computed(), 128u);
  store.EnsureBits(0, 100);  // Already covered: no work.
  EXPECT_EQ(store.bits_computed(), 128u);
}

TEST(BitSignatureStoreTest, MatchCountGrowsOnDemand) {
  DatasetBuilder b;
  b.AddRow({{0, 1.0f}, {2, 1.0f}});
  b.AddRow({{0, 1.0f}, {3, 1.0f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource src(3);
  BitSignatureStore store(&d, SrpHasher(&src));
  const uint32_t m = store.MatchCount(0, 1, 32, 96);
  EXPECT_LE(m, 64u);
  EXPECT_GE(store.NumBits(0), 96u);
  EXPECT_GE(store.NumBits(1), 96u);
}

TEST(BitSignatureStoreTest, ExtensionIsConsistentWithFreshStore) {
  // Growing a signature incrementally must give the same bits as computing
  // it in one shot (lazy growth cannot change hash values).
  DatasetBuilder b;
  b.AddRow({{0, 1.0f}, {5, -2.0f}, {9, 0.5f}});
  const Dataset d = std::move(b).Build();
  const ImplicitGaussianSource src(10);
  BitSignatureStore incremental(&d, SrpHasher(&src));
  incremental.EnsureBits(0, 64);
  incremental.EnsureBits(0, 256);
  BitSignatureStore oneshot(&d, SrpHasher(&src));
  oneshot.EnsureBits(0, 256);
  for (uint32_t w = 0; w < WordsForBits(256); ++w) {
    EXPECT_EQ(incremental.Signature(0)[w], oneshot.Signature(0)[w]);
  }
}

TEST(IntSignatureStoreTest, GrowsLazilyByChunks) {
  DatasetBuilder b;
  b.AddSetRow({1, 2, 3});
  const Dataset d = std::move(b).Build();
  IntSignatureStore store(&d, MinwiseHasher(4));
  EXPECT_EQ(store.NumHashes(0), 0u);
  store.EnsureHashes(0, 17);  // Rounds to 32 (2 chunks of 16).
  EXPECT_EQ(store.NumHashes(0), 32u);
  EXPECT_EQ(store.hashes_computed(), 32u);
}

TEST(IntSignatureStoreTest, ExtensionIsConsistentWithFreshStore) {
  DatasetBuilder b;
  b.AddSetRow({4, 8, 15, 16, 23, 42});
  const Dataset d = std::move(b).Build();
  IntSignatureStore inc(&d, MinwiseHasher(5));
  inc.EnsureHashes(0, 16);
  inc.EnsureHashes(0, 64);
  IntSignatureStore oneshot(&d, MinwiseHasher(5));
  oneshot.EnsureHashes(0, 64);
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(inc.Signature(0)[i], oneshot.Signature(0)[i]);
  }
}

TEST(IntSignatureStoreTest, EnsureAllTouchesEveryRow) {
  DatasetBuilder b;
  b.AddSetRow({1});
  b.AddSetRow({2});
  b.AddSetRow({3});
  const Dataset d = std::move(b).Build();
  IntSignatureStore store(&d, MinwiseHasher(4));
  store.EnsureAll(16);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(store.NumHashes(i), 16u);
  EXPECT_EQ(store.hashes_computed(), 48u);
}

// ---------------------------------------------------------------------------
// Two-phase protocol: uncounted growth + overflow shards
// ---------------------------------------------------------------------------

Dataset TwoRowCosineData() {
  DatasetBuilder b;
  b.AddRow({{1, 0.6f}, {4, 0.8f}});
  b.AddRow({{1, 0.8f}, {4, 0.6f}});
  return std::move(b).Build();
}

TEST(TwoPhaseStoreTest, UncountedGrowthMergesIntoTally) {
  const Dataset d = TwoRowCosineData();
  const ImplicitGaussianSource src(3);
  BitSignatureStore store(&d, SrpHasher(&src));
  uint64_t work = 0;
  work += store.EnsureRowUncounted(0, 128);
  work += store.EnsureRowUncounted(1, 128);
  EXPECT_EQ(store.bits_computed(), 0u);  // Not yet merged.
  store.AddComputed(work);
  EXPECT_EQ(store.bits_computed(), 256u);
  // Read-only MatchCount agrees with the mutating one on covered ranges.
  EXPECT_EQ(store.MatchCountReadOnly(0, 1, 0, 128),
            store.MatchCount(0, 1, 0, 128));
}

TEST(TwoPhaseStoreTest, BitOverflowShardMatchesSequential) {
  const Dataset d = TwoRowCosineData();
  const ImplicitGaussianSource src(9);
  // Sequential reference: pure lazy growth.
  BitSignatureStore seq(&d, SrpHasher(&src));
  const uint32_t seq_m = seq.MatchCount(0, 1, 0, 512);

  // Two-phase: prefetch one chunk, overflow the rest through a shard.
  BitSignatureStore base(&d, SrpHasher(&src));
  base.AddComputed(base.EnsureRowUncounted(0, 64) +
                       base.EnsureRowUncounted(1, 64));
  BitSignatureStore::OverflowShard shard(&base);
  // Within the horizon: served read-only, no local hashing.
  EXPECT_EQ(shard.MatchCount(0, 1, 0, 64), seq.MatchCountReadOnly(0, 1, 0, 64));
  EXPECT_EQ(shard.computed(), 0u);
  // Beyond the horizon: locally extended, same values as sequential.
  uint32_t m = shard.MatchCount(0, 1, 0, 64);
  m += shard.MatchCount(0, 1, 64, 512);
  EXPECT_EQ(m, seq_m);
  // Overflow accounting covers exactly the beyond-horizon growth of both
  // rows: (512 - 64) * 2.
  EXPECT_EQ(shard.computed(), 2u * (512u - 64u));
  // Total two-phase accounting equals the sequential tally.
  base.AddComputed(shard.computed());
  EXPECT_EQ(base.bits_computed(), seq.bits_computed());
  // The shared store itself was never grown past the horizon.
  EXPECT_EQ(base.NumBits(0), 64u);
}

TEST(TwoPhaseStoreTest, IntOverflowShardMatchesSequential) {
  DatasetBuilder b;
  b.AddSetRow({1, 2, 3, 4});
  b.AddSetRow({2, 3, 4, 5});
  const Dataset d = std::move(b).Build();
  IntSignatureStore seq(&d, MinwiseHasher(21));
  const uint32_t seq_m = seq.MatchCount(0, 1, 0, 256);

  IntSignatureStore base(&d, MinwiseHasher(21));
  base.AddComputed(base.EnsureRowUncounted(0, 16) +
                         base.EnsureRowUncounted(1, 16));
  IntSignatureStore::OverflowShard shard(&base);
  uint32_t m = shard.MatchCount(0, 1, 0, 16);
  EXPECT_EQ(shard.computed(), 0u);
  m += shard.MatchCount(0, 1, 16, 256);
  EXPECT_EQ(m, seq_m);
  EXPECT_EQ(shard.computed(), 2u * (256u - 16u));
  base.AddComputed(shard.computed());
  EXPECT_EQ(base.hashes_computed(), seq.hashes_computed());
  EXPECT_EQ(base.NumHashes(0), 16u);
}

TEST(TwoPhaseStoreTest, MergeIntoFoldsOverflowBack) {
  // After a parallel join, folding a shard's extended rows back into the
  // shared store lets later phases serve them read-only at no extra cost.
  const Dataset d = TwoRowCosineData();
  const ImplicitGaussianSource src(9);
  BitSignatureStore base(&d, SrpHasher(&src));
  base.AddComputed(base.EnsureRowUncounted(0, 64) +
                       base.EnsureRowUncounted(1, 64));
  BitSignatureStore::OverflowShard shard(&base);
  const uint32_t m = shard.MatchCount(0, 1, 0, 512);
  base.AddComputed(shard.computed());
  shard.MergeInto(&base);
  EXPECT_EQ(base.NumBits(0), 512u);
  EXPECT_EQ(base.NumBits(1), 512u);
  // Same values as sequential growth, now served read-only; the merge
  // itself added nothing to the tally.
  EXPECT_EQ(base.MatchCountReadOnly(0, 1, 0, 512), m);
  EXPECT_EQ(base.bits_computed(), 2u * 512u);
  // A fresh shard over the merged store never recomputes those chunks.
  BitSignatureStore::OverflowShard next(&base);
  EXPECT_EQ(next.MatchCount(0, 1, 0, 512), m);
  EXPECT_EQ(next.computed(), 0u);
}

// ---------------------------------------------------------------------------
// SignatureStoreContract: the one store template, once per row layout
// ---------------------------------------------------------------------------

// A store family: the layout under test, its hasher and its growth chunk.
struct SrpFamily {
  using Store = BitSignatureStore;
  static constexpr uint32_t kChunk = 64;
  static constexpr const char* kName = "SrpBits";
  std::unique_ptr<Store> Make(const Dataset* d) const {
    return std::make_unique<Store>(d, SrpHasher(&gauss));
  }
  ImplicitGaussianSource gauss{11};
};

struct MinwiseFamily {
  using Store = IntSignatureStore;
  static constexpr uint32_t kChunk = 16;
  static constexpr const char* kName = "MinwiseInts";
  std::unique_ptr<Store> Make(const Dataset* d) const {
    return std::make_unique<Store>(d, MinwiseHasher(12));
  }
};

// The int layout with the p-stable family's 64-value chunk.
struct PstableFamily {
  using Store = IntSignatureStore;
  static constexpr uint32_t kChunk = 64;
  static constexpr const char* kName = "PstableInts";
  std::unique_ptr<Store> Make(const Dataset* d) const {
    return std::make_unique<Store>(
        d, std::make_shared<PstableChunkHasher>(PstableHasher(13, 2.0)));
  }
};

struct Bbit4Family {
  using Store = BbitSignatureStore;
  static constexpr uint32_t kChunk = 64;
  static constexpr const char* kName = "Bbit4";
  std::unique_ptr<Store> Make(const Dataset* d) const {
    return std::make_unique<Store>(d, MinwiseHasher(14), 4u);
  }
};

struct FamilyName {
  template <typename Family>
  static std::string GetName(int) {
    return Family::kName;
  }
};

template <typename Family>
class SignatureStoreContract : public ::testing::Test {
 protected:
  using Store = typename Family::Store;
  static constexpr uint32_t kChunk = Family::kChunk;
  static constexpr uint32_t kRows = 8;

  // Overlapping sparse rows with positive weights: sets for the minwise
  // layouts, vectors for SRP and p-stable.
  SignatureStoreContract() {
    DatasetBuilder b;
    for (uint32_t r = 0; r < kRows; ++r) {
      std::vector<std::pair<DimId, float>> row;
      for (uint32_t j = 0; j < 6; ++j) {
        row.emplace_back((r / 2 * 3 + j * 5) % 40 + (j == 5 ? r % 2 : 0),
                         1.0f + 0.25f * static_cast<float>(j));
      }
      b.AddRow(std::move(row));
    }
    data_ = std::move(b).Build();
  }

  std::unique_ptr<Store> Make() const { return family_.Make(&data_); }

  // Every hash value a row holds.
  static std::vector<uint32_t> Values(const Store& s, uint32_t row) {
    std::vector<uint32_t> v;
    for (uint32_t j = 0; j < s.HashesHeld(row); ++j) {
      v.push_back(s.HashValue(row, j));
    }
    return v;
  }

  static std::string Saved(const Store& s, bool align_blob) {
    std::stringstream out;
    s.Save(out, align_blob);
    return out.str();
  }

  Family family_;
  Dataset data_;
};

using StoreFamilies =
    ::testing::Types<SrpFamily, MinwiseFamily, PstableFamily, Bbit4Family>;
TYPED_TEST_SUITE(SignatureStoreContract, StoreFamilies, FamilyName);

TYPED_TEST(SignatureStoreContract, GrowsLazilyInChunksAndTalliesTheWork) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  const auto store = this->Make();
  EXPECT_EQ(store->chunk_hashes(), kChunk);
  EXPECT_EQ(store->HashesHeld(0), 0u);
  EXPECT_EQ(store->computed(), 0u);
  store->EnsureRow(0, 1);  // Rounds up to one chunk.
  EXPECT_EQ(store->HashesHeld(0), kChunk);
  EXPECT_EQ(store->computed(), kChunk);
  store->EnsureRow(0, kChunk);  // Already covered: no work.
  EXPECT_EQ(store->computed(), kChunk);
  store->EnsureRow(0, kChunk + 1);
  EXPECT_EQ(store->HashesHeld(0), 2 * kChunk);
  EXPECT_EQ(store->computed(), 2 * kChunk);
  EXPECT_EQ(store->HashesHeld(1), 0u);  // Untouched rows stay empty.
  store->EnsureAll(kChunk);
  for (uint32_t r = 1; r < TestFixture::kRows; ++r) {
    EXPECT_EQ(store->HashesHeld(r), kChunk);
  }
  EXPECT_EQ(store->computed(), (TestFixture::kRows + 1) * kChunk);
  // Chunk by chunk or in one step, growth yields the same hash values.
  const auto oneshot = this->Make();
  oneshot->EnsureRow(0, 2 * kChunk);
  EXPECT_EQ(TestFixture::Values(*store, 0), TestFixture::Values(*oneshot, 0));
}

TYPED_TEST(SignatureStoreContract, UncountedGrowthMergesIntoTheTallyLater) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  const auto store = this->Make();
  uint64_t work = store->EnsureRowUncounted(0, 2 * kChunk);
  work += store->EnsureRowUncounted(1, 2 * kChunk);
  EXPECT_EQ(work, 4u * kChunk);
  EXPECT_EQ(store->computed(), 0u);  // Not yet merged.
  EXPECT_EQ(store->EnsureRowUncounted(0, 2 * kChunk), 0u);
  store->AddComputed(work);
  store->AddComputed(0);
  EXPECT_EQ(store->computed(), 4u * kChunk);
  // The read-only match agrees with the growing one on covered ranges.
  EXPECT_EQ(store->MatchCountReadOnly(0, 1, 0, 2 * kChunk),
            store->MatchCount(0, 1, 0, 2 * kChunk));
  EXPECT_EQ(store->computed(), 4u * kChunk);
}

TYPED_TEST(SignatureStoreContract, OverflowShardMatchesTheStoreAndMerges) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  constexpr uint32_t kDepth = 4 * kChunk;
  // Sequential reference: pure lazy growth, plus a row to query with.
  const auto seq = this->Make();
  const uint32_t seq_m = seq->MatchCount(0, 1, 0, kDepth);
  seq->EnsureRow(2, kDepth);
  const auto ref = this->Make();
  ref->EnsureRow(3, kDepth);
  const auto* query = ref->Signature(3);
  const uint32_t seq_q = seq->MatchAgainstQuery(2, query, 0, kDepth);

  // Two-phase: prefetch one chunk, overflow the rest through a shard.
  const auto base = this->Make();
  base->AddComputed(base->EnsureRowUncounted(0, kChunk) +
                    base->EnsureRowUncounted(1, kChunk) +
                    base->EnsureRowUncounted(2, kChunk));
  typename TestFixture::Store::OverflowShard shard(base.get());
  // Within the horizon: served read-only, no local hashing.
  uint32_t m = shard.MatchCount(0, 1, 0, kChunk);
  EXPECT_EQ(m, seq->MatchCountReadOnly(0, 1, 0, kChunk));
  EXPECT_EQ(shard.MatchAgainstQuery(2, query, 0, kChunk),
            seq->MatchAgainstQuery(2, query, 0, kChunk));
  EXPECT_EQ(shard.computed(), 0u);
  // Beyond it: extended locally, same values as sequential growth.
  m += shard.MatchCount(0, 1, kChunk, kDepth);
  EXPECT_EQ(m, seq_m);
  EXPECT_EQ(shard.MatchAgainstQuery(2, query, 0, kChunk) +
                shard.MatchAgainstQuery(2, query, kChunk, kDepth),
            seq_q);
  EXPECT_EQ(shard.computed(), 3u * (kDepth - kChunk));
  EXPECT_EQ(base->HashesHeld(0), kChunk);  // The base never grew.

  // Merging folds the rows back without touching the tally.
  base->AddComputed(shard.computed());
  EXPECT_EQ(base->computed(), seq->computed());
  shard.MergeInto(base.get());
  EXPECT_EQ(base->computed(), seq->computed());
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(base->HashesHeld(r), kDepth);
    EXPECT_EQ(TestFixture::Values(*base, r), TestFixture::Values(*seq, r));
  }
  EXPECT_EQ(base->MatchCountReadOnly(0, 1, 0, kDepth), seq_m);
  // A fresh shard over the merged store recomputes nothing.
  typename TestFixture::Store::OverflowShard next(base.get());
  EXPECT_EQ(next.MatchCount(0, 1, 0, kDepth), seq_m);
  EXPECT_EQ(next.MatchAgainstQuery(2, query, 0, kDepth), seq_q);
  EXPECT_EQ(next.computed(), 0u);
}

TYPED_TEST(SignatureStoreContract, ConcurrentQueryMatchesOnAnUnfrozenStore) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  constexpr uint32_t kDepth = 3 * kChunk;
  constexpr uint32_t kRows = TestFixture::kRows;
  const auto ref = this->Make();
  ref->EnsureRow(0, kDepth);
  const auto* query = ref->Signature(0);
  // Serial reference: each row matched chunk by chunk.
  const auto serial = this->Make();
  std::vector<uint32_t> want(kRows, 0);
  for (uint32_t r = 0; r < kRows; ++r) {
    for (uint32_t n = 0; n < kDepth; n += kChunk) {
      want[r] += serial->MatchAgainstQuery(r, query, n, n + kChunk);
    }
  }
  // Four threads race over every row of one unfrozen store; the growth
  // mutex serializes the growth each first touch does.
  const auto shared = this->Make();
  constexpr uint32_t kThreads = 4;
  std::vector<std::vector<uint32_t>> got(kThreads,
                                         std::vector<uint32_t>(kRows, 0));
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t i = 0; i < kRows; ++i) {
        const uint32_t r = (i + t) % kRows;
        for (uint32_t n = 0; n < kDepth; n += kChunk) {
          got[t][r] += shared->MatchAgainstQuery(r, query, n, n + kChunk);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (uint32_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want);
  // Each row was grown once, whichever thread got there first.
  EXPECT_EQ(shared->computed(), serial->computed());
  EXPECT_EQ(shared->computed(), uint64_t{kRows} * kDepth);
}

TYPED_TEST(SignatureStoreContract, SaveLoadSaveIsByteIdentical) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  const auto store = this->Make();
  for (uint32_t r = 0; r < TestFixture::kRows; ++r) {
    store->EnsureRow(r, (r % 3) * kChunk);  // Depths 0, 1 and 2 chunks.
  }
  for (const bool align : {false, true}) {
    const std::string bytes = TestFixture::Saved(*store, align);
    const auto loaded = this->Make();
    std::stringstream in(bytes);
    loaded->Load(in, /*padded=*/align);
    EXPECT_EQ(loaded->computed(), store->computed());
    EXPECT_EQ(TestFixture::Saved(*loaded, align), bytes) << "align " << align;
    for (uint32_t r = 0; r < TestFixture::kRows; ++r) {
      EXPECT_EQ(TestFixture::Values(*loaded, r),
                TestFixture::Values(*store, r));
    }
  }
}

TYPED_TEST(SignatureStoreContract, LoadViewsRowsMaterializeOnGrowth) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  const auto store = this->Make();
  store->EnsureAll(kChunk);
  const std::string bytes = TestFixture::Saved(*store, /*align_blob=*/true);
  const auto viewed = this->Make();
  std::stringstream in(bytes);
  viewed->LoadViews(in, bytes.data(), bytes.size());
  EXPECT_EQ(viewed->computed(), store->computed());
  const char* const lo = bytes.data();
  const char* const hi = bytes.data() + bytes.size();
  const auto in_mapping = [&](uint32_t row) {
    const auto* p = reinterpret_cast<const char*>(viewed->Signature(row));
    return p >= lo && p < hi;
  };
  EXPECT_TRUE(in_mapping(0));
  EXPECT_EQ(TestFixture::Values(*viewed, 0), TestFixture::Values(*store, 0));
  // Growth past the mapped prefix copies it into an owned row and counts
  // only the new chunk.
  viewed->EnsureRow(0, 2 * kChunk);
  EXPECT_FALSE(in_mapping(0));
  EXPECT_TRUE(in_mapping(1));
  EXPECT_EQ(viewed->computed(), store->computed() + kChunk);
  store->EnsureRow(0, 2 * kChunk);
  EXPECT_EQ(TestFixture::Values(*viewed, 0), TestFixture::Values(*store, 0));
  EXPECT_EQ(viewed->MatchCount(0, 1, 0, 2 * kChunk),
            store->MatchCount(0, 1, 0, 2 * kChunk));
}

TYPED_TEST(SignatureStoreContract, CopyRowsFromBorrowsViewsAndCopiesRows) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  const auto store = this->Make();
  store->EnsureAll(kChunk);
  const std::string bytes = TestFixture::Saved(*store, /*align_blob=*/true);
  const auto source = this->Make();
  std::stringstream in(bytes);
  source->LoadViews(in, bytes.data(), bytes.size());
  source->EnsureRow(1, 2 * kChunk);  // Row 1 becomes owned.

  const auto target = this->Make();
  target->EnsureRow(2, 3 * kChunk);  // Longer locally: kept.
  const std::vector<uint32_t> row2 = TestFixture::Values(*target, 2);
  const uint64_t before = target->computed();
  target->CopyRowsFrom(*source);
  EXPECT_EQ(target->computed(), before);  // Adoption does no hashing.
  EXPECT_EQ(target->Signature(0), source->Signature(0));  // Borrowed view.
  EXPECT_NE(target->Signature(1), source->Signature(1));  // Owned copy.
  EXPECT_EQ(TestFixture::Values(*target, 1), TestFixture::Values(*source, 1));
  EXPECT_EQ(TestFixture::Values(*target, 2), row2);
  for (uint32_t r = 3; r < TestFixture::kRows; ++r) {
    EXPECT_EQ(TestFixture::Values(*target, r),
              TestFixture::Values(*store, r));
  }
  // A borrowed row grows like an owned one.
  target->EnsureRow(0, 2 * kChunk);
  store->EnsureRow(0, 2 * kChunk);
  EXPECT_EQ(TestFixture::Values(*target, 0), TestFixture::Values(*store, 0));
}

TYPED_TEST(SignatureStoreContract, FrozenStoreTallyNeverMoves) {
  constexpr uint32_t kChunk = TestFixture::kChunk;
  const auto ref = this->Make();
  ref->EnsureRow(0, 2 * kChunk);
  const auto store = this->Make();
  store->EnsureAll(2 * kChunk);
  store->Freeze();
  EXPECT_TRUE(store->frozen());
  const uint64_t tally = store->computed();
  EXPECT_FALSE(store->GrowthLock().owns_lock());  // Nothing to exclude.
  store->EnsureRow(1, 2 * kChunk);
  store->EnsureAll(kChunk);
  store->AddComputed(0);
  EXPECT_EQ(store->MatchCount(0, 1, 0, 2 * kChunk),
            store->MatchCountReadOnly(0, 1, 0, 2 * kChunk));
  EXPECT_EQ(store->MatchAgainstQuery(1, ref->Signature(0), 0, 2 * kChunk),
            store->MatchCount(0, 1, 0, 2 * kChunk));
  typename TestFixture::Store::OverflowShard shard(store.get());
  EXPECT_EQ(shard.MatchCount(0, 1, 0, 2 * kChunk),
            store->MatchCount(0, 1, 0, 2 * kChunk));
  EXPECT_EQ(shard.computed(), 0u);
  EXPECT_EQ(store->computed(), tally);
}

}  // namespace
}  // namespace bayeslsh
