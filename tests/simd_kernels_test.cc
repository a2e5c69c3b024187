// Differential equivalence suite for the SIMD kernels (common/simd_ops.h,
// the Gaussian kernel behind ImplicitGaussianSource::FillChunk and the
// minwise kernel behind MinwiseHasher::HashChunk): the AVX2 and scalar
// paths must be exact drop-ins for each other, and the
// word-masking callers (MatchingBits, MatchingBbitGroups) must agree with
// a naive bit-level reference at every boundary alignment. Every sweep
// runs twice — dispatched (AVX2 when the CPU has it) and with
// SetForceScalar(true) — so one binary exercises both paths and the
// differential check is independent of the host CPU. The suite runs
// under Release, Debug and TSan in CI, plus a -DBAYESLSH_DISABLE_SIMD=ON
// leg where the kernels compile to the scalar loops only.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "common/bit_ops.h"
#include "common/prng.h"
#include "common/simd_ops.h"
#include "euclidean/pstable_hasher.h"
#include "gtest/gtest.h"
#include "lsh/bbit_minwise.h"
#include "lsh/gaussian_source.h"
#include "lsh/inverse_normal_cdf.h"
#include "lsh/minwise_hasher.h"
#include "lsh/srp_hasher.h"

namespace bayeslsh {
namespace {

// Matches the repo-wide benchmark seed; any fixed value works, but a
// shared constant makes failures reproducible across suites.
constexpr uint64_t kSeed = 20120828;

// Restores default dispatch no matter how the test exits.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) { simd::SetForceScalar(on); }
  ~ScopedForceScalar() { simd::SetForceScalar(false); }
};

// Random words where roughly half the positions agree: full-word copies
// for some words, independent noise for others, so match counts are
// nontrivial at every scale.
void FillPair(std::mt19937_64* rng, uint32_t num_words,
              std::vector<uint64_t>* a, std::vector<uint64_t>* b) {
  a->resize(num_words);
  b->resize(num_words);
  for (uint32_t w = 0; w < num_words; ++w) {
    (*a)[w] = (*rng)();
    switch (w % 4) {
      case 0: (*b)[w] = (*a)[w]; break;               // Identical word.
      case 1: (*b)[w] = (*a)[w] ^ ((*rng)() & 0xff); break;  // Few flips.
      case 2: (*b)[w] = (*rng)(); break;              // Independent.
      default: (*b)[w] = ~(*a)[w]; break;             // All-mismatch.
    }
  }
}

// Bit-level reference for MatchingBits.
uint32_t NaiveMatchingBits(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b, uint32_t from,
                           uint32_t to) {
  uint32_t matches = 0;
  for (uint32_t i = from; i < to; ++i) {
    const uint64_t ba = (a[i / 64] >> (i % 64)) & 1;
    const uint64_t bb = (b[i / 64] >> (i % 64)) & 1;
    matches += (ba == bb) ? 1u : 0u;
  }
  return matches;
}

// Group-level reference for MatchingBbitGroups.
uint32_t NaiveBbitGroups(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b, uint32_t from,
                         uint32_t to, uint32_t bits) {
  const uint32_t vpw = 64 / bits;
  const uint64_t mask =
      (bits == 32) ? 0xffffffffULL : (1ULL << bits) - 1;
  uint32_t matches = 0;
  for (uint32_t j = from; j < to; ++j) {
    const uint32_t w = j / vpw;
    const uint32_t g = j % vpw;
    const uint64_t va = (a[w] >> (g * bits)) & mask;
    const uint64_t vb = (b[w] >> (g * bits)) & mask;
    matches += (va == vb) ? 1u : 0u;
  }
  return matches;
}

// Sweep boundaries: every word (64) and AVX2-vector (256-bit = 4-word)
// edge of the issue's boundary set, each with its ±1 neighborhood, in an
// array big enough that 256 is an interior point.
std::vector<uint32_t> SweepPoints(uint32_t limit) {
  std::vector<uint32_t> pts;
  const uint32_t edges[] = {0, 1, 63, 64, 65, 127, 128, 255, 256,
                            319, 320, 511, 512};
  for (uint32_t e : edges) {
    for (int d = -1; d <= 1; ++d) {
      const int64_t p = static_cast<int64_t>(e) + d;
      if (p >= 0 && p <= limit) pts.push_back(static_cast<uint32_t>(p));
    }
  }
  if (pts.back() != limit) pts.push_back(limit);
  return pts;
}

TEST(SimdKernelsTest, MatchingBitsBoundarySweepBothDispatches) {
  std::mt19937_64 rng(kSeed);
  std::vector<uint64_t> a, b;
  FillPair(&rng, 10, &a, &b);  // 640 bits: 512 is interior.
  const auto pts = SweepPoints(640);
  for (int force = 0; force <= 1; ++force) {
    ScopedForceScalar guard(force != 0);
    for (uint32_t from : pts) {
      for (uint32_t to : pts) {
        if (from > to) continue;
        ASSERT_EQ(MatchingBits(a.data(), b.data(), from, to),
                  NaiveMatchingBits(a, b, from, to))
            << "from=" << from << " to=" << to << " force=" << force;
      }
    }
  }
}

TEST(SimdKernelsTest, MatchingBitsExhaustiveSmallRanges) {
  std::mt19937_64 rng(kSeed + 1);
  std::vector<uint64_t> a, b;
  FillPair(&rng, 3, &a, &b);  // 192 bits: every (from, to) pair is cheap.
  for (int force = 0; force <= 1; ++force) {
    ScopedForceScalar guard(force != 0);
    for (uint32_t from = 0; from <= 192; ++from) {
      for (uint32_t to = from; to <= 192; ++to) {
        ASSERT_EQ(MatchingBits(a.data(), b.data(), from, to),
                  NaiveMatchingBits(a, b, from, to))
            << "from=" << from << " to=" << to << " force=" << force;
      }
    }
  }
}

TEST(SimdKernelsTest, MatchingBitsWordsScalarVsDispatch) {
  std::mt19937_64 rng(kSeed + 2);
  std::vector<uint64_t> a, b;
  FillPair(&rng, 67, &a, &b);  // Odd length: exercises the vector tail.
  for (uint32_t n = 0; n <= 67; ++n) {
    ASSERT_EQ(simd::MatchingBitsWords(a.data(), b.data(), n),
              simd::MatchingBitsWordsScalar(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(SimdKernelsTest, BbitGroupsBoundarySweepAllWidthsBothDispatches) {
  std::mt19937_64 rng(kSeed + 3);
  std::vector<uint64_t> a, b;
  FillPair(&rng, 10, &a, &b);
  for (uint32_t bits : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const uint32_t vpw = 64 / bits;
    const uint32_t total = 10 * vpw;
    // Word and 4-word-vector group boundaries with ±1 neighborhoods.
    std::vector<uint32_t> pts;
    for (uint32_t w : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 10u}) {
      for (int d = -1; d <= 1; ++d) {
        const int64_t p = static_cast<int64_t>(w) * vpw + d;
        if (p >= 0 && p <= total) pts.push_back(static_cast<uint32_t>(p));
      }
    }
    for (int force = 0; force <= 1; ++force) {
      ScopedForceScalar guard(force != 0);
      for (uint32_t from : pts) {
        for (uint32_t to : pts) {
          if (from > to) continue;
          ASSERT_EQ(
              MatchingBbitGroups(a.data(), b.data(), from, to, bits),
              NaiveBbitGroups(a, b, from, to, bits))
              << "b=" << bits << " from=" << from << " to=" << to
              << " force=" << force;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, BbitGroupsWordsScalarVsDispatch) {
  std::mt19937_64 rng(kSeed + 4);
  std::vector<uint64_t> a, b;
  FillPair(&rng, 37, &a, &b);
  for (uint32_t bits : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const uint64_t lsb = BbitGroupLsbMask(bits);
    for (uint32_t n = 0; n <= 37; ++n) {
      ASSERT_EQ(
          simd::MatchingBbitGroupsWords(a.data(), b.data(), n, bits, lsb),
          simd::MatchingBbitGroupsWordsScalar(a.data(), b.data(), n, bits,
                                              lsb))
          << "b=" << bits << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, CountEqualU32ScalarVsDispatch) {
  std::mt19937_64 rng(kSeed + 5);
  std::vector<uint32_t> a(133), b(133);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<uint32_t>(rng());
    // Plant equalities at ~1/3 of positions (real minwise agreement rates
    // are low, but the kernel must count dense agreement too).
    b[i] = (i % 3 == 0) ? a[i] : static_cast<uint32_t>(rng());
  }
  for (int force = 0; force <= 1; ++force) {
    ScopedForceScalar guard(force != 0);
    for (uint32_t n = 0; n <= 133; ++n) {
      uint32_t naive = 0;
      for (uint32_t i = 0; i < n; ++i) naive += (a[i] == b[i]) ? 1u : 0u;
      ASSERT_EQ(simd::CountEqualU32(a.data(), b.data(), n), naive)
          << "n=" << n << " force=" << force;
    }
  }
}

TEST(SimdKernelsTest, SeededRandomLargeArrays) {
  // Longer randomized differential pass: 64 pair draws, random ranges.
  std::mt19937_64 rng(kSeed + 6);
  for (int iter = 0; iter < 64; ++iter) {
    const uint32_t num_words = 1 + static_cast<uint32_t>(rng() % 96);
    std::vector<uint64_t> a, b;
    FillPair(&rng, num_words, &a, &b);
    const uint32_t total = num_words * 64;
    uint32_t from = static_cast<uint32_t>(rng() % (total + 1));
    uint32_t to = static_cast<uint32_t>(rng() % (total + 1));
    if (from > to) std::swap(from, to);
    ScopedForceScalar guard((iter & 1) != 0);
    ASSERT_EQ(MatchingBits(a.data(), b.data(), from, to),
              NaiveMatchingBits(a, b, from, to))
        << "iter=" << iter << " from=" << from << " to=" << to;
  }
}

// Saved index files store signatures that the running build's query
// hashes are compared against, so the hash families' values are part of
// the on-disk contract. These literals were recorded before the AVX2
// Gaussian kernel existed; both dispatch modes must keep reproducing them.
TEST(SimdKernelsTest, GaussianFamiliesGolden) {
  struct Component {
    uint32_t dim;
    uint32_t chunk;
    uint32_t j;
    double value;
  };
  // One central, one lower-tail and one upper-tail component per point
  // where the chunk has them; chunk 2^26 is the first whose hash index
  // chunk * 64 + j wraps in uint32_t.
  const Component golden[] = {
      {0u, 0u, 0, -0x1.bb22d90f2341dp-3},
      {0u, 0u, 4, -0x1.1be729d0ef7e4p+1},
      {4242u, 1u, 1, -0x1.0d00df720a3fcp-2},
      {4242u, 1u, 58, -0x1.031db18baaa13p+1},
      {4242u, 1u, 0, 0x1.82859ba1181a5p+1},
      {2147483647u, 3u, 0, 0x1.51c84dd88e5fdp+0},
      {2147483647u, 3u, 1, -0x1.16bba6352039dp+1},
      {2147483647u, 3u, 44, 0x1.19b5bffbf00fep+1},
      {4294967295u, 67108863u, 0, 0x1.2cb9eb2c46183p-1},
      {4294967295u, 67108863u, 25, -0x1.4909f53a56561p+1},
      {4294967295u, 67108863u, 58, 0x1.07b680405fe7fp+1},
      {4294967295u, 67108864u, 0, -0x1.499cb42eba9e3p-1},
      {4294967295u, 67108864u, 8, 0x1.0a59374c9ed9p+1},
  };
  const uint64_t srp_words[] = {0xc9140b6598571f58ULL, 0x5d22e909c6d5fb28ULL,
                                0x0bcbe2fe66e583a8ULL};
  const int32_t pstable_chunk5[kPstableChunkHashes] = {
      1, 1,  1,  0, 0,  0,  1,  0, 1, -1, 0, 1, -1, 0,  0,  0,   //
      0, 0,  -1, -1, 1, 0,  1,  1, 1, 1,  1, 1, 1,  0,  -1, -1,  //
      0, 0,  1,  1, -1, 0,  1,  1, 0, -1, 0, 0, 0,  0,  0,  0,   //
      0, -2, -1, 0, -1, -1, -1, 0, 0, 0,  0, 0, 0,  -1, 0,  0};
  const std::vector<DimId> idx = {3, 1000, 70000};
  const std::vector<float> val = {0.5f, -1.25f, 2.0f};
  const SparseVectorView v{idx, val};

  const ImplicitGaussianSource source(kSeed);
  const SrpHasher srp(&source);
  const PstableHasher pstable(kSeed, 4.0);
  for (int force = 0; force <= 1; ++force) {
    ScopedForceScalar guard(force != 0);
    for (const Component& c : golden) {
      double g[kSrpChunkBits];
      source.FillChunk(c.dim, c.chunk, g);
      EXPECT_EQ(std::bit_cast<uint64_t>(g[c.j]),
                std::bit_cast<uint64_t>(c.value))
          << "dim=" << c.dim << " chunk=" << c.chunk << " j=" << c.j
          << " force=" << force;
    }
    for (uint32_t chunk = 0; chunk < 3; ++chunk) {
      EXPECT_EQ(srp.HashChunk(v, chunk), srp_words[chunk])
          << "chunk=" << chunk << " force=" << force;
    }
    int32_t buckets[kPstableChunkHashes];
    pstable.HashChunk(v, 5, buckets);
    for (uint32_t j = 0; j < kPstableChunkHashes; ++j) {
      EXPECT_EQ(buckets[j], pstable_chunk5[j])
          << "j=" << j << " force=" << force;
    }
  }
}

// FillChunk under forced scalar and default dispatch must write identical
// bytes, across the seed, dim and chunk extremes and in all three regions
// of the inverse normal CDF (the AVX2 body evaluates the tails apart).
TEST(SimdKernelsTest, GaussianChunkScalarVsDispatch) {
  const uint64_t seeds[] = {0, 1, kSeed, 0x0123456789abcdefULL,
                            ~uint64_t{0}};
  const DimId dims[] = {0, 1, 2, 63, 1000, 2147483647u, 4294967295u};
  const uint32_t chunks[] = {0,         1,         2,         63,
                             64,        65,        67108863u, 67108864u,
                             67108865u, 4294967295u};
  std::mt19937_64 rng(kSeed + 7);
  uint64_t lower = 0, central = 0, upper = 0;
  const auto check = [&](uint64_t seed, DimId dim, uint32_t chunk) {
    const ImplicitGaussianSource source(seed);
    double scalar[kSrpChunkBits];
    double dispatched[kSrpChunkBits];
    {
      ScopedForceScalar guard(true);
      source.FillChunk(dim, chunk, scalar);
    }
    source.FillChunk(dim, chunk, dispatched);
    ASSERT_EQ(std::memcmp(scalar, dispatched, sizeof(scalar)), 0)
        << "seed=" << seed << " dim=" << dim << " chunk=" << chunk;
    for (uint32_t j = 0; j < kSrpChunkBits; ++j) {
      const double p = ToOpenUnitUniform(
          Mix64(seed, chunk * kSrpChunkBits + j, dim));
      if (p < acklam::kPLow) {
        ++lower;
      } else if (p > acklam::kPHigh) {
        ++upper;
      } else {
        ++central;
      }
    }
  };
  for (const uint64_t seed : seeds) {
    for (const DimId dim : dims) {
      for (const uint32_t chunk : chunks) check(seed, dim, chunk);
    }
    for (int i = 0; i < 200; ++i) {
      check(seed, static_cast<DimId>(rng()), static_cast<uint32_t>(rng()));
    }
  }
  EXPECT_GT(lower, 0u);
  EXPECT_GT(central, 0u);
  EXPECT_GT(upper, 0u);
}

// Minwise signatures, full-width and b-bit, are saved in index files as
// well. These literals were recorded before the AVX2 minwise kernel
// existed; both dispatch modes must keep reproducing them. Each chunk pins
// hashes j = 0, 5, 10 and 15, one in every lane slot of each of the
// kernel's four 4-lane vectors; the b-bit words pin all 64 hashes of
// minwise chunks 4..7 at 2 bits each. Chunk 2^28 is the first whose
// function index chunk * 16 + j wraps in uint32_t, so it repeats chunk 0.
TEST(SimdKernelsTest, MinwiseFamiliesGolden) {
  std::vector<DimId> big(128);
  for (uint32_t i = 0; i < 128; ++i) big[i] = 5 + 7919 * i;
  const std::vector<DimId> one = {4242};
  const std::vector<DimId> extremes = {0u, 2147483647u, 4294967295u};
  const std::vector<float> ones(128, 1.0f);
  const std::span<const float> w(ones);
  // The empty set takes the scalar sentinel in both modes.
  enum { kEmpty, kOne, kExtremes, kBig };
  const SparseVectorView sets[] = {
      {}, {one, w.first(1)}, {extremes, w.first(3)}, {big, w}};
  struct Chunk {
    int set;
    uint32_t chunk;
    uint32_t hashes[4];  // j = 0, 5, 10, 15.
  };
  const Chunk golden[] = {
      {kEmpty, 0u, {0x20d3652du, 0x720778b2u, 0x40d2380eu, 0xd1acd80du}},
      {kEmpty, 1u, {0x407221d5u, 0x7e0ee0dau, 0x4d207219u, 0xffd5182du}},
      {kEmpty, 268435455u,
       {0xe4d4623eu, 0xe9d8ee51u, 0xd32b7a57u, 0x6eec415du}},
      {kEmpty, 268435456u,
       {0x20d3652du, 0x720778b2u, 0x40d2380eu, 0xd1acd80du}},
      {kOne, 0u, {0x6354ea98u, 0x693cc764u, 0x707593d5u, 0x5245c704u}},
      {kOne, 1u, {0x9c187e35u, 0xf01d0db8u, 0xc18a26b8u, 0xceb05ae6u}},
      {kOne, 268435455u,
       {0x4181e69cu, 0x0bf0ebc4u, 0x1b7ee672u, 0x97ec96c2u}},
      {kOne, 268435456u,
       {0x6354ea98u, 0x693cc764u, 0x707593d5u, 0x5245c704u}},
      {kExtremes, 0u, {0xa5d63cefu, 0x786dfbe0u, 0x685be36bu, 0x385bbdcfu}},
      {kExtremes, 1u, {0x35ce80c4u, 0x62852a99u, 0xa9434f39u, 0x6b2d6a3cu}},
      {kExtremes, 268435455u,
       {0x71b6843au, 0x0cbd7ed6u, 0x1e55fa05u, 0x85ad5103u}},
      {kExtremes, 268435456u,
       {0xa5d63cefu, 0x786dfbe0u, 0x685be36bu, 0x385bbdcfu}},
      {kBig, 0u, {0x5edb9244u, 0x005087adu, 0xe23de1ffu, 0xa5e6afddu}},
      {kBig, 1u, {0x1796fdc3u, 0x01c54107u, 0xaf5a8da1u, 0x80d362acu}},
      {kBig, 268435455u,
       {0x8e0dcd9au, 0xaf1580e8u, 0x2e6b2c11u, 0xc04b0b9bu}},
      {kBig, 268435456u,
       {0x5edb9244u, 0x005087adu, 0xe23de1ffu, 0xa5e6afddu}},
  };
  const uint64_t bbit2_chunk1[2] = {0xc4961ada2c038759ULL,
                                    0x3111fe57a434ab5eULL};

  const MinwiseHasher minwise(kSeed);
  const BbitLayout bbit2(minwise, 2);
  for (int force = 0; force <= 1; ++force) {
    ScopedForceScalar guard(force != 0);
    for (const Chunk& c : golden) {
      uint32_t out[kMinhashChunkInts];
      minwise.HashChunk(sets[c.set], c.chunk, out);
      for (uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out[5 * i], c.hashes[i])
            << "set=" << c.set << " chunk=" << c.chunk << " j=" << 5 * i
            << " force=" << force;
      }
    }
    uint64_t words[2] = {0, 0};
    bbit2.Fill(sets[kBig], 0, 1, words);
    EXPECT_EQ(words[0], bbit2_chunk1[0]) << "force=" << force;
    EXPECT_EQ(words[1], bbit2_chunk1[1]) << "force=" << force;
  }
}

// HashChunk under forced scalar and default dispatch must write identical
// bytes, across the seed and chunk extremes, for the empty set, sets
// smaller and larger than a vector, and random sets over the whole DimId
// range (whose ranks put bit 63 on either side of the running minimum).
TEST(SimdKernelsTest, MinwiseChunkScalarVsDispatch) {
  const uint64_t seeds[] = {0, 1, kSeed, 0x0123456789abcdefULL,
                            ~uint64_t{0}};
  const uint32_t sizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 128, 300};
  const uint32_t chunks[] = {0,          1,          2,
                             268435455u, 268435456u, 268435457u,
                             4294967295u};
  std::mt19937_64 rng(kSeed + 8);
  const std::vector<float> ones(300, 1.0f);
  std::vector<DimId> set;
  const auto check = [&](uint64_t seed, uint32_t size, uint32_t chunk) {
    set.resize(size);
    for (DimId& d : set) d = static_cast<DimId>(rng());
    std::sort(set.begin(), set.end());
    const SparseVectorView v{set, std::span<const float>(ones).first(size)};
    const MinwiseHasher minwise(seed);
    uint32_t scalar[kMinhashChunkInts];
    uint32_t dispatched[kMinhashChunkInts];
    {
      ScopedForceScalar guard(true);
      minwise.HashChunk(v, chunk, scalar);
    }
    minwise.HashChunk(v, chunk, dispatched);
    ASSERT_EQ(std::memcmp(scalar, dispatched, sizeof(scalar)), 0)
        << "seed=" << seed << " size=" << size << " chunk=" << chunk;
  };
  for (const uint64_t seed : seeds) {
    for (const uint32_t size : sizes) {
      for (const uint32_t chunk : chunks) check(seed, size, chunk);
    }
    for (int i = 0; i < 200; ++i) {
      const auto size = static_cast<uint32_t>(rng() % 301);
      check(seed, size, static_cast<uint32_t>(rng()));
    }
  }
}

TEST(SimdKernelsTest, ForceScalarFlipsDispatch) {
  // Enabled() must honor the hook; whether it is ever true depends on the
  // build (BAYESLSH_DISABLE_SIMD) and the host CPU.
  ScopedForceScalar guard(true);
  EXPECT_FALSE(simd::Enabled());
  simd::SetForceScalar(false);
  if (!simd::CompiledIn()) {
    EXPECT_FALSE(simd::Enabled());
  }
}

}  // namespace
}  // namespace bayeslsh
