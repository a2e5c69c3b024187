#include "lsh/minwise_hasher.h"

#include <limits>
#include <span>

#include "common/mix64x4.h"
#include "common/prng.h"
#include "common/simd_ops.h"

namespace bayeslsh {

#if BAYESLSH_SIMD_AVX2
namespace {

// The AVX2 body of MinwiseHasher::HashChunk for a non-empty set: the
// chunk's 16 hash functions as four 4-lane vectors. It writes exactly the
// scalar loop's values, so signatures never depend on which path hashed
// them:
//  - each element's Mix64(d) is computed once and shared by all 16 ranks
//    Mix64(seed ^ Mix64(fn ^ Mix64(d))), which the lane-wise Mix64 of
//    common/mix64x4.h evaluates as the scalar Mix64(seed, fn, d) does;
//  - the function index chunk * 16 + j is formed in uint32_t as the
//    scalar sum is (it wraps for chunk >= 2^28); base + 15 stays below
//    2^32 because base is a multiple of 16, so the lanes need no wrap;
//  - the running minimum is unsigned: ranks are kept with bit 63 flipped,
//    so the signed _mm256_cmpgt_epi64 orders them as unsigned values, and
//    the flip leaves the stored low 32 bits alone.
__attribute__((target("avx2"))) void HashChunkAvx2(uint64_t seed,
                                                   std::span<const DimId> set,
                                                   uint32_t chunk,
                                                   uint32_t* out) {
  using simd::internal::Mix64x4;
  constexpr int kVectors = kMinhashChunkInts / 4;
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i sign = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  const uint32_t base = chunk * kMinhashChunkInts;
  __m256i fn[kVectors];
  __m256i best[kVectors];
  for (int v = 0; v < kVectors; ++v) {
    fn[v] = _mm256_add_epi64(_mm256_set1_epi64x(base),
                             _mm256_setr_epi64x(4 * v, 4 * v + 1, 4 * v + 2,
                                                4 * v + 3));
    // UINT64_MAX with bit 63 flipped.
    best[v] = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  }
  for (const DimId d : set) {
    const __m256i dim_mix =
        _mm256_set1_epi64x(static_cast<long long>(Mix64(d)));
    for (int v = 0; v < kVectors; ++v) {
      const __m256i rank = _mm256_xor_si256(
          Mix64x4(_mm256_xor_si256(
              vseed, Mix64x4(_mm256_xor_si256(fn[v], dim_mix)))),
          sign);
      best[v] = _mm256_blendv_epi8(best[v], rank,
                                   _mm256_cmpgt_epi64(best[v], rank));
    }
  }
  // Gather each lane's low 32 bits into the vector's low 128 bits.
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  for (int v = 0; v < kVectors; ++v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * v),
                     _mm256_castsi256_si128(
                         _mm256_permutevar8x32_epi32(best[v], low_halves)));
  }
}

}  // namespace
#endif  // BAYESLSH_SIMD_AVX2

void MinwiseHasher::HashChunk(const SparseVectorView& v, uint32_t chunk,
                              uint32_t* out) const {
#if BAYESLSH_SIMD_AVX2
  if (!v.empty() && simd::Enabled()) {
    return HashChunkAvx2(seed_, v.indices, chunk, out);
  }
#endif
  const uint32_t base = chunk * kMinhashChunkInts;
  for (uint32_t j = 0; j < kMinhashChunkInts; ++j) {
    const uint64_t fn = base + j;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (DimId d : v.indices) {
      const uint64_t h = Mix64(seed_, fn, d);
      if (h < best) best = h;
    }
    if (v.empty()) {
      // Sentinel for the empty set; any fixed value works as long as it is
      // a pure function of (seed, fn).
      best = Mix64(seed_, fn, std::numeric_limits<uint64_t>::max());
    }
    out[j] = static_cast<uint32_t>(best);
  }
}

}  // namespace bayeslsh
