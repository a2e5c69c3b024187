// Mix64 of common/prng.h over the four 64-bit lanes of an AVX2 vector: the
// one lane-wise copy of the counter-based hash, shared by the AVX2 bodies
// of the Gaussian components (lsh/gaussian_source.cc) and the minwise
// chunk (lsh/minwise_hasher.cc). Each lane returns exactly the scalar
// Mix64 of that lane, so a kernel built on it hashes bit for bit as its
// scalar loop does. Library-internal: callers reach it only from inside
// their own target("avx2") functions, after simd::Enabled().

#ifndef BAYESLSH_COMMON_MIX64X4_H_
#define BAYESLSH_COMMON_MIX64X4_H_

#include <cstdint>

#include "common/simd_ops.h"

#if BAYESLSH_SIMD_AVX2
#include <immintrin.h>

namespace bayeslsh {
namespace simd {
namespace internal {

// Low 64 bits of the lane-wise product a * b, built from three 32x32->64
// VPMULUDQ products (AVX2 has no 64x64-bit multiply).
__attribute__((target("avx2"))) inline __m256i MulLo64(__m256i a,
                                                       uint64_t b) {
  const __m256i vb = _mm256_set1_epi64x(static_cast<long long>(b));
  const __m256i vb_hi = _mm256_set1_epi64x(static_cast<long long>(b >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), vb),
                       _mm256_mul_epu32(a, vb_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, vb),
                          _mm256_slli_epi64(cross, 32));
}

// Mix64(z) of common/prng.h, per 64-bit lane.
__attribute__((target("avx2"))) inline __m256i Mix64x4(__m256i z) {
  z = _mm256_add_epi64(z, _mm256_set1_epi64x(0x9e3779b97f4a7c15LL));
  z = MulLo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              0xbf58476d1ce4e5b9ULL);
  z = MulLo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              0x94d049bb133111ebULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

}  // namespace internal
}  // namespace simd
}  // namespace bayeslsh

#endif  // BAYESLSH_SIMD_AVX2

#endif  // BAYESLSH_COMMON_MIX64X4_H_
