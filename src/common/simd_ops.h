// Runtime-dispatched SIMD kernels for the signature-matching hot loops.
//
// The build carries no -march flags (binaries must run on any x86-64), so
// every AVX2 body sits behind __attribute__((target("avx2"))) and is
// reached only after a one-time cpuid probe. Five kernels have one:
//
//   - the three compare kernels below, their bodies in simd_ops.cc;
//   - the Gaussian components behind SRP and p-stable hashing
//     (ImplicitGaussianSource::FillChunk, lsh/gaussian_source.cc);
//   - the minwise chunk behind Jaccard and b-bit hashing
//     (MinwiseHasher::HashChunk, lsh/minwise_hasher.cc).
//
// The two hashing kernels dispatch through Enabled() below and share the
// one lane-wise Mix64 of common/mix64x4.h. Three knobs control dispatch
// of all five, from coarsest to finest:
//
//   - -DBAYESLSH_DISABLE_SIMD (CMake option): the AVX2 bodies are not
//     compiled at all; every kernel IS its scalar loop.
//   - CPU probe: on hardware without AVX2 the scalar loop runs.
//   - SetForceScalar(true): per-process test hook that routes dispatch to
//     the scalar loop even on AVX2 hardware, so the differential suite can
//     exercise both paths in one binary.
//
// The three compare kernels below operate on runs of FULL words — callers (MatchingBits,
// MatchingBbitGroups, the int-store match loop) mask partial head/tail
// words themselves. Scalar and AVX2 variants are exact drop-ins for each
// other; tests/simd_kernels_test.cc enforces this bit-for-bit.

#ifndef BAYESLSH_COMMON_SIMD_OPS_H_
#define BAYESLSH_COMMON_SIMD_OPS_H_

#include <atomic>
#include <bit>
#include <cstdint>

#if !defined(BAYESLSH_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define BAYESLSH_SIMD_AVX2 1
#else
#define BAYESLSH_SIMD_AVX2 0
#endif

namespace bayeslsh {
namespace simd {

// True when the AVX2 kernels are compiled into this binary at all.
inline constexpr bool CompiledIn() { return BAYESLSH_SIMD_AVX2 != 0; }

namespace internal {

extern const bool kCpuHasAvx2;          // One-time cpuid probe.
extern std::atomic<bool> force_scalar;  // Test hook, default false.

#if BAYESLSH_SIMD_AVX2
uint32_t MatchingBitsWordsAvx2(const uint64_t* a, const uint64_t* b,
                               uint32_t n);
uint32_t MatchingBbitGroupsWordsAvx2(const uint64_t* a, const uint64_t* b,
                                     uint32_t n, uint32_t bits_per_hash,
                                     uint64_t lsb_mask);
uint32_t CountEqualU32Avx2(const uint32_t* a, const uint32_t* b, uint32_t n);
#endif

}  // namespace internal

// True when dispatch will take the AVX2 path right now.
inline bool Enabled() {
#if BAYESLSH_SIMD_AVX2
  return internal::kCpuHasAvx2 &&
         !internal::force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

// Test hook: force every dispatch below onto the scalar loop. Not meant
// for concurrent toggling while queries run (tests flip it between runs).
inline void SetForceScalar(bool on) {
  internal::force_scalar.store(on, std::memory_order_relaxed);
}

// --- Scalar reference loops (always compiled; the fallback path) ---------

// Popcount of ~(a[i] ^ b[i]) over n full 64-bit words: the number of bit
// positions where the two signatures agree.
inline uint32_t MatchingBitsWordsScalar(const uint64_t* a, const uint64_t* b,
                                        uint32_t n) {
  uint32_t w = 0;
  uint32_t matches = 0;
  for (; w + 4 <= n; w += 4) {
    matches += static_cast<uint32_t>(std::popcount(~(a[w] ^ b[w])) +
                                     std::popcount(~(a[w + 1] ^ b[w + 1])) +
                                     std::popcount(~(a[w + 2] ^ b[w + 2])) +
                                     std::popcount(~(a[w + 3] ^ b[w + 3])));
  }
  for (; w < n; ++w) {
    matches += static_cast<uint32_t>(std::popcount(~(a[w] ^ b[w])));
  }
  return matches;
}

// b-bit group compare over n full words. Each word packs 64/bits_per_hash
// groups; `lsb_mask` has the lowest bit of every group slot set. Returns
// the number of groups whose b bits all agree. bits_per_hash must be a
// power of two in [1, 32] (the store validates this at construction).
inline uint32_t MatchingBbitGroupsWordsScalar(const uint64_t* a,
                                              const uint64_t* b, uint32_t n,
                                              uint32_t bits_per_hash,
                                              uint64_t lsb_mask) {
  const uint32_t groups_per_word = 64 / bits_per_hash;
  uint32_t mismatches = 0;
  for (uint32_t w = 0; w < n; ++w) {
    uint64_t diff = a[w] ^ b[w];
    // OR-fold each group's bits down onto its low bit.
    for (uint32_t s = bits_per_hash >> 1; s >= 1; s >>= 1) {
      diff |= diff >> s;
    }
    mismatches += static_cast<uint32_t>(std::popcount(diff & lsb_mask));
  }
  return n * groups_per_word - mismatches;
}

// Count of positions i in [0, n) with a[i] == b[i] (32-bit minwise hashes).
inline uint32_t CountEqualU32Scalar(const uint32_t* a, const uint32_t* b,
                                    uint32_t n) {
  uint32_t matches = 0;
  for (uint32_t i = 0; i < n; ++i) {
    matches += (a[i] == b[i]) ? 1u : 0u;
  }
  return matches;
}

// --- Dispatched kernels (what the match paths call) ----------------------

inline uint32_t MatchingBitsWords(const uint64_t* a, const uint64_t* b,
                                  uint32_t n) {
#if BAYESLSH_SIMD_AVX2
  if (n >= 4 && Enabled()) return internal::MatchingBitsWordsAvx2(a, b, n);
#endif
  return MatchingBitsWordsScalar(a, b, n);
}

inline uint32_t MatchingBbitGroupsWords(const uint64_t* a, const uint64_t* b,
                                        uint32_t n, uint32_t bits_per_hash,
                                        uint64_t lsb_mask) {
#if BAYESLSH_SIMD_AVX2
  if (n >= 4 && Enabled()) {
    return internal::MatchingBbitGroupsWordsAvx2(a, b, n, bits_per_hash,
                                                 lsb_mask);
  }
#endif
  return MatchingBbitGroupsWordsScalar(a, b, n, bits_per_hash, lsb_mask);
}

inline uint32_t CountEqualU32(const uint32_t* a, const uint32_t* b,
                              uint32_t n) {
#if BAYESLSH_SIMD_AVX2
  if (n >= 8 && Enabled()) return internal::CountEqualU32Avx2(a, b, n);
#endif
  return CountEqualU32Scalar(a, b, n);
}

}  // namespace simd
}  // namespace bayeslsh

#endif  // BAYESLSH_COMMON_SIMD_OPS_H_
