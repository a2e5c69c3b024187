#include "lsh/gaussian_source.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/mix64x4.h"
#include "common/prng.h"
#include "common/simd_ops.h"
#include "lsh/inverse_normal_cdf.h"

namespace bayeslsh {

double GaussianSource::Component(uint32_t hash_index, DimId dim) const {
  double buf[kSrpChunkBits];
  FillChunk(dim, hash_index / kSrpChunkBits, buf);
  return buf[hash_index % kSrpChunkBits];
}

#if BAYESLSH_SIMD_AVX2
namespace {

// The AVX2 body of ImplicitGaussianSource::FillChunk, four components at a
// time. It returns exactly the scalar loop's doubles, so signatures never
// depend on which path hashed them:
//  - the hash bits come from the lane-wise Mix64 of common/mix64x4.h,
//    and the hash index chunk * 64 + j is formed in uint32_t as the
//    scalar sum is (it wraps for chunk >= 2^26);
//  - bits >> 11 converts to double exactly (two 32-bit halves through the
//    2^52 / 2^84 exponent trick), then + 0.5 and * 2^-53 round separately;
//  - the central region evaluates acklam::kA/kB in the scalar operation
//    order. target("avx2") only: with FMA available the compiler could
//    contract a multiply-add into one rounding;
//  - tail lanes (p outside [kPLow, kPHigh], ~4.85% of components) are
//    collected in a bit mask and recomputed after the loop by the scalar
//    InverseNormalCdf, so std::log/std::log1p/std::sqrt stay the only
//    transcendental evaluations.

__attribute__((target("avx2"))) void FillChunkAvx2(uint64_t seed, DimId dim,
                                                    uint32_t chunk,
                                                    double* out) {
  using namespace acklam;
  using simd::internal::Mix64x4;
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i dim_mix =
      _mm256_set1_epi64x(static_cast<long long>(Mix64(dim)));
  const __m256i low32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256i exp84 = _mm256_set1_epi64x(0x4530000000000000LL);  // 2^84
  const __m256d two84_52 = _mm256_set1_pd(0x1.0p84 + 0x1.0p52);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d p_low = _mm256_set1_pd(kPLow);
  const __m256d p_high = _mm256_set1_pd(kPHigh);

  // The uint32_t product wraps like the scalar's; base + 63 stays below
  // 2^32 because base is a multiple of 64, so the lanes need no wrap.
  const uint32_t base = chunk * kSrpChunkBits;
  __m256i index = _mm256_add_epi64(_mm256_set1_epi64x(base),
                                   _mm256_setr_epi64x(0, 1, 2, 3));
  uint64_t tails = 0;
  for (uint32_t j = 0; j < kSrpChunkBits; j += 4) {
    // Mix64(seed, base + j, dim) of common/prng.h.
    const __m256i bits = Mix64x4(
        _mm256_xor_si256(vseed, Mix64x4(_mm256_xor_si256(index, dim_mix))));
    index = _mm256_add_epi64(index, _mm256_set1_epi64x(4));

    // ToOpenUnitUniform: (double(bits >> 11) + 0.5) * 2^-53.
    const __m256i u53 = _mm256_srli_epi64(bits, 11);
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_srli_epi64(u53, 32), exp84)),
        two84_52);
    const __m256d lo = _mm256_castsi256_pd(
        _mm256_or_si256(_mm256_and_si256(u53, low32), exp52));
    const __m256d p = _mm256_mul_pd(
        _mm256_add_pd(_mm256_add_pd(hi, lo), half), _mm256_set1_pd(0x1.0p-53));

    const __m256d tail = _mm256_or_pd(_mm256_cmp_pd(p, p_low, _CMP_LT_OQ),
                                      _mm256_cmp_pd(p, p_high, _CMP_GT_OQ));
    tails |= static_cast<uint64_t>(_mm256_movemask_pd(tail)) << j;

    const __m256d q = _mm256_sub_pd(p, half);
    const __m256d r = _mm256_mul_pd(q, q);
    __m256d num = _mm256_set1_pd(kA[0]);
    for (int i = 1; i < 6; ++i) {
      num = _mm256_add_pd(_mm256_mul_pd(num, r), _mm256_set1_pd(kA[i]));
    }
    __m256d den = _mm256_set1_pd(kB[0]);
    for (int i = 1; i < 5; ++i) {
      den = _mm256_add_pd(_mm256_mul_pd(den, r), _mm256_set1_pd(kB[i]));
    }
    den = _mm256_add_pd(_mm256_mul_pd(den, r), _mm256_set1_pd(1.0));
    const __m256d central = _mm256_div_pd(_mm256_mul_pd(num, q), den);
    // Tail lanes carry p through to the scalar pass below.
    _mm256_storeu_pd(out + j, _mm256_blendv_pd(central, p, tail));
  }
  for (; tails != 0; tails &= tails - 1) {
    const int j = std::countr_zero(tails);
    out[j] = InverseNormalCdf(out[j]);
  }
}

}  // namespace
#endif  // BAYESLSH_SIMD_AVX2

void ImplicitGaussianSource::FillChunk(DimId dim, uint32_t chunk,
                                       double* out) const {
#if BAYESLSH_SIMD_AVX2
  if (simd::Enabled()) return FillChunkAvx2(seed_, dim, chunk, out);
#endif
  const uint32_t base = chunk * kSrpChunkBits;
  for (uint32_t j = 0; j < kSrpChunkBits; ++j) {
    const uint64_t bits = Mix64(seed_, base + j, dim);
    out[j] = InverseNormalCdf(ToOpenUnitUniform(bits));
  }
}

QuantizedGaussianStore::QuantizedGaussianStore(uint64_t seed,
                                               uint32_t num_dims,
                                               uint32_t stored_hashes)
    : base_(seed),
      num_dims_(num_dims),
      stored_chunks_((stored_hashes + kSrpChunkBits - 1) / kSrpChunkBits),
      slabs_(stored_chunks_) {}

uint16_t QuantizedGaussianStore::Quantize(double x) {
  // Paper §4.3: x' = (x + 8) * 2^16 / 16 for x in (-8, 8). We round to
  // nearest (the paper floors), halving the maximum error to 2^-13.
  x = std::clamp(x, -8.0, 8.0 - 1.0 / 4096.0);
  const double scaled = (x + 8.0) * 4096.0;
  const long q = std::lround(scaled);
  return static_cast<uint16_t>(std::clamp(q, 0L, 65535L));
}

double QuantizedGaussianStore::Dequantize(uint16_t q) {
  return static_cast<double>(q) / 4096.0 - 8.0;
}

QuantizedGaussianStore::~QuantizedGaussianStore() {
  for (auto& slab : slabs_) {
    delete[] slab.load(std::memory_order_relaxed);
  }
}

const uint16_t* QuantizedGaussianStore::Slab(uint32_t chunk) const {
  assert(chunk < stored_chunks_);
  const uint16_t* published = slabs_[chunk].load(std::memory_order_acquire);
  if (published != nullptr) return published;
  std::lock_guard<std::mutex> lock(build_mu_);
  published = slabs_[chunk].load(std::memory_order_relaxed);
  if (published != nullptr) return published;
  auto slab = std::make_unique<uint16_t[]>(static_cast<size_t>(num_dims_) *
                                           kSrpChunkBits);
  double g[kSrpChunkBits];
  for (DimId d = 0; d < num_dims_; ++d) {
    base_.FillChunk(d, chunk, g);
    uint16_t* row = slab.get() + static_cast<size_t>(d) * kSrpChunkBits;
    for (uint32_t j = 0; j < kSrpChunkBits; ++j) row[j] = Quantize(g[j]);
  }
  published = slab.release();
  slabs_[chunk].store(published, std::memory_order_release);
  return published;
}

void QuantizedGaussianStore::FillChunk(DimId dim, uint32_t chunk,
                                       double* out) const {
  assert(dim < num_dims_);
  if (chunk >= stored_chunks_) {
    base_.FillChunk(dim, chunk, out);
    return;
  }
  const uint16_t* row =
      Slab(chunk) + static_cast<size_t>(dim) * kSrpChunkBits;
  for (uint32_t j = 0; j < kSrpChunkBits; ++j) out[j] = Dequantize(row[j]);
}

uint64_t QuantizedGaussianStore::table_bytes() const {
  uint64_t bytes = 0;
  for (const auto& slab : slabs_) {
    if (slab.load(std::memory_order_acquire) != nullptr) {
      bytes += static_cast<uint64_t>(num_dims_) * kSrpChunkBits *
               sizeof(uint16_t);
    }
  }
  return bytes;
}

std::shared_ptr<const GaussianSource> GaussianSourceCache::Get(uint64_t seed) {
  auto it = cache_.find(seed);
  if (it != cache_.end()) return it->second;
  std::shared_ptr<const GaussianSource> src;
  if (stored_hashes_ == 0) {
    src = std::make_shared<ImplicitGaussianSource>(seed);
  } else {
    src = std::make_shared<QuantizedGaussianStore>(seed, num_dims_,
                                                   stored_hashes_);
  }
  cache_.emplace(seed, src);
  return src;
}

}  // namespace bayeslsh
