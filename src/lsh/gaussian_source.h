// Sources of the Gaussian random-projection components used by the cosine
// LSH family (Charikar's signed random projections).
//
// Hash function h_i is defined by a random vector r_i with i.i.d. N(0, 1)
// components; h_i(x) = [dot(r_i, x) >= 0]. We provide component access in
// chunks of 64 consecutive hash indices for one dimension — exactly the
// access pattern of the SRP hasher, which computes 64 hash bits of a vector
// at a time.
//
// Two implementations:
//
//  * ImplicitGaussianSource evaluates component (i, d) on the fly from a
//    counter-based hash — zero memory, fully deterministic, random access.
//
//  * QuantizedGaussianStore materializes the first `stored_hashes` hash
//    vectors using the paper's 2-byte fixed-point scheme (§4.3): a float
//    x in (-8, 8) is stored as round((x + 8) * 65536 / 16), for a maximum
//    representation error of 2^-13 ~ 1.2e-4. Chunks are built lazily, one
//    (chunk, all dims) slab on first touch, so a pipeline that never probes
//    deep hash indices never pays for them. Indices beyond `stored_hashes`
//    fall back to the implicit source. The values are the *same* Gaussians
//    as the implicit source, up to quantization error — tests rely on this.

#ifndef BAYESLSH_LSH_GAUSSIAN_SOURCE_H_
#define BAYESLSH_LSH_GAUSSIAN_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "vec/sparse_vector.h"

namespace bayeslsh {

// Number of hash bits produced per chunk by the SRP machinery.
inline constexpr uint32_t kSrpChunkBits = 64;

// Abstract provider of N(0,1) projection components.
class GaussianSource {
 public:
  virtual ~GaussianSource() = default;

  // Writes g(hash = kSrpChunkBits*chunk + j, dim) into out[j] for
  // j in [0, kSrpChunkBits).
  virtual void FillChunk(DimId dim, uint32_t chunk, double* out) const = 0;

  // Convenience scalar access (used by tests; not on the hot path).
  double Component(uint32_t hash_index, DimId dim) const;
};

// Counter-based source: component (i, d) = Phi^-1(U(i, d)) where U is a
// uniform derived from Mix64(seed, i, d). FillChunk takes an AVX2 path when
// simd::Enabled() (common/simd_ops.h); it returns the scalar loop's doubles
// bit for bit, so signatures never depend on the dispatch.
class ImplicitGaussianSource : public GaussianSource {
 public:
  explicit ImplicitGaussianSource(uint64_t seed) : seed_(seed) {}

  void FillChunk(DimId dim, uint32_t chunk, double* out) const override;

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

// The paper's 2-byte quantized store, lazily materialized per chunk.
class QuantizedGaussianStore : public GaussianSource {
 public:
  // Components for hash indices [0, stored_hashes) are table-backed;
  // stored_hashes is rounded up to a whole number of chunks.
  QuantizedGaussianStore(uint64_t seed, uint32_t num_dims,
                         uint32_t stored_hashes);
  ~QuantizedGaussianStore() override;

  void FillChunk(DimId dim, uint32_t chunk, double* out) const override;

  // --- the paper's encoding, exposed for tests and the ablation bench ---
  // Requires x in (-8, 8), which a standard normal exceeds with probability
  // ~1.2e-15 (values outside are clamped).
  static uint16_t Quantize(double x);
  static double Dequantize(uint16_t q);

  uint32_t stored_hashes() const { return stored_chunks_ * kSrpChunkBits; }
  uint64_t seed() const { return base_.seed(); }
  // Bytes currently held by materialized slabs (instrumentation).
  uint64_t table_bytes() const;

 private:
  // Slab for chunk c: num_dims_ * kSrpChunkBits quantized values, laid out
  // dim-major so FillChunk reads one contiguous run.
  const uint16_t* Slab(uint32_t chunk) const;

  ImplicitGaussianSource base_;
  uint32_t num_dims_;
  uint32_t stored_chunks_;
  // Lazily built; mutable because materialization is a pure cache. Slabs
  // are published through an atomic pointer (built under build_mu_, read
  // lock-free) so concurrent hashing workers can share one store.
  mutable std::vector<std::atomic<const uint16_t*>> slabs_;
  mutable std::mutex build_mu_;
};

// A per-seed cache of shared Gaussian sources. Benchmarks hold one cache per
// dataset so that pipelines run with the same seed (e.g. the 7 algorithm
// variants at 5 thresholds) reuse the same quantized tables instead of
// re-deriving Gaussians from scratch.
class GaussianSourceCache {
 public:
  // stored_hashes == 0 means "implicit only" (no tables).
  GaussianSourceCache(uint32_t num_dims, uint32_t stored_hashes)
      : num_dims_(num_dims), stored_hashes_(stored_hashes) {}

  std::shared_ptr<const GaussianSource> Get(uint64_t seed);

 private:
  uint32_t num_dims_;
  uint32_t stored_hashes_;
  std::unordered_map<uint64_t, std::shared_ptr<const GaussianSource>> cache_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_GAUSSIAN_SOURCE_H_
