// p-stable LSH for Euclidean distance (Datar, Immorlica, Indyk & Mirrokni,
// SoCG'04 — the paper's reference [7]; the E2LSH scheme).
//
// Each hash function is h_i(x) = floor((⟨a_i, x⟩ + b_i) / w) with a_i a
// vector of i.i.d. N(0, 1) components and b_i uniform in [0, w). By the
// 2-stability of the Gaussian, ⟨a_i, x − y⟩ ~ N(0, ||x − y||^2), so the
// collision probability depends only on the distance c = ||x − y||:
//
//   p(c) = 1 − 2 Φ(−w/c) − (2c / (sqrt(2π) w)) (1 − exp(−w²/(2c²))),
//
// monotone decreasing from 1 (c → 0) to 0 (c → ∞). This is the likelihood
// the Euclidean distance posterior (euclidean/distance_posterior.h) inverts
// — the same inferential pattern as the paper's cosine case, where the
// observable collision rate is a known monotone transform of the quantity
// of interest.
//
// Hash values are small signed integers; an IntSignatureStore carries them
// (through PstableChunkHasher) and grows them lazily in chunks of 64.

#ifndef BAYESLSH_EUCLIDEAN_PSTABLE_HASHER_H_
#define BAYESLSH_EUCLIDEAN_PSTABLE_HASHER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "lsh/gaussian_source.h"
#include "lsh/store_base.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

// Number of p-stable hash values produced per chunk.
inline constexpr uint32_t kPstableChunkHashes = 64;

// Collision probability of one p-stable hash for two points at Euclidean
// distance `distance`, with bucket width `width`. Returns 1 for
// distance <= 0. Monotone decreasing in distance, increasing in width.
double PstableCollisionProb(double distance, double width);

// Stateless hasher: hash i of a vector is a pure function of
// (gaussian source, seed, i, vector).
class PstableHasher {
 public:
  // Self-contained form: projection components come from an implicit
  // counter-based source keyed by `seed`. Every component evaluation pays
  // an inverse-normal-CDF — fine for tests, slow on deep signatures.
  //
  // width w > 0 is the quantization bucket size; the classic E2LSH default
  // is w = 4 (times the data's distance scale).
  PstableHasher(uint64_t seed, double width);

  // Shared-source form: projection components come from `source` (e.g. a
  // QuantizedGaussianStore — the paper's §4.3 2-byte table — shared across
  // stores so repeated hashing is a table lookup, not a CDF inversion).
  // `seed` still keys the offsets b_i and must match the source's seed for
  // reproducibility with the self-contained form. The source must outlive
  // the hasher and every store it is copied into.
  PstableHasher(const GaussianSource* source, uint64_t seed, double width);

  double width() const { return width_; }
  uint64_t seed() const { return seed_; }

  // Computes hashes [64*chunk, 64*chunk + 64) of v into out[0..63].
  void HashChunk(const SparseVectorView& v, uint32_t chunk,
                 int32_t* out) const;

 private:
  const GaussianSource* source_;  // Null = use fallback_.
  ImplicitGaussianSource fallback_;
  uint64_t seed_;
  double width_;
};

// IntChunkHasher adapter: p-stable buckets are small signed integers, but
// equality matching — the only operation the stores perform — is invariant
// under the int32 → uint32 bit-cast, so the generalized IntSignatureStore
// carries them verbatim (kind kPstableInts records the reinterpretation).
class PstableChunkHasher final : public IntChunkHasher {
 public:
  explicit PstableChunkHasher(PstableHasher pstable)
      : pstable_(std::move(pstable)) {}

  void HashChunk(const SparseVectorView& v, uint32_t /*row*/, uint32_t chunk,
                 uint32_t* out) const override {
    int32_t buckets[kPstableChunkHashes];
    pstable_.HashChunk(v, chunk, buckets);
    std::memcpy(out, buckets, sizeof(buckets));
  }
  uint32_t chunk_ints() const override { return kPstableChunkHashes; }
  SignatureKind kind() const override { return SignatureKind::kPstableInts; }

 private:
  PstableHasher pstable_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_EUCLIDEAN_PSTABLE_HASHER_H_
